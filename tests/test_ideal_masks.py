"""`ideal_from_mask` validates against the root system's `ideal_masks`.

`make_abelian_ideal` (in `oracles.py`) turns a list of roots into a mask
and hands it to `ideal_from_mask`.

The three validation loops that ran before the masks (positivity, upward
closure by `dominance_leq`, sum-freeness by `Root.__add__`) are kept here as
the oracle.  The mask validator must give the same answer and the same
error message on every ideal, on every ideal with one positive root added or
removed, and on seeded random subsets of the positive roots; every mask bit
is compared with `dominance_leq` and `is_root`; the table is built only on
first use; and a wrong bit is caught.
"""

import random

import pytest

from borbits.affine import AffineWeylGroup
from borbits.minuscule import AbelianIdeal, enumerate_abelian_ideals
from borbits.roots import Root, build_root_system

from conftest import get_system
from oracles import make_abelian_ideal

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
RANDOM_SYSTEMS = [("B", 4, 1101), ("F", 4, 1102), ("E", 6, 1103)]
KINDS = {"ok", "not a positive root", "not upward closed", "not sum-free"}


def _oracle(rs, roots) -> AbelianIdeal:
    """The validation as it was before the masks, root by root."""
    rset = set(roots)
    for r in rset:
        if not r.is_positive or not rs.is_root(r.coeffs):
            raise ValueError(f"{r} is not a positive root")
    for r in rset:
        for q in rs.positive_roots:
            if rs.dominance_leq(r, q) and q not in rset:
                raise ValueError("ideal is not upward closed")
    for a in rset:
        for b in rset:
            if rs.is_root((a + b).coeffs):
                raise ValueError("ideal is not sum-free")
    return AbelianIdeal(tuple(sorted(rset, key=lambda r: r.sort_key)))


def _outcome(validate, rs, roots):
    try:
        return ("ok", validate(rs, roots).roots)
    except ValueError as exc:
        return ("error", str(exc))


def _kind(outcome) -> str:
    status, value = outcome
    if status == "ok":
        return "ok"
    return next(k for k in KINDS if value.endswith(k))


def _disagreements(rs, cases) -> list:
    """The cases on which the mask validator and the oracle differ."""
    return [
        roots
        for roots in cases
        if _outcome(make_abelian_ideal, rs, roots) != _outcome(_oracle, rs, roots)
    ]


def _neighbour_cases(rs) -> list[list[Root]]:
    """Every ideal, every ideal with one positive root added or removed, and
    every ideal with a negative root or a positive non-root vector added."""
    not_a_root = Root(tuple(2 * c for c in rs.highest_root.coeffs))
    cases = []
    for ideal in enumerate_abelian_ideals(rs):
        members = list(ideal.roots)
        cases.append(members)
        cases += [members + [q] for q in rs.positive_roots if q not in ideal.roots]
        cases += [[r for r in members if r != q] for q in members]
        cases.append(members + [-rs.highest_root])
        cases.append([not_a_root] + members)
    return cases


def _upward_closure(rs, roots) -> list[Root]:
    return [q for q in rs.positive_roots if any(rs.dominance_leq(p, q) for p in roots)]


def _random_cases(rs, seed, count=150) -> list[list[Root]]:
    """Seeded subsets of all densities, their upward closures, and the
    closures of one to three roots, which are often abelian."""
    rng = random.Random(seed)
    pos = rs.positive_roots
    cases = []
    for _ in range(count):
        density = rng.random()
        subset = [q for q in pos if rng.random() < density]
        cases.append(subset)
        cases.append(_upward_closure(rs, subset))
        cases.append(_upward_closure(rs, rng.sample(pos, rng.randint(1, 3))))
    return cases


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_masks_agree_with_the_oracle_around_every_ideal(letter, rank):
    rs, _ = get_system(letter, rank)
    cases = _neighbour_cases(rs)
    assert _disagreements(rs, cases) == []
    kinds = {_kind(_outcome(_oracle, rs, roots)) for roots in cases}
    assert kinds >= {"ok", "not a positive root", "not upward closed"}


def test_every_kind_of_answer_is_compared():
    kinds = set()
    for letter, rank in SYSTEMS:
        rs, _ = get_system(letter, rank)
        kinds |= {_kind(_outcome(_oracle, rs, roots)) for roots in _neighbour_cases(rs)}
    assert kinds == KINDS


@pytest.mark.parametrize("letter,rank,seed", RANDOM_SYSTEMS)
def test_masks_agree_with_the_oracle_on_random_subsets(letter, rank, seed):
    rs, _ = get_system(letter, rank)
    cases = _random_cases(rs, seed)
    assert _disagreements(rs, cases) == []
    assert {_kind(_outcome(_oracle, rs, roots)) for roots in cases} == KINDS - {"not a positive root"}


@pytest.mark.parametrize("letter,rank", SYSTEMS + [("F", 4), ("E", 6), ("E", 8)])
def test_every_mask_bit(letter, rank):
    rs, _ = get_system(letter, rank)
    pos = rs.positive_roots
    above, partners = rs.ideal_masks
    assert len(above) == len(partners) == len(pos)
    for i, r in enumerate(pos):
        assert above[i] >> len(pos) == partners[i] >> len(pos) == 0
        for j, q in enumerate(pos):
            assert bool(above[i] >> j & 1) == rs.dominance_leq(r, q)
            assert bool(partners[i] >> j & 1) == rs.is_root((r + q).coeffs)


def test_the_table_is_built_on_first_use():
    rs = build_root_system("E", 6)
    group = AffineWeylGroup(rs)
    assert "ideal_masks" not in rs.__dict__
    group.minuscule
    assert "ideal_masks" in rs.__dict__
    assert rs.ideal_masks is rs.ideal_masks


# -- sabotage: a wrong bit is caught -----------------------------------------------


def _sabotaged(above=None, partners=None):
    """A fresh A3, not the shared one, with one mask entry replaced."""
    rs = build_root_system("A", 3)
    clean_above, clean_partners = rs.ideal_masks
    rs.ideal_masks = (above or clean_above, partners or clean_partners)
    return rs


def _with_bit(masks, i, j):
    assert not masks[i] >> j & 1
    return masks[:i] + (masks[i] | 1 << j,) + masks[i + 1 :]


def test_a_wrong_above_bit_is_caught():
    clean = build_root_system("A", 3)
    top = clean.positive_index(clean.highest_root)
    alpha1 = clean.positive_index(clean.simple_root(1))
    rs = _sabotaged(above=_with_bit(clean.ideal_masks[0], top, alpha1))
    assert _disagreements(rs, _neighbour_cases(rs))
    with pytest.raises(ValueError, match="ideal is not upward closed"):
        AffineWeylGroup(rs).minuscule


def test_a_wrong_partner_bit_is_caught():
    clean = build_root_system("A", 3)
    top = clean.positive_index(clean.highest_root)
    rs = _sabotaged(partners=_with_bit(clean.ideal_masks[1], top, top))
    assert _disagreements(rs, _neighbour_cases(rs))
    with pytest.raises(ValueError, match="ideal is not sum-free"):
        AffineWeylGroup(rs).minuscule
