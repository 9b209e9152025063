"""The group's admissible pair table: what a pair (v, S, w) owes to (v, S)
alone is worked out once per (ideal id of v, mask of S), however many
witnesses w share it, while the witness's own tests run for every pair.

The per-pair path that rebuilt all of it for each witness is kept in
``oracles`` and swept against the table on every admissible pair of five
systems; the sabotage tests show that a corrupted entry fails the suite and
that a witness is still checked for a pair whose entry is stored.
"""

import pytest

from borbits.affine import AffineWeylGroup
from borbits.involutions import (
    _OPEN,
    descent_move,
    make_admissible_pair,
    pair_descents,
    twisted_conjugate,
)
from borbits.minuscule import MinusculeElement, weak_order_leq
from borbits.roots import build_root_system
from borbits.suites import _admissible_sweep, run_suite

from oracles import (
    admissible_pair_oracle,
    descent_move_oracle,
    pair_descents_oracle,
    twisted_conjugate_oracle,
)


def _fresh_group(letter, rank):
    return AffineWeylGroup(build_root_system(letter, rank))


@pytest.mark.parametrize("letter,rank", [("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_the_table_agrees_with_the_per_pair_path(letter, rank):
    group = _fresh_group(letter, rank)
    pairs = moves = 0
    for pair in _admissible_sweep(group):
        pairs += 1
        scratch = admissible_pair_oracle(group, pair.v, pair.s, pair.witness)
        assert pair.sigma == scratch.sigma
        desc = pair_descents(group, pair)
        assert desc == pair_descents_oracle(group, scratch)
        for i in group.simple_indices:
            assert twisted_conjugate(group, i, pair.sigma) == twisted_conjugate_oracle(group, i, pair.sigma)
            if desc[i][0] == "none":
                continue
            moved, expected = descent_move(group, pair, i), descent_move_oracle(group, scratch, i)
            assert (moved, moved.sigma) == (expected, expected.sigma)
            moves += 1
    # every (v, S) has an entry, and several witnesses share most of them
    assert moves > 0 and 0 < len(group._pairs) < pairs
    for (vid, mask), facts in group._pairs.items():
        v = group.minuscule[vid]
        w = next(w for w in group.minuscule if weak_order_leq(v, w) and not mask & ~w.mask & ~v.mask)
        assert facts.sigma == admissible_pair_oracle(group, v, group.shifted_roots(mask), w).sigma


def _open_entry(group):
    """An entry, one of its pairs and an index whose descent must be affine."""
    for pair in _admissible_sweep(group):
        desc = pair_descents(group, pair)
        (vid, facts), = [
            (vid, facts) for (vid, mask), facts in group._pairs.items()
            if group.minuscule[vid] == pair.v and mask == group.shifted_mask(pair.s)
        ]
        for i, cls in enumerate(facts.classes):
            if cls in _OPEN.values() and desc[i] == ("complex", "affine"):
                return pair, vid, facts, i
    raise LookupError("no complex affine descent")


def _pair_moves(group):
    (report,) = [r for r in run_suite(group, "involutions") if r.name == "pair-descent-moves"]
    return report


def test_a_corrupted_entry_fails_the_suite():
    """A complex affine descent recorded as a real one: every pair of that
    (v, S) fails the real affine criterion on its own witness."""
    group = _fresh_group("B", 3)
    assert _pair_moves(group).ok
    pair, vid, facts, i = _open_entry(group)
    classes = list(facts.classes)
    classes[i] = _OPEN["real"]
    facts.classes = tuple(classes)
    report = _pair_moves(group)
    sharing = [p for p in _admissible_sweep(group) if (p.v, p.s) == (pair.v, pair.s)]
    assert report.failures == len(sharing) > 0
    assert set(report.violations) == {"descent classification failed: real affine descent criterion mismatch"}


def test_a_witness_without_the_affine_root_is_refused():
    """-beta of an affine descent is an inversion of every real witness.  A
    witness whose mask lacks it is still refused for that pair, although
    the entry of (v, S) is stored and classified."""
    group = _fresh_group("B", 3)
    pair, vid, facts, i = _open_entry(group)
    k = group.minuscule_pull_backs[vid][i][1]
    assert pair.witness.mask >> k & 1
    fake = MinusculeElement(pair.witness.element, pair.witness.mask & ~(1 << k))
    bad = make_admissible_pair(group, pair.v, pair.s, fake)
    with pytest.raises(AssertionError, match="descent is neither finite nor affine"):
        pair_descents(group, bad)
    with pytest.raises(AssertionError, match="descent is neither finite nor affine"):
        descent_move(group, bad, i)
    assert descent_move(group, pair, i).witness == pair.witness


@pytest.mark.parametrize("suite", ["involutions", "poset", "strong-form"])
def test_each_gap_is_walked_once_per_suite_run(monkeypatch, suite):
    """Every sweep, and `build_orbit_poset` in the poset suite, reads a
    gap's orthogonal subsets through `gap_subsets`, which walks each gap
    once per group."""
    from borbits import involutions

    walked = []
    real = involutions.orthogonal_subsets

    def counted(rs, roots):
        roots = tuple(roots)
        walked.append(frozenset(roots))
        return real(rs, roots)

    monkeypatch.setattr(involutions, "orthogonal_subsets", counted)
    group = _fresh_group("B", 3)
    assert all(r.ok for r in run_suite(group, suite))
    assert walked and len(walked) == len(set(walked))


def test_each_gap_is_walked_once_per_verify_command(monkeypatch, capsys):
    """`verify --suite all` runs every suite on one group, so a gap that one
    suite walked is read from the group's table by the next.  Only the
    stream of all of Phi^+ - delta, which keeps nothing, is walked once by
    each sweep that streams it: support injectivity and strong-form."""
    from borbits import cli, involutions

    walked = []
    real = involutions.orthogonal_subsets

    def counted(rs, roots):
        roots = tuple(roots)
        walked.append(frozenset(roots))
        return real(rs, roots)

    monkeypatch.setattr(involutions, "orthogonal_subsets", counted)
    assert cli.main(["verify", "--type", "B", "--rank", "3", "--suite", "all"]) == 0
    assert capsys.readouterr().out.count(": pass (") == 5
    everything = len(build_root_system("B", 3).positive_roots)
    streamed = [roots for roots in walked if len(roots) == everything]
    gaps = [roots for roots in walked if len(roots) < everything]
    assert len(streamed) == 2
    assert gaps and len(gaps) == len(set(gaps))


def test_branch_verdicts_are_shared_by_the_witnesses(monkeypatch):
    """`verify_branch_recursion` compares the involutions of a cover
    (v, i, S) once for all the w above it when the caller passes one
    `verdicts` table, as the poset suite does.  With a wrong twisted
    conjugate every w still gets its own checks and its own messages, the
    same as when each w is swept alone, and every w still makes its pairs,
    with their witness tests."""
    from borbits import suites

    made, conjugated = [], []
    real_pair = suites.make_admissible_pair

    def counted_pair(group, v, s, w):
        made.append((v, s, w))
        return real_pair(group, v, s, w)

    def wrong(group, i, sigma):
        conjugated.append((i, sigma))
        return sigma

    monkeypatch.setattr(suites, "make_admissible_pair", counted_pair)
    monkeypatch.setattr(suites, "twisted_conjugate", wrong)
    group = _fresh_group("B", 3)
    alone = [suites.verify_branch_recursion(group, w) for w in group.minuscule]
    made_alone, made[:], conjugated_alone, conjugated[:] = made[:], [], len(conjugated), []
    verdicts = {}
    shared = [suites.verify_branch_recursion(group, w, verdicts) for w in group.minuscule]
    assert shared == alone
    assert sum(r.failures for r in shared) > 0 and all(r.checks for r in shared[1:])
    assert made == made_alone
    assert len(conjugated) == len(verdicts) < conjugated_alone
