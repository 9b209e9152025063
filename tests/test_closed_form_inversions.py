"""Inversion sets and pull-backs read off the root tables.

``inversions_from_negative`` lists, for each root, one interval of levels
worked out from the element's ``perm`` and ``shift`` tables, and
``pull_back`` reads x^{-1}(a_i) from the same tables.  The sweeps below
compare them with the brute-force routes they replaced: the level-window
scan ``count_inversions`` in ``conftest``, and acting with ``inverse(x)``.
The elements are random words, most of them not minuscule.  A sabotage test
corrupts the sign table the interval reads and checks that the sweep
notices; a count test checks that the hot paths no longer invert.
"""

import random

import pytest

from borbits.affine import AffineWeylGroup, affine_text, is_positive
from borbits.involutions import make_admissible_pair, orthogonal_subsets, pair_descents
from borbits.minuscule import weak_order_leq
from borbits.roots import build_root_system
from borbits.suites import verify_branch_recursion

from conftest import count_inversions, get_system

SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("E", 6)]


def random_elements(group, seed, count=12, max_len=14):
    rng = random.Random(seed)
    return [
        group.evaluate_word(
            tuple(rng.randrange(group.rank + 1) for _ in range(rng.randrange(max_len + 1)))
        )
        for _ in range(count)
    ]


def inversion_violations(group, xs):
    """Mismatches between the interval form and the window scan.  Equal
    sizes, every listed root negative and made positive, and no repeats
    together mean the two sets are equal."""
    bad = []
    for k, x in enumerate(xs):
        listed = group.inversions_from_negative(x)
        if len(listed) != count_inversions(group, x):
            bad.append(f"x{k}: {len(listed)} listed, {count_inversions(group, x)} scanned")
        if len(set(listed)) != len(listed):
            bad.append(f"x{k}: repeated roots")
        for a in listed:
            if is_positive(a):
                bad.append(f"x{k}: {affine_text(a)} is not negative")
            elif not is_positive(group.act(x, a)):
                bad.append(f"x{k}: {affine_text(a)} stays negative")
    return bad


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_interval_inversions_match_the_window_scan(letter, rank):
    _, group = get_system(letter, rank)
    xs = random_elements(group, seed=rank * 31 + ord(letter))
    assert inversion_violations(group, xs) == []
    assert all(len(group.inversions_from_negative(x)) == group.length(x) for x in xs)


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_pull_back_matches_inverse_then_act(letter, rank):
    _, group = get_system(letter, rank)
    for x in random_elements(group, seed=rank * 17 + ord(letter)):
        xinv = group.inverse(x)
        for i in group.simple_indices:
            assert group.pull_back(x, i) == group.act(xinv, group.simple_affine_root(i))


def test_inversion_sweep_detects_a_flipped_sign():
    group = AffineWeylGroup(build_root_system("B", 3))
    xs = random_elements(group, seed=7)
    assert inversion_violations(group, xs) == []
    top = len(group._negative) - 1  # the highest root, positive
    group._negative = group._negative[:top] + (1,)
    assert inversion_violations(group, xs)


def test_hot_paths_do_not_invert(monkeypatch):
    group = AffineWeylGroup(build_root_system("B", 3))
    calls = []
    real = AffineWeylGroup.inverse

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(AffineWeylGroup, "inverse", counted)
    mins = group.minuscule
    pairs = 0
    for w in mins:
        assert verify_branch_recursion(group, w).ok
        for v in mins:
            if not weak_order_leq(v, w):
                continue
            for s in orthogonal_subsets(group.rs, group.shifted_roots(w.mask & ~v.mask)):
                pair_descents(group, make_admissible_pair(group, v, s, w))
                pairs += 1
    assert pairs > 0
    assert calls == []
