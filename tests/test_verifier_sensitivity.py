"""The verification sweeps must be able to fail, not just pass.

Each test plants a deliberate falsehood (a flipped Bruhat answer, a wrong
length, a missing alcove wall) and checks that the corresponding sweep
reports violations.  A verifier that stays green under sabotage would be
vacuous.
"""

from borbits.affine import AffineWeylGroup
from borbits.minuscule import enumerate_minuscule
from borbits.orbits import (
    verify_branch_recursion,
    verify_moves_vs_order,
    verify_strong_form,
)
from borbits.suites import suite_minuscule

from conftest import get_system


def _fresh_group(letter, rank):
    # private groups so the sabotage cannot pollute the shared caches
    from borbits.roots import build_root_system

    return AffineWeylGroup(build_root_system(letter, rank))


def test_moves_vs_order_detects_flipped_bruhat(monkeypatch):
    group = _fresh_group("A", 2)
    w = max(enumerate_minuscule(group), key=lambda m: m.length)
    real = AffineWeylGroup.bruhat_leq

    def flipped(self, u, x):
        return not real(self, u, x)

    monkeypatch.setattr(AffineWeylGroup, "bruhat_leq", flipped)
    rep = verify_moves_vs_order(group, w)
    assert not rep.ok


def test_strong_form_detects_always_true_bruhat(monkeypatch):
    group = _fresh_group("A", 3)

    monkeypatch.setattr(AffineWeylGroup, "bruhat_leq", lambda self, u, x: True)
    rep = verify_strong_form(group)
    assert not rep.ok
    # both sets print in their canonical order, whatever the hash seed
    assert "{0,0,1-1d} is below {0,1,0-1d,1,1,1-1d} but escapes ideal 7" in rep.violations


def test_branch_recursion_detects_wrong_conjugation(monkeypatch):
    group = _fresh_group("B", 2)
    w = max(enumerate_minuscule(group), key=lambda m: m.length)

    import borbits.orbits as orbits_mod

    monkeypatch.setattr(
        orbits_mod, "twisted_conjugate", lambda g, i, sigma: sigma
    )
    rep = verify_branch_recursion(group, w)
    assert not rep.ok
    assert all("S={" in v for v in rep.violations)


def _criteria_report(group):
    (rep,) = [r for r in suite_minuscule(group) if r.name == "minuscule-criteria-agree"]
    return rep


def test_minuscule_criteria_detect_a_missing_alcove_wall():
    """Without the wall 2*delta - theta the doubled alcove is unbounded, so
    the alcove check accepts elements that the inversion criterion rejects."""
    clean = _criteria_report(_fresh_group("A", 3))
    assert clean.ok
    group = _fresh_group("A", 3)
    group._walls = group._walls[:-1]
    rep = _criteria_report(group)
    assert rep.checks == clean.checks
    assert rep.violations


def test_sweeps_pass_untouched():
    """Control run: the same sweeps on clean groups stay green."""
    _, W = get_system("A", 2)
    w = max(enumerate_minuscule(W), key=lambda m: m.length)
    assert verify_moves_vs_order(W, w).ok
    assert verify_strong_form(W).ok
    assert verify_branch_recursion(W, w).ok
