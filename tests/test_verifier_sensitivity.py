"""The verification sweeps must be able to fail, not just pass.

Each test plants a deliberate falsehood (a flipped Bruhat answer, a wrong
length, a missing alcove wall) and checks that the corresponding sweep
reports violations.  A verifier that stays green under sabotage would be
vacuous.
"""

from borbits.affine import AffineWeylGroup
from borbits.minuscule import enumerate_minuscule
from borbits.suites import (
    suite_involutions,
    suite_minuscule,
    verify_branch_recursion,
    verify_moves_vs_order,
    verify_strong_form,
)

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


def test_a_wrong_streamed_involution_fails_strong_form_and_injectivity(monkeypatch):
    """The stream yields, for one subset R of Phi^+ - delta, the involution
    of a context S != R, where R escapes an ideal k that holds S.  Then R is
    below S outside ideal k, and S's involution is no longer S's alone."""
    import borbits.involutions as involutions_mod
    import borbits.suites as suites_mod
    from borbits.involutions import orthogonal_subsets, reflection_product, set_text

    group = _fresh_group("A", 3)
    k = 1
    inside = group.minuscule[k].mask
    s = orthogonal_subsets(group.rs, group.shifted_roots(inside))[1]
    j = next(j for j in range(len(group.rs.positive_roots)) if not inside >> j & 1)
    r = group.shifted_roots(1 << j)
    sigma_s = reflection_product(group, s)
    real = involutions_mod.shifted_orthogonal_stream

    def wrong(g):
        for sub, mask, sigma in real(g):
            yield sub, mask, sigma_s if sub == r else sigma

    monkeypatch.setattr(involutions_mod, "shifted_orthogonal_stream", wrong)
    monkeypatch.setattr(suites_mod, "shifted_orthogonal_stream", wrong)
    rep = verify_strong_form(group)
    assert f"{set_text(r)} is below {set_text(s)} but escapes ideal {k}" in rep.violations
    (rep,) = [x for x in suite_involutions(group) if x.name == "support-injectivity"]
    holders = [h for h, m in enumerate(group.minuscule) if not group.shifted_mask(s) & ~m.mask]
    assert k in holders
    assert rep.violations == tuple(
        f"involution does not determine the subset inside ideal {h}" for h in holders
    )


def test_branch_recursion_detects_wrong_conjugation(monkeypatch):
    group = _fresh_group("B", 2)
    w = max(enumerate_minuscule(group), key=lambda m: m.length)

    import borbits.suites as suites_mod

    monkeypatch.setattr(
        suites_mod, "twisted_conjugate", lambda g, i, sigma: sigma
    )
    rep = verify_branch_recursion(group, w)
    assert not rep.ok
    assert all("S={" in v for v in rep.violations)


def _minuscule_report(group, name):
    (rep,) = [r for r in suite_minuscule(group) if r.name == name]
    return rep


def test_minuscule_criteria_detect_a_missing_alcove_wall():
    """Without the wall 2*delta - theta the doubled alcove is unbounded, so
    the alcove check accepts elements that the inversion criterion rejects."""
    clean = _minuscule_report(_fresh_group("A", 3), "minuscule-criteria-agree")
    assert clean.ok
    group = _fresh_group("A", 3)
    group._walls = group._walls[:-1]
    rep = _minuscule_report(group, "minuscule-criteria-agree")
    assert rep.checks == clean.checks
    assert rep.violations


def test_sweeps_pass_untouched():
    """Control run: the same sweeps on clean groups stay green."""
    _, W = get_system("A", 2)
    w = max(enumerate_minuscule(W), key=lambda m: m.length)
    assert verify_moves_vs_order(W, w).ok
    assert verify_strong_form(W).ok
    assert verify_branch_recursion(W, w).ok


# -- sweeps that add or subtract two roots -------------------------------------
# A root is a tuple, on which + concatenates; each sweep below must still see
# the root sum and print roots by their coefficients.


def test_strong_orthogonality_sweep_reads_root_sums_and_differences():
    """In B2, alpha_2 and alpha_1 + alpha_2 (e2 and e1) are orthogonal, but
    their sum and their difference are roots.  For orthogonal roots one is a
    root iff the other is, so either read alone catches the pair."""
    group = _fresh_group("B", 2)
    group.minuscule[-1].mask = group.shifted_mask((((0, 1), -1), ((1, 1), -1)))
    rep = _minuscule_report(group, "orthogonal-is-strongly-orthogonal")
    assert rep.violations == ("0,1-1d, 1,1-1d orthogonal but not strongly orthogonal",)


def test_one_root_extension_sweep_reads_root_sums():
    """In A3, alpha_2 extends both alpha_1 and alpha_3 to a root."""
    group = _fresh_group("A", 3)
    group.minuscule[-1].mask = group.shifted_mask((((1, 0, 0), -1), ((0, 0, 1), -1)))
    rep = _minuscule_report(group, "one-root-extension")
    assert rep.violations == ("0,1,0 extends two roots of {0,0,1-1d,1,0,0-1d}",)


def test_violations_name_ideals_by_id(monkeypatch):
    import borbits.suites as suites_mod

    group = _fresh_group("A", 2)
    monkeypatch.setattr(suites_mod, "normalizer_by_ideal_stability", lambda rs, ideal: ())
    rep = _minuscule_report(group, "normalizer-criteria")
    assert rep.violations == tuple(f"normalizer criteria disagree on ideal {k}" for k in (0, 2, 3))

    monkeypatch.setattr(AffineWeylGroup, "bruhat_leq", lambda self, u, x: True)
    rep = _minuscule_report(_fresh_group("A", 2), "weak-order-is-bruhat")
    # the ideals are {}, {theta}, {alpha_2, theta} and {alpha_1, theta}
    below = {(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (3, 3)}
    assert rep.violations == tuple(
        f"weak/Bruhat mismatch at ideals {k1} and {k2}"
        for k1 in range(4)
        for k2 in range(4)
        if (k1, k2) not in below
    )

    monkeypatch.setattr(suites_mod, "support_injectivity_check", lambda g: [False] * len(g.minuscule))
    (rep,) = [r for r in suite_involutions(_fresh_group("A", 2)) if r.name == "support-injectivity"]
    assert rep.violations == tuple(
        f"involution does not determine the subset inside ideal {k}" for k in range(4)
    )
