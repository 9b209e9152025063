"""Per-system derived data lives on the group: it is computed once per group
and is freed together with the group."""

import gc
import sys
import weakref

from borbits.affine import AffineWeylGroup
from borbits.involutions import support_injectivity_check
from borbits.minuscule import enumerate_minuscule
from borbits.orbits import build_orbit_poset, verify_strong_form
from borbits.roots import build_root_system
from borbits.suites import SUITE_NAMES, run_suite


def test_group_is_freed_after_use():
    group = AffineWeylGroup(build_root_system("B", 2))
    mins = enumerate_minuscule(group)
    w = mins[-1]
    assert build_orbit_poset(group, w, mins[0]).context.ideal_id == len(mins) - 1
    assert verify_strong_form(group).ok
    assert all(support_injectivity_check(group))
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None


def test_all_suites_enumerate_minuscule_once(monkeypatch):
    """Counted by rebinding the name in every borbits module that holds it."""
    original = enumerate_minuscule
    calls = 0

    def counted(group):
        nonlocal calls
        calls += 1
        return original(group)

    for name, module in list(sys.modules.items()):
        if name == "borbits" or name.startswith("borbits."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    group = AffineWeylGroup(build_root_system("B", 2))
    for name in SUITE_NAMES:
        assert all(r.ok for r in run_suite(group, name))
    assert calls == 1
