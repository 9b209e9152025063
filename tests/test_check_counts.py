"""Pinned check counts of every verification suite.

A suite's check count is deterministic for a root system.  Pinning it means
that a refactor which quietly does less work fails here even when every
remaining check still passes.
"""

import pytest

from borbits.suites import SUITE_NAMES, run_suite

from conftest import get_system

PINNED = {
    ("A", 2): {"minuscule": 44, "involutions": 136, "poset": 64, "strong-form": 27, "phi": 24},
    ("B", 2): {"minuscule": 52, "involutions": 179, "poset": 90, "strong-form": 40, "phi": 30},
    ("C", 3): {"minuscule": 300, "involutions": 1468, "poset": 660, "strong-form": 314, "phi": 210},
    ("D", 4): {"minuscule": 812, "involutions": 2551, "poset": 1558, "strong-form": 744, "phi": 330},
    ("G", 2): {"minuscule": 47, "involutions": 174, "poset": 80, "strong-form": 31, "phi": 0},
    ("B", 4): {"minuscule": 1062, "involutions": 3239, "poset": 2041, "strong-form": 869, "phi": 132},
    ("F", 4): {"minuscule": 1751, "involutions": 4681, "poset": 3141, "strong-form": 1219, "phi": 0},
    ("C", 4): {"minuscule": 2398, "involutions": 6250, "poset": 6236, "strong-form": 3244, "phi": 1892},
    ("D", 5): {"minuscule": 5262, "involutions": 15592, "poset": 10478, "strong-form": 4997, "phi": 1586},
}


@pytest.mark.parametrize("letter,rank", list(PINNED))
def test_suite_check_counts_are_pinned(letter, rank):
    _, W = get_system(letter, rank)
    counts = {name: sum(r.checks for r in run_suite(W, name)) for name in SUITE_NAMES}
    assert counts == PINNED[(letter, rank)]
