"""The three benchmark workloads: fixed command pools and the seeded draw.

A workload is a list of strata.  A stratum holds alternative borbits argv
lists of about the same cost (measured on a 2-core machine, see
DESIGN.md) and how many of them one pass runs.  The seed picks the
alternatives and the order of the pass; the pass keeps its cost and its
layer mix whatever the seed, so the run-to-run spread is the machine's,
not the draw's.  Every command in a pool has golden output in
``golden.json``.
"""

from __future__ import annotations

import random


def _ideals(systems):
    out = []
    for letter, rank in systems:
        argv = ["ideals", "--type", letter, "--rank", str(rank)]
        out += [argv, argv + ["--json"]]
    return out


POSET_VIEWS = (["poset", "--format", "dot"], ["poset", "--format", "json"])
ALL_VIEWS = POSET_VIEWS + (["orbits"], ["orbits", "--json"])


def _contexts(letter, rank, ideal_ids, v_words, views=ALL_VIEWS):
    out = []
    for k in ideal_ids:
        for v in v_words:
            context = ["--type", letter, "--rank", str(rank), "--ideal-id", str(k)]
            if v:
                context += ["--v", v]
            out += [view[:1] + context + view[1:] for view in views]
    return out


# name -> [(stratum name, picks per pass, alternatives)]
WORKLOADS = {
    # minuscule + affine walk only: no Bruhat comparison is ever made.
    "enumerate": [
        ("type A, rank >= 8", 1, _ideals([("A", 8)])),
        ("exceptional", 1, _ideals([("E", 7)])),
        ("classical rank 7", 1, _ideals([("D", 7)])),
        ("rank 6", 1, _ideals([("A", 6), ("D", 6), ("E", 6)])),
        ("rank 5", 1, _ideals([("A", 5), ("B", 5), ("C", 5), ("D", 5)])),
    ],
    # orbit posets closed under the Bruhat order: one large E6 poset (warm
    # Bruhat cache within the process) next to small cold ones.
    "closure": [
        ("large E6 poset", 1, _contexts("E", 6, [60], [""], POSET_VIEWS)),
        ("medium E6", 1, _contexts("E", 6, [39, 42], [""])),
        ("D5", 2, _contexts("D", 5, [30], [""])),
        ("rank 4", 1, _contexts("B", 4, [15], ["", "0"]) + _contexts("C", 4, [14], ["", "0"]) + _contexts("F", 4, [15], ["", "0"])),
    ],
    # verification suites: the thread pool of `verify --suite all`, repeated
    # minuscule enumeration, a cross-context Bruhat cache (phi), and the
    # type-A finite-field oracle.  One system runs `--suite all`: the cost
    # and check counts of B4, C4 and F4 differ by up to 2x, so a draw among
    # them would let the seed rather than the code move the metrics.
    "crosscheck": [
        ("rank-4 suite all", 1, [["verify", "--type", "B", "--rank", "4", "--suite", "all"]]),
        ("D5 single suite", 1, [["verify", "--type", "D", "--rank", "5", "--suite", "phi"]]),
        ("type-A oracle", 3, [
            ["oracle-typea", "--n", "4", "--ideal-id", str(k), "--q", q]
            for k in (4, 5, 6)
            for q in ("2,3,5", "2,5,3", "3,2,5", "3,5,2", "5,2,3", "5,3,2")
        ]),
    ],
}


def pool(workload: str) -> list[list[str]]:
    return [argv for _, _, alts in WORKLOADS[workload] for argv in alts]


def draw(workload: str, seed: int) -> list[list[str]]:
    """One pass of the workload for this seed: the picks of every stratum,
    in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    commands = []
    for _, picks, alts in WORKLOADS[workload]:
        commands += rng.sample(alts, picks)
    rng.shuffle(commands)
    return commands


def systems(commands) -> list[tuple[str, int]]:
    """The (type, rank) pairs a pass builds, in first-use order."""
    out = []
    for argv in commands:
        if "--type" in argv:
            key = (argv[argv.index("--type") + 1], int(argv[argv.index("--rank") + 1]))
        else:  # oracle-typea --n N works in type A_{N-1}
            key = ("A", int(argv[argv.index("--n") + 1]) - 1)
        if key not in out:
            out.append(key)
    return out
