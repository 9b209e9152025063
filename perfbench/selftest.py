"""Self-test of the tracer.

    python3 perfbench/selftest.py

Checks that the tracer sees every call, including those made on the
``verify`` thread pool and through names bound by ``from ... import``:
``minuscule.enumerate_minuscule`` runs 6 times, all on one group, in
``verify --type B --rank 4 --suite all`` and once in ``ideals``; the B4
exact counts repeat identically over two traced runs; and traced output
matches the pinned suite counts and the golden digest.  Exits 1 on any
failure.

The calls of the affine primitives are exact only when the suites run one
after the other: ``verify --suite all`` runs them on a thread pool that
shares the group's length, inverse and Bruhat caches, so which thread
fills an entry first, and with it how many primitive calls a miss costs,
varies between runs.  Those counts are printed when they differ, not
failed.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

SCHEDULE_DEPENDENT = (
    "affine.act",
    "affine.multiply",
    "affine.inverse",
    "affine.length",
    "affine.reduced_word",
    "affine.inversions_from_negative",
    "affine.bruhat_leq",
    "roots.pairing_with_simple_coroot",
)

B4_SUITES = [
    ["minuscule", "pass", 1062],
    ["involutions", "pass", 3239],
    ["poset", "pass", 2041],
    ["strong-form", "pass", 869],
    ["phi", "pass", 132],
]
VERIFY_B4 = ["verify", "--type", "B", "--rank", "4", "--suite", "all"]
IDEALS_A5 = ["ideals", "--type", "A", "--rank", "5"]


def traced_counts(argv: list[str]) -> dict:
    o = run.run_command(argv, traced=True)
    trace = run.read_trace(o)
    if o.returncode != 0 or trace is None:
        raise RuntimeError(f"traced borbits {run.command_key(argv)} failed: {o.stderr.decode()}")
    counts = {name: s[0] for name, s in trace["stats"].items()}
    counts.update({f"{name}.leaf": s[3] for name, s in trace["stats"].items()})
    counts.update(trace["extra"])
    counts.update({f"{name}.distinct": n for name, n in trace["distinct"].items()})
    counts["stdout.sha256"] = hashlib.sha256(o.stdout).hexdigest()
    counts["suites"] = run.parse_suites(o.stdout)
    return counts


def main() -> int:
    golden = json.loads(run.GOLDEN_PATH.read_text())
    problems = []
    first, second = traced_counts(VERIFY_B4), traced_counts(VERIFY_B4)
    ideals = traced_counts(IDEALS_A5)
    for argv, counts, expected in ((VERIFY_B4, first, 6), (IDEALS_A5, ideals, 1)):
        calls = counts.get("minuscule.enumerate_minuscule", 0)
        print(f"borbits {run.command_key(argv)}: enumerate_minuscule.calls {calls}")
        if calls != expected:
            problems.append(f"{run.command_key(argv)}: enumerate_minuscule.calls {calls}, expected {expected}")
    if first["suites"] != B4_SUITES:
        problems.append(f"traced B4 suites {first['suites']} differ from pinned {B4_SUITES}")
    if ideals["stdout.sha256"] != golden[run.command_key(IDEALS_A5)]["sha256"]:
        problems.append("traced A5 ideals output differs from golden")
    diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for k in diff:
        if k.startswith(SCHEDULE_DEPENDENT):
            print(f"  schedule-dependent {k}: {first.get(k)} then {second.get(k)}")
        else:
            problems.append(f"B4 exact count {k} differs between two traced runs: {first.get(k)} then {second.get(k)}")
    for p in problems:
        print(f"FAILED {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
