"""borbits benchmark: seeded workloads of real CLI invocations.

    python3 perfbench/run.py --workload enumerate|closure|crosscheck|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Each command runs in its own process with the user's environment
(``PYTHONPATH`` pointing at ``src``, ``RS_THREADS`` removed), one after
the other (a closed loop with one client).  Every output is checked against
``golden.json``.  With ``--trace 0`` the benchmark repeats passes over the
drawn commands for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced pass of the same commands
(see ``tracer.py``) and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines above it are the readable
report.  DESIGN.md documents the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = HERE / "golden.json"

COMMAND_TIMEOUT_S = 60.0
HARD_BUDGET_S = 150.0  # no command starts or runs past this, so a run ends within 180 s
SETUP_REPS = 11
CALIBRATION_ITERATIONS = 100_000
SUITE_RE = re.compile(r"^SUITE (\S+): (\w+) \((\d+) checks\)", re.M)


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("RS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Outcome:
    argv: list[str]
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    timed_out: bool
    error: str | None = None
    cal_s: float = 0.0  # calibration time taken just before the command

    @property
    def rel(self) -> float:
        """Wall time in units of the calibration time taken before it."""
        return self.wall_s / self.cal_s


def run_command(argv: list[str], traced: bool = False, timeout: float = COMMAND_TIMEOUT_S) -> Outcome:
    """Run one CLI invocation in its own process.  Wall time runs from
    spawn to reaping; peak RSS is that process's own ``ru_maxrss`` from
    ``os.wait4`` (RUSAGE_CHILDREN would be a maximum over every child)."""
    prog = [sys.executable, str(HERE / "tracer.py")] if traced else [sys.executable, "-m", "borbits"]
    out: dict[str, bytes] = {}
    timed_out = threading.Event()
    t0 = perf_counter()
    proc = subprocess.Popen(
        prog + argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    readers = [
        threading.Thread(target=lambda n, f: out.__setitem__(n, f.read()), args=(name, stream))
        for name, stream in (("stdout", proc.stdout), ("stderr", proc.stderr))
    ]
    for r in readers:
        r.start()

    def kill() -> None:
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(
        argv, wall, usage.ru_maxrss / 1024.0, proc.returncode,
        out.get("stdout", b""), out.get("stderr", b""), timed_out.is_set(),
    )


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def parse_suites(stdout: bytes) -> list[list]:
    """(suite, status, checks) per SUITE line; columns after the count are
    ignored so that a later timing column does not break the gate."""
    return [[m[0], m[1], int(m[2])] for m in SUITE_RE.findall(stdout.decode())]


def check(outcome: Outcome, golden: dict) -> str | None:
    g = golden.get(command_key(outcome.argv))
    if g is None:
        return "no golden output for this command"
    if outcome.timed_out:
        return "timed out"
    if outcome.returncode != 0:
        return f"exit code {outcome.returncode}"
    if outcome.argv[0] == "verify":
        got = parse_suites(outcome.stdout)
        if got != g["suites"]:
            return f"suite results {got} differ from pinned {g['suites']}"
    elif hashlib.sha256(outcome.stdout).hexdigest() != g["sha256"]:
        return "stdout differs from the golden digest"
    return None


def calibrate() -> float:
    """Median time of three runs of a fixed pure-Python dict/tuple loop; it
    tracks how fast this machine runs interpreter code right now, and the
    median keeps one disturbed run from moving it."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        table: dict = {}
        for i in range(CALIBRATION_ITERATIONS):
            key = (i & 1023, i % 7)
            table[key] = table.get(key, 0) + i
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def run_rel(self) -> float:
        return self.run_s / sum(o.cal_s for o in self.outcomes)


def run_pass(commands, golden, deadline: float, traced: bool = False) -> Pass:
    """One pass over the commands, with a calibration loop before each."""
    p = Pass()
    for argv in commands:
        cal_s = calibrate()
        budget = min(COMMAND_TIMEOUT_S, deadline - perf_counter())
        if budget <= 0:
            o = Outcome(argv, 0.0, 0.0, -1, b"", b"", True, "not started: run budget spent")
        else:
            o = run_command(argv, traced, budget)
            o.error = check(o, golden)
        o.cal_s = cal_s
        p.outcomes.append(o)
    return p


def measure_setup(systems) -> float:
    """Fresh interpreter: import borbits, build the pass's root systems and
    affine Weyl groups."""
    code = (
        "import borbits\n"
        f"for t, r in {systems!r}:\n"
        "    borbits.AffineWeylGroup(borbits.build_root_system(t, r))\n"
    )
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(), capture_output=True, timeout=COMMAND_TIMEOUT_S)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.decode().strip()}")
    return wall


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def work_rates(p: Pass, golden: dict) -> tuple[float, float]:
    """Golden work units (ideals listed, poset nodes, suite checks) per
    second, and per calibration time, of the commands that produce them."""
    units = seconds = rel = 0.0
    for o in p.outcomes:
        n = golden.get(command_key(o.argv), {}).get("units")
        if n is not None and o.error is None:
            units += n
            seconds += o.wall_s
            rel += o.rel
    return (units / seconds, units / rel) if seconds else (0.0, 0.0)


WORK_UNIT = {"enumerate": "ideals_per_s", "closure": "poset_nodes_per_s", "crosscheck": "checks_per_s"}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def end_to_end(workload: str, seed: int, seconds: int, golden: dict):
    commands = workloads.draw(workload, seed)
    start = perf_counter()
    deadline = start + HARD_BUDGET_S
    setups = [measure_setup(workloads.systems(commands)) for _ in range(SETUP_REPS)]
    t_measure = perf_counter()
    passes = []
    while True:
        p = run_pass(commands, golden, deadline)
        passes.append(p)
        elapsed = perf_counter() - t_measure
        if elapsed + elapsed / len(passes) > seconds:
            break
    outcomes = [o for p in passes for o in p.outcomes]
    walls = [o.wall_s for o in outcomes]
    rels = [o.rel for o in outcomes]
    rates = [work_rates(p, golden) for p in passes]
    # Gated: set-up, memory, and times in units of the calibration taken
    # just before each command, which cancels the drift of a shared
    # machine's speed.  The wall-clock figures are reported alongside.
    gated = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "run_rel": (statistics.median(p.run_rel for p in passes), "cal", len(passes)),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB", len(outcomes)),
        "work_rel": (statistics.median(r[1] for r in rates), "1/cal", len(passes)),
    }
    # Reported, not gated: a single command's ratio carries the noise of
    # the command and of its calibration, which a pass sum averages out,
    # and with 15-30 commands a run has no ten samples beyond p95.
    reported = {
        "cmd_rel.p50": (percentile(rels, 50), "cal", len(rels)),
        "cmd_rel.p95": (percentile(rels, 95), "cal", len(rels)),
        "run_s": (statistics.median(p.run_s for p in passes), "s", len(passes)),
        "cmd_s.p50": (percentile(walls, 50), "s", len(walls)),
        "cmd_s.p95": (percentile(walls, 95), "s", len(walls)),
        WORK_UNIT[workload]: (statistics.median(r[0] for r in rates), "1/s", len(passes)),
        "calibration_s": (statistics.median(o.cal_s for o in outcomes), "s", len(outcomes)),
    }
    failed = [o for o in outcomes if o.error]
    print(f"workload {workload} seed {seed}: {len(commands)} commands per pass, {len(passes)} passes")
    for k, argv in enumerate(commands):
        times = " ".join(f"{p.outcomes[k].wall_s:.3f}" for p in passes)
        print(f"  borbits {command_key(argv)}: wall_s {times}")
    for name, (value, unit, n) in {**gated, **reported}.items():
        print(f"  {name:<18} {value:12.4f} {unit:<5} n={n}")
    print(f"  {'error_rate':<18} {len(failed) / len(outcomes):12.4f} {'':<5} n={len(outcomes)}")
    return outcomes, failed, {k: (v, u) for k, (v, u, _) in gated.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict], outcomes: list[Outcome], overhead_s: float) -> dict:
    """Per-layer metrics from the summed tracer payloads of one pass."""
    stats: dict[str, list] = {}
    distinct: dict[str, int] = {}
    extra: dict[str, int] = {}
    for t in traces:
        for name, s in t["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for k in range(4):
                acc[k] += s[k]
        for name, n in t["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n
        for name, n in t["extra"].items():
            extra[name] = extra.get(name, 0) + n

    def st(name):
        return stats.get(name, [0, 0.0, 0.0, 0])

    m: dict[str, tuple] = {}
    for f in ("act", "multiply", "inverse", "reduced_word", "inversions_from_negative", "bruhat_leq"):
        m[f"affine.{f}.calls"] = (st(f"affine.{f}")[0], "count")
        m[f"affine.{f}.self_s"] = (st(f"affine.{f}")[2], "s")
    m["affine.length.calls"] = (st("affine.length")[0], "count")
    m["affine.length.hit_ratio"] = (_ratio(st("affine.length")[3], st("affine.length")[0]), "ratio")
    m["affine.bruhat_leq.hit_ratio"] = (_ratio(st("affine.bruhat_leq")[3], st("affine.bruhat_leq")[0]), "ratio")
    em = st("minuscule.enumerate_minuscule")
    m["minuscule.enumerate_minuscule.calls"] = (em[0], "count")
    m["minuscule.enumerate_minuscule.self_s"] = (em[2], "s")
    m["minuscule.enumerate_minuscule.repeat_ratio"] = (_ratio(em[0], distinct.get("minuscule.enumerate_minuscule", 0)), "ratio")
    for f in ("minuscule_from_element", "enumerate_abelian_ideals", "normalizer_simple_roots"):
        m[f"minuscule.{f}.self_s"] = (st(f"minuscule.{f}")[2], "s")
    m["minuscule.weak_order_leq.calls"] = (st("minuscule.weak_order_leq")[0], "count")
    for f in ("orthogonal_subsets", "reflection_product", "sigma_of_pair", "involution_length", "descent_move", "twisted_conjugate"):
        m[f"involutions.{f}.calls"] = (st(f"involutions.{f}")[0], "count")
        m[f"involutions.{f}.self_s"] = (st(f"involutions.{f}")[2], "s")
    os_ = st("involutions.orthogonal_subsets")
    m["involutions.orthogonal_subsets.repeat_ratio"] = (_ratio(os_[0], distinct.get("involutions.orthogonal_subsets", 0)), "ratio")
    bp = st("orbits.build_orbit_poset")
    m["orbits.build_orbit_poset.calls"] = (bp[0], "count")
    m["orbits.build_orbit_poset.self_s"] = (bp[2], "s")
    m["orbits.build_orbit_poset.nodes"] = (extra.get("orbits.build_orbit_poset.nodes", 0), "count")
    m["orbits.build_orbit_poset.pairs"] = (extra.get("orbits.build_orbit_poset.pairs", 0), "count")
    for f in ("export_poset", "verify_strong_form", "verify_phi_equivalence", "verify_moves_vs_order", "verify_branch_recursion"):
        m[f"orbits.{f}.self_s"] = (st(f"orbits.{f}")[2], "s")
    for suite in ("minuscule", "involutions", "poset", "strong-form", "phi"):
        m[f"suites.run_suite.{suite}.total_s"] = (st(f"suites.run_suite.{suite}")[1], "s")
    m["suites.checks"] = (extra.get("suites.checks", 0), "count")
    m["typea.oracle_report.total_s"] = (st("typea.oracle_report")[1], "s")
    m["typea.enumerate_orbits.self_s"] = (st("typea.enumerate_orbits")[2], "s")
    m["typea.enumerate_orbits.elements"] = (extra.get("typea.enumerate_orbits.elements", 0), "count")
    m["roots.build_root_system.total_s"] = (st("roots.build_root_system")[1], "s")
    m["roots.pairing_with_simple_coroot.calls"] = (st("roots.pairing_with_simple_coroot")[0], "count")
    m["cli.main.total_s"] = (st("cli.main")[1], "s")
    m["cli.output_bytes"] = (sum(len(o.stdout) for o in outcomes), "B")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def read_trace(o: Outcome) -> dict | None:
    for line in reversed(o.stderr.decode(errors="replace").splitlines()):
        if line.startswith(tracer.MARKER):
            return json.loads(line[len(tracer.MARKER):])
    return None


def per_layer(workload: str, seed: int, golden: dict):
    commands = workloads.draw(workload, seed)
    deadline = perf_counter() + HARD_BUDGET_S
    plain = run_pass(commands, golden, deadline)
    traced = run_pass(commands, golden, deadline, traced=True)
    traces = []
    for o in traced.outcomes:
        t = read_trace(o)
        if t is None:
            o.error = o.error or "traced run printed no trace"
        else:
            traces.append(t)
    metrics = layer_metrics(traces, traced.outcomes, traced.run_s - plain.run_s)
    verifies = [o for o in traced.outcomes if o.argv[0] == "verify"]
    pinned = sum(golden.get(command_key(o.argv), {}).get("units", 0) for o in verifies)
    if verifies and metrics["suites.checks"][0] != pinned:
        verifies[0].error = verifies[0].error or f"traced suites.checks {metrics['suites.checks'][0]} != pinned {pinned}"
    outcomes = plain.outcomes + traced.outcomes
    failed = [o for o in outcomes if o.error]
    print(f"workload {workload} seed {seed} traced: untraced run_s {plain.run_s:.4f}, traced run_s {traced.run_s:.4f}")
    for argv in commands:
        print(f"  borbits {command_key(argv)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14} {unit}")
    print(f"  {'error_rate':<48} {len(failed) / len(outcomes):>14}")
    return outcomes, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "borbits" / "__init__.py").is_file() or not GOLDEN_PATH.is_file():
        print(f"error: run from a borbits checkout; {SRC / 'borbits'} or {GOLDEN_PATH} is missing", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN_PATH.read_text())
    print("environment " + json.dumps(environment()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed_n = 0
    metrics_out = {}
    for name in names:
        if args.trace:
            outcomes, failed, metrics = per_layer(name, args.seed, golden)
        else:
            outcomes, failed, metrics = end_to_end(name, args.seed, args.seconds, golden)
        for o in failed:
            print(f"FAILED borbits {command_key(o.argv)}: {o.error}")
        attempted += len(outcomes)
        failed_n += len(failed)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in metrics.items():
            metrics_out[prefix + key] = {"value": value, "unit": unit}
    print("environment " + json.dumps(environment()))
    print(json.dumps({"correct": failed_n == 0, "attempted": attempted, "failed": failed_n, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
