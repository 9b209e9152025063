"""Per-layer tracing of one borbits CLI invocation, from outside the package.

Run as ``python3 perfbench/tracer.py <borbits argv...>`` with ``src`` on
PYTHONPATH.  It wraps the public functions of each layer (methods on the
class, module functions in every borbits module that imported them by
name), runs ``borbits.cli.main`` and prints one line

    PERFBENCH-TRACE {"stats": {...}, "distinct": {...}, "extra": {...}}

to standard error after the command has finished.  Standard output is left
to the CLI untouched, so the benchmark checks it against the same golden
digests as an untraced run.

Every wrapped call is a span: its duration goes to its own totals and to
the child time of the span below it on the calling thread's stack, so
self time is duration minus child spans.  Spans are aggregated into
per-thread counters as they close rather than stored one by one, because
the hot primitives (``act``, ``multiply``) run millions of times; the
counters of all threads are summed at exit.  ``verify --suite all`` runs
its suites on a thread pool, which is why stacks and counters are per
thread: a shared counter would lose increments between threads.
``RootSystem.pairing_with_simple_coroot`` is only counted.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from time import perf_counter

MARKER = "PERFBENCH-TRACE "

# (module, attribute) of every spanned callable, named "<module>.<function>".
SPANNED = [
    ("roots", "build_root_system"),
    ("affine", "AffineWeylGroup.act"),
    ("affine", "AffineWeylGroup.multiply"),
    ("affine", "AffineWeylGroup.inverse"),
    ("affine", "AffineWeylGroup.length"),
    ("affine", "AffineWeylGroup.reduced_word"),
    ("affine", "AffineWeylGroup.inversions_from_negative"),
    ("affine", "AffineWeylGroup.bruhat_leq"),
    ("minuscule", "enumerate_minuscule"),
    ("minuscule", "minuscule_from_element"),
    ("minuscule", "enumerate_abelian_ideals"),
    ("minuscule", "normalizer_simple_roots"),
    ("minuscule", "weak_order_leq"),
    ("involutions", "orthogonal_subsets"),
    ("involutions", "reflection_product"),
    ("involutions", "sigma_of_pair"),
    ("involutions", "involution_length"),
    ("involutions", "descent_move"),
    ("involutions", "twisted_conjugate"),
    ("orbits", "build_orbit_poset"),
    ("orbits", "export_poset"),
    ("orbits", "verify_strong_form"),
    ("orbits", "verify_phi_equivalence"),
    ("orbits", "verify_moves_vs_order"),
    ("orbits", "verify_branch_recursion"),
    ("suites", "run_suite"),
    ("typea", "oracle_report"),
    ("typea", "enumerate_orbits"),
    ("cli", "main"),
]
COUNTED = [("roots", "RootSystem.pairing_with_simple_coroot")]


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []  # [child_seconds, child_calls] per open span
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, leaf_calls]
        self.distinct: dict[str, set] = {}
        self.extra: dict[str, int] = {}
        # The local object is shared; register this thread's own containers.
        _THREADS.append((self.stats, self.distinct, self.extra))


_THREADS: list[tuple[dict, dict, dict]] = []
_STATE = _ThreadState()


# Distinct-input keys for the repeat ratios (calls / distinct inputs).
def _group_key(args, kwargs):
    return id(args[0])


def _subset_key(args, kwargs):
    # every caller passes a collection, never a one-shot iterator
    return (id(args[0]), frozenset(args[1]))


DISTINCT = {
    "minuscule.enumerate_minuscule": _group_key,
    "involutions.orthogonal_subsets": _subset_key,
}


# Exact work counts read off results.
def _poset_work(args, kwargs, result, extra):
    n = len(result.nodes)
    extra["orbits.build_orbit_poset.nodes"] = extra.get("orbits.build_orbit_poset.nodes", 0) + n
    extra["orbits.build_orbit_poset.pairs"] = extra.get("orbits.build_orbit_poset.pairs", 0) + n * n


def _suite_checks(args, kwargs, result, extra):
    extra["suites.checks"] = extra.get("suites.checks", 0) + sum(r.checks for r in result)


def _orbit_elements(args, kwargs, result, extra):
    n = args[0].element_count
    extra["typea.enumerate_orbits.elements"] = extra.get("typea.enumerate_orbits.elements", 0) + n


WORK = {
    "orbits.build_orbit_poset": _poset_work,
    "suites.run_suite": _suite_checks,
    "typea.enumerate_orbits": _orbit_elements,
}


def _spanned(name: str, fn):
    key_of = DISTINCT.get(name)
    work = WORK.get(name)
    per_suite = name == "suites.run_suite"

    def wrapper(*args, **kwargs):
        ts = _STATE
        if key_of is not None:
            ts.distinct.setdefault(name, set()).add(key_of(args, kwargs))
        label = f"{name}.{args[1]}" if per_suite else name
        stack = ts.stack
        frame = [0.0, 0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1
            s = ts.stats.get(label)
            if s is None:
                s = ts.stats[label] = [0, 0.0, 0.0, 0]
            s[0] += 1
            s[1] += dt
            s[2] += dt - frame[0]
            if not frame[1]:
                s[3] += 1
        if work is not None:
            work(args, kwargs, result, ts.extra)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(name: str, fn):
    def wrapper(*args, **kwargs):
        stats = _STATE.stats
        s = stats.get(name)
        if s is None:
            s = stats[name] = [0, 0.0, 0.0, 0]
        s[0] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def install() -> None:
    """Replace every traced callable, on its class or in every borbits
    module that bound it by name, with its wrapper."""
    modules = {
        m: importlib.import_module(f"borbits.{m}")
        for m in ("roots", "affine", "minuscule", "involutions", "orbits", "typea", "suites", "cli")
    }
    modules["__init__"] = importlib.import_module("borbits")
    for specs, make in ((SPANNED, _spanned), (COUNTED, _counted)):
        for module, attr in specs:
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[module], cls_name)
                setattr(cls, meth, make(name, getattr(cls, meth)))
                continue
            original = getattr(modules[module], attr)
            wrapped = make(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def collect() -> dict:
    """Sum the counters of every thread that ran a traced call."""
    stats: dict[str, list] = {}
    distinct: dict[str, set] = {}
    extra: dict[str, int] = {}
    for t_stats, t_distinct, t_extra in list(_THREADS):
        for name, s in t_stats.items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for k in range(4):
                acc[k] += s[k]
        for name, keys in t_distinct.items():
            distinct.setdefault(name, set()).update(keys)
        for name, n in t_extra.items():
            extra[name] = extra.get(name, 0) + n
    return {
        "stats": stats,
        "distinct": {name: len(keys) for name, keys in distinct.items()},
        "extra": extra,
    }


def main(argv: list[str]) -> int:
    install()
    from borbits import cli

    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(collect(), sort_keys=True) + "\n")
        sys.stderr.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
