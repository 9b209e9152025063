"""Command line front end: enumeration, orbit tables, poset export,
verification suites, and the finite-field oracle."""

from __future__ import annotations

import argparse
import os
import sys

from . import SUITE_NAMES
from .affine import AffineWeylGroup, text_to_word, word_to_text
from .minuscule import _check_cap, ideal_from_mask, normalizer_simple_roots, weak_order_leq
from .roots import build_root_system, root_text

# orbits, suites and typea are imported inside the commands that run them,
# so `ideals` neither compiles nor loads them, and json inside the branches
# that write JSON, so no text output loads it.

__all__ = ["main", "run"]


def _styled_word(word) -> str:
    if not word:
        return "e"
    return " ".join(f"s{i}" for i in word)


def _add_system_args(sub) -> None:
    sub.add_argument("--type", required=True, choices=list("ABCDEFG"), dest="type_letter")
    sub.add_argument("--rank", required=True, type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="borbits",
        description="Borel orbit combinatorics of abelian ideals",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ideals", help="list abelian ideals")
    _add_system_args(p)
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("orbits", help="orbit table of one ideal")
    _add_system_args(p)
    p.add_argument("--ideal-id", required=True, type=int)
    p.add_argument("--v", default="", help="reduced word of v, e.g. '1 0'")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("poset", help="emit the closure order")
    _add_system_args(p)
    p.add_argument("--ideal-id", required=True, type=int)
    p.add_argument("--v", default="", help="reduced word of v, e.g. '1 0'")
    p.add_argument("--format", required=True, choices=["dot", "json"])

    p = subs.add_parser("verify", help="run a verification suite")
    _add_system_args(p)
    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])

    p = subs.add_parser("oracle-typea", help="finite field oracle for type A")
    p.add_argument("--n", required=True, type=int, choices=[2, 3, 4])
    p.add_argument("--ideal-id", required=True, type=int)
    p.add_argument("--q", required=True, help="comma separated primes, e.g. 2,3")
    return parser


def _resolve_context(args):
    # ideals, orbits and poset walk the minuscule elements, so a walk past the
    # cap is refused before the build, which is slow at high rank; verify
    # leaves it to the walk, since the phi suite does not walk
    _check_cap(args.rank)
    rs = build_root_system(args.type_letter, args.rank)
    return rs, AffineWeylGroup(rs)


def _resolve_minuscule(group, ideal_id: int):
    mins = group.minuscule
    if not 0 <= ideal_id < len(mins):
        raise ValueError(f"ideal id {ideal_id} out of range (0..{len(mins) - 1})")
    return mins[ideal_id]


def _resolve_v(group, text: str, w):
    try:
        word = text_to_word(text)
    except ValueError:
        raise ValueError(f"--v takes simple indices separated by spaces, not {text!r}") from None
    for i in word:
        if not 0 <= i <= group.rank:
            raise ValueError(f"letter {i} out of range in the v word")
    x = group.evaluate_word(word)
    if group.length(x) != len(word):
        raise ValueError(f"--v {text!r} is not a reduced word")
    k = group.minuscule_ids.get(x)
    if k is None:
        raise ValueError("v is not minuscule")
    v = group.minuscule[k]
    if not weak_order_leq(v, w):
        raise ValueError("v is not below the chosen ideal")
    return v


def _cmd_ideals(args) -> int:
    rs, group = _resolve_context(args)
    # each root's text and each simple root's number, once per system; the
    # normalizer goes through normalizer_simple_roots, a layer perfbench traces
    text = {r: root_text(r) for r in rs.positive_roots}
    number = {r: i for i, r in enumerate(rs.simple_roots, 1)}
    rows = []
    words = []
    for k, m in enumerate(group.minuscule):
        words.append(group.reduced_word(m.element))
        rows.append(
            {
                "ideal_id": k,
                "roots": [text[r] for r in ideal_from_mask(rs, m.mask)],
                "word": word_to_text(words[-1]),
                "length": m.length,
                "normalizer": [number[r] for r in normalizer_simple_roots(group, m)],
            }
        )
    if args.json:
        import json

        print(json.dumps(rows, indent=2))
    else:
        for row, word in zip(rows, words):
            ideal_txt = "{" + ";".join(row["roots"]) + "}"
            norm_txt = "{" + ",".join(str(i) for i in row["normalizer"]) + "}"
            print(
                f"{row['ideal_id']}  ideal={ideal_txt}  word={_styled_word(word)}"
                f"  length={row['length']}  normalizer={norm_txt}"
            )
    return 0


def _cmd_orbits(args) -> int:
    from .involutions import set_text
    from .orbits import build_orbit_poset, node_row

    rs, group = _resolve_context(args)
    w = _resolve_minuscule(group, args.ideal_id)
    v = _resolve_v(group, args.v, w)
    poset = build_orbit_poset(group, w, v)
    if args.json:
        import json

        print(json.dumps([node_row(node) for node in poset.nodes], indent=2))
    else:
        for node in poset.nodes:
            print(
                f"S={set_text(node.s)}  sigma={_styled_word(node.sigma_word)}"
                f"  length={node.length}  L={node.big_l}  dim={node.dim}"
            )
    return 0


def _cmd_poset(args) -> int:
    from .orbits import build_orbit_poset, export_poset

    rs, group = _resolve_context(args)
    w = _resolve_minuscule(group, args.ideal_id)
    v = _resolve_v(group, args.v, w)
    sys.stdout.write(export_poset(build_orbit_poset(group, w, v), args.format))
    return 0


def _cmd_verify(args) -> int:
    from .suites import run_suite

    rs = build_root_system(args.type_letter, args.rank)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        # a group per suite, so one suite's caches are freed before the next
        reports = run_suite(AffineWeylGroup(rs), name)
        checks = sum(r.checks for r in reports)
        ok = all(r.ok for r in reports)
        failed = failed or not ok
        for r in reports:
            for v in r.violations[:20]:
                print(f"  {r.name}: {v}")
        print(f"SUITE {name}: {'pass' if ok else 'FAIL'} ({checks} checks)")
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    import json

    from .typea import oracle_report

    try:
        q_list = tuple(int(p) for p in args.q.split(","))
    except ValueError:
        raise ValueError(f"--q takes comma separated primes, not {args.q!r}") from None
    reports = oracle_report(args.n, args.ideal_id, q_list)
    print(json.dumps(reports, indent=2))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "ideals": _cmd_ideals,
        "orbits": _cmd_orbits,
        "poset": _cmd_poset,
        "verify": _cmd_verify,
        "oracle-typea": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _observed() -> bool:
    """Whether a tracer or profiler (coverage, cProfile) is hooked in; such
    tools write their report at interpreter exit."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return bool(
        sys.gettrace() or sys.getprofile()
        or monitoring and any(monitoring.get_tool(i) for i in range(6))
    )


def run(argv=None):
    """Entry point of `borbits` and `python -m borbits`: run `main`, flush
    what it printed, and end the process there.  The interpreter's teardown
    (clearing every module and collecting what is still alive) is skipped,
    since nothing is left to write, unless a tracer or profiler waits for
    the normal exit.  A reader that is gone, met while printing or at the
    flush, ends the run with 141 (128 + SIGPIPE) and nothing on stderr; an
    exception that escapes `main` takes the normal exit and prints its
    traceback."""
    try:
        code = main(argv)
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with the fd closed
                stream.flush()
    except BrokenPipeError:
        code = 141
    if _observed():
        sys.exit(code)
    os._exit(code)

if __name__ == "__main__":
    run()
