"""Command line front end: enumeration, orbit tables, poset export,
verification suites, and the finite-field oracle."""

from __future__ import annotations

import argparse
import json
import sys

from .affine import AffineRoot, AffineWeylGroup, text_to_word, word_to_text
from .minuscule import normalizer_simple_roots, weak_order_leq
from .orbits import build_orbit_poset, export_poset, node_row
from .roots import build_root_system
from .suites import SUITE_NAMES, run_suite
from .typea import oracle_report

__all__ = ["main"]


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
    rs = build_root_system(args.type_letter, args.rank)
    return rs, AffineWeylGroup(rs)


def _resolve_minuscule(group, ideal_id: int):
    mins = group.minuscule
    if not 0 <= ideal_id < len(mins):
        raise ValueError(f"ideal id {ideal_id} out of range (0..{len(mins) - 1})")
    return mins[ideal_id]


def _resolve_v(group, text: str, w):
    word = text_to_word(text)
    for i in word:
        if not 0 <= i <= group.rank:
            raise ValueError(f"letter {i} out of range in the v word")
    k = group.minuscule_ids.get(group.evaluate_word(word))
    if k is None:
        raise ValueError("v is not minuscule")
    v = group.minuscule[k]
    if not weak_order_leq(v, w):
        raise ValueError("v is not below the chosen ideal")
    return v


def _cmd_ideals(args) -> int:
    _, group = _resolve_context(args)
    rows = []
    words = []
    for k, m in enumerate(group.minuscule):
        words.append(group.reduced_word(m.element))
        rows.append(
            {
                "ideal_id": k,
                "roots": [str(r) for r in m.ideal.roots],
                "word": word_to_text(words[-1]),
                "length": m.length,
                "normalizer": [
                    group.simple_index(AffineRoot(r, 0))
                    for r in normalizer_simple_roots(group, m)
                ],
            }
        )
    if args.json:
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
    rs, group = _resolve_context(args)
    w = _resolve_minuscule(group, args.ideal_id)
    v = _resolve_v(group, args.v, w)
    poset = build_orbit_poset(group, w, v)
    if args.json:
        print(json.dumps([node_row(node) for node in poset.nodes], indent=2))
    else:
        for node in poset.nodes:
            print(
                f"S={node.s}  sigma={_styled_word(node.sigma_word)}"
                f"  length={node.length}  L={node.big_l}  dim={node.dim}"
            )
    return 0


def _cmd_poset(args) -> int:
    rs, group = _resolve_context(args)
    w = _resolve_minuscule(group, args.ideal_id)
    v = _resolve_v(group, args.v, w)
    sys.stdout.write(export_poset(build_orbit_poset(group, w, v), args.format))
    return 0


def _cmd_verify(args) -> int:
    rs, group = _resolve_context(args)
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        reports = run_suite(group, name)
        checks = sum(r.checks for r in reports)
        ok = all(r.ok for r in reports)
        failed = failed or not ok
        for r in reports:
            for v in r.violations[:20]:
                print(f"  {r.name}: {v}")
        print(f"SUITE {name}: {'pass' if ok else 'FAIL'} ({checks} checks)")
    return 1 if failed else 0


def _cmd_oracle(args) -> int:
    q_list = tuple(int(p) for p in args.q.split(","))
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


if __name__ == "__main__":
    sys.exit(main())
