"""Command line front end: enumeration, orbit tables, poset export,
verification suites, and the finite-field oracle.

The options of every command come from one table, `COMMANDS`, which both
the parser and the help text read.  Parsing imports nothing: `--opt value`
and `--opt=value` are accepted in any order, the last of a repeated option
wins, and a refused command line prints a usage line and an error line on
stderr and exits 2.  Options are never abbreviated."""

from __future__ import annotations

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

_REQUIRED = None  # the default of an option that must be given

# An option is (flag, destination, converter, default, help).  The
# converter is int or str, a tuple of choices (the value is converted by
# the type of the choices and must be one of them), or None for a flag that
# takes no value and is True when given.
_SYSTEM = (
    ("--type", "type_letter", tuple("ABCDEFG"), _REQUIRED, "type of the root system"),
    ("--rank", "rank", int, _REQUIRED, "rank of the root system"),
)
_IDEAL_ID = ("--ideal-id", "ideal_id", int, _REQUIRED, "ideal id, as `ideals` numbers them")
_V = ("--v", "v", str, "", "reduced word of v, e.g. '1 0' (default: the identity)")
_JSON = ("--json", "json", None, False, "write JSON instead of text")

# command -> (one-line help, options)
COMMANDS = {
    "ideals": ("list abelian ideals", (*_SYSTEM, _JSON)),
    "orbits": ("orbit table of one ideal", (*_SYSTEM, _IDEAL_ID, _V, _JSON)),
    "poset": (
        "emit the closure order",
        (*_SYSTEM, _IDEAL_ID, _V, ("--format", "format", ("dot", "json"), _REQUIRED, "output format")),
    ),
    "verify": (
        "run a verification suite",
        (*_SYSTEM, ("--suite", "suite", (*SUITE_NAMES, "all"), _REQUIRED, "suite to run, or all of them in turn")),
    ),
    "oracle-typea": (
        "finite field oracle for type A",
        (
            ("--n", "n", (2, 3, 4), _REQUIRED, "size of the matrices, type A_{n-1}"),
            _IDEAL_ID,
            ("--q", "q", str, _REQUIRED, "comma separated primes, e.g. 2,3"),
        ),
    ),
}
_HELP = ("-h", "--help")


class _UsageError(Exception):
    """A command line the table refuses, with the command whose usage line
    goes with the message (None: the top level)."""

    def __init__(self, command, message: str):
        super().__init__(message)
        self.command = command


def _metavar(dest: str, kind) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(map(str, kind)) + "}"
    return dest.upper()


def _usage(command) -> str:
    if command is None:
        return "usage: borbits [-h] {" + ",".join(COMMANDS) + "} ..."
    parts = ["[-h]"]
    for flag, dest, kind, default, _ in COMMANDS[command][1]:
        part = flag if kind is None else f"{flag} {_metavar(dest, kind)}"
        parts.append(part if default is _REQUIRED else f"[{part}]")
    return f"usage: borbits {command} " + " ".join(parts)


def _help(command) -> str:
    if command is None:
        intro = "Borel orbit combinatorics of abelian ideals"
        heading, rows = "commands:", [(name, text) for name, (text, _) in COMMANDS.items()]
        outro = ["", "Run `borbits COMMAND --help` for the options of a command."]
    else:
        intro, options = COMMANDS[command]
        heading, outro = "options:", []
        rows = [
            (flag if kind is None else f"{flag} {_metavar(dest, kind)}", text)
            for flag, dest, kind, _, text in options
        ]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    lines = [_usage(command), "", intro, "", heading]
    lines += [f"  {left:<{width}}  {text}" for left, text in rows]
    return "\n".join(lines + outro)


def _convert(command: str, flag: str, kind, value: str):
    choices = kind if isinstance(kind, tuple) else None
    if choices:
        kind = type(choices[0])
    try:
        value = kind(value)
    except ValueError:
        raise _UsageError(command, f"argument {flag}: invalid {kind.__name__} value: {value!r}") from None
    if choices and value not in choices:
        listed = ", ".join(map(str, choices))
        raise _UsageError(command, f"argument {flag}: invalid choice: {value!r} (choose from {listed})")
    return value


def _parse(argv):
    """(command, options by destination) from the table; options None when
    help was asked for, and command None for the top level's help."""
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    command, *rest = argv
    if command in _HELP:
        return None, None
    if command not in COMMANDS:
        raise _UsageError(None, f"invalid choice: {command!r} (choose from {', '.join(COMMANDS)})")
    table = {option[0]: option for option in COMMANDS[command][1]}
    args = {dest: default for _, dest, _, default, _ in table.values()}
    unknown = []  # refused after the help and the required options, as argparse does
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return command, None
        flag, eq, value = token.partition("=")
        if flag not in table:
            unknown.append(token)
            continue
        _, dest, kind, _, _ = table[flag]
        if kind is None:
            if eq:
                raise _UsageError(command, f"argument {flag}: ignored explicit argument {value!r}")
            args[dest] = True
            continue
        if not eq:
            # a token that starts with '-' is the next option, unless it is
            # a negative number such as the -1 of `--ideal-id -1`
            value = next(tokens, None)
            if value is None or value.startswith("-") and not value[1:].isdecimal():
                raise _UsageError(command, f"argument {flag}: expected one argument")
        args[dest] = _convert(command, flag, kind, value)
    missing = [flag for flag, dest, _, _, _ in table.values() if args[dest] is _REQUIRED]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(unknown)}")
    return command, args


def _styled_word(word) -> str:
    if not word:
        return "e"
    return " ".join(f"s{i}" for i in word)


def _resolve_context(args):
    # ideals, orbits and poset walk the minuscule elements, so a walk past the
    # cap is refused before the build, which is slow at high rank; verify
    # leaves it to the walk, since the phi suite does not walk
    _check_cap(args["rank"])
    rs = build_root_system(args["type_letter"], args["rank"])
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
    if args["json"]:
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
    w = _resolve_minuscule(group, args["ideal_id"])
    v = _resolve_v(group, args["v"], w)
    poset = build_orbit_poset(group, w, v)
    if args["json"]:
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
    w = _resolve_minuscule(group, args["ideal_id"])
    v = _resolve_v(group, args["v"], w)
    sys.stdout.write(export_poset(build_orbit_poset(group, w, v), args["format"]))
    return 0


def _cmd_verify(args) -> int:
    from .suites import run_suite

    group = AffineWeylGroup(build_root_system(args["type_letter"], args["rank"]))
    names = list(SUITE_NAMES) if args["suite"] == "all" else [args["suite"]]
    failed = False
    for name in names:
        # every suite runs on the one group, so the minuscule walk, the gap,
        # sigma and pair tables built by one suite serve the next
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
    import json

    from .typea import oracle_report

    text = args["q"]
    try:
        q_list = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--q takes comma separated primes, not {text!r}") from None
    reports = oracle_report(args["n"], args["ideal_id"], q_list)
    print(json.dumps(reports, indent=2))
    return 0


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(_usage(exc.command), file=sys.stderr)
        print(f"borbits: error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(_help(command))
        return 0
    handlers = {
        "ideals": _cmd_ideals,
        "orbits": _cmd_orbits,
        "poset": _cmd_poset,
        "verify": _cmd_verify,
        "oracle-typea": _cmd_oracle,
    }
    try:
        return handlers[command](args)
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
