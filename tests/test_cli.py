"""Command line behaviour: outputs, exit codes, determinism."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from borbits.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ideals_a2_rows(capsys):
    code, out, _ = run(capsys, "ideals", "--type", "A", "--rank", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_ideals_json(capsys):
    code, out, _ = run(capsys, "ideals", "--type", "A", "--rank", "2", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r["ideal_id"] for r in rows] == [0, 1, 2, 3]
    assert rows[1]["roots"] == ["1,1"]
    assert rows[2]["word"] == "1 0"
    assert rows[0]["normalizer"] == [1, 2]
    assert rows[1]["normalizer"] == []


def test_orbits_table(capsys):
    code, out, _ = run(
        capsys, "orbits", "--type", "A", "--rank", "2", "--ideal-id", "2", "--json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["dim"] for r in rows] == [0, 2, 1]
    assert rows[0]["S"] == []


def test_orbits_with_v(capsys):
    code, out, _ = run(
        capsys,
        "orbits", "--type", "A", "--rank", "2", "--ideal-id", "2",
        "--v", "0", "--json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["dim"] for r in rows] == [1, 2]


def test_poset_dot(capsys):
    code, out, _ = run(
        capsys,
        "poset", "--type", "A", "--rank", "2", "--ideal-id", "2", "--format", "dot",
    )
    assert code == 0
    assert out.count("label=") == 3
    assert out.count("->") == 2


def test_poset_json_and_determinism(capsys):
    args = ("poset", "--type", "A", "--rank", "2", "--ideal-id", "3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["context"]["ideal_id"] == 3
    code3, out3, _ = run(
        capsys,
        "poset", "--type", "A", "--rank", "2", "--ideal-id", "3",
        "--v", "0", "--format", "json",
    )
    assert code3 == 0
    assert json.loads(out3)["context"]["v_word"] == "0"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "2", "--suite", "minuscule")
    assert code == 0
    assert "SUITE minuscule: pass" in out


def test_verify_all_order(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "1", "--suite", "all")
    assert code == 0
    names = [line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("SUITE")]
    assert names == ["minuscule", "involutions", "poset", "strong-form", "phi"]


def test_oracle_typea(capsys):
    code, out, _ = run(
        capsys, "oracle-typea", "--n", "3", "--ideal-id", "3", "--q", "2,3"
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["q"] for r in reports] == [2, 3]
    assert reports[0]["ideal"] == [[1, 2], [1, 3]]
    assert reports[0]["classes"] == reports[0]["combinatorial"] == 3
    assert reports[0]["dims"]["{}"] == 0


def test_usage_errors(capsys):
    assert run(capsys, "ideals", "--type", "H", "--rank", "2")[0] == 2
    assert run(capsys, "ideals", "--type", "A", "--rank", "2", "--bogus")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "ideals", "--type", "A", "--rank", "99")[0] == 2
    assert run(capsys, "orbits", "--type", "A", "--rank", "2", "--ideal-id", "77")[0] == 2
    assert run(
        capsys,
        "orbits", "--type", "A", "--rank", "2", "--ideal-id", "2", "--v", "2 0",
    )[0] == 2  # s2s0 is not below ideal 2
    assert run(capsys, "poset", "--type", "A", "--rank", "2", "--ideal-id", "0", "--format", "pdf")[0] == 2
    assert run(capsys, "oracle-typea", "--n", "3", "--ideal-id", "0", "--q", "4")[0] == 2
    assert run(capsys, "oracle-typea", "--n", "3", "--ideal-id", "9", "--q", "2")[0] == 2
    for primes in (",", "2,x"):
        code, out, err = run(capsys, "oracle-typea", "--n", "3", "--ideal-id", "2", "--q", primes)
        assert (code, out, err) == (2, "", f"error: --q takes comma separated primes, not {primes!r}\n")
    for command, word in (("orbits", "x"), ("poset", "0,1")):
        extra = ("--format", "dot") if command == "poset" else ()
        argv = (command, "--type", "A", "--rank", "2", "--ideal-id", "2", "--v", word, *extra)
        refusal = f"error: --v takes simple indices separated by spaces, not {word!r}\n"
        assert run(capsys, *argv) == (2, "", refusal)
    # s1 s1 is the identity and s0 s1 s1 is s0: a word longer than its
    # element is refused, not read as the element
    for command, word in (("orbits", "1 1"), ("poset", "0 1 1")):
        extra = ("--format", "dot") if command == "poset" else ()
        argv = (command, "--type", "A", "--rank", "2", "--ideal-id", "3", "--v", word, *extra)
        assert run(capsys, *argv) == (2, "", f"error: --v {word!r} is not a reduced word\n")


# a full command line of each command, as (flag, value) pairs; value None
# marks a flag that takes none
COMPLETE = {
    "ideals": (("--type", "A"), ("--rank", "2"), ("--json", None)),
    "orbits": (("--type", "A"), ("--rank", "2"), ("--ideal-id", "2"), ("--v", "0"), ("--json", None)),
    "poset": (("--type", "A"), ("--rank", "2"), ("--ideal-id", "3"), ("--v", "0"), ("--format", "json")),
    "verify": (("--type", "A"), ("--rank", "1"), ("--suite", "phi")),
    "oracle-typea": (("--n", "3"), ("--ideal-id", "2"), ("--q", "2")),
}
REQUIRED = {
    "ideals": ("--type", "--rank"),
    "orbits": ("--type", "--rank", "--ideal-id"),
    "poset": ("--type", "--rank", "--ideal-id", "--format"),
    "verify": ("--type", "--rank", "--suite"),
    "oracle-typea": ("--n", "--ideal-id", "--q"),
}


def _argv(command, pairs, joined=False):
    out = [command]
    for flag, value in pairs:
        if value is None:
            out.append(flag)
        elif joined:
            out.append(f"{flag}={value}")
        else:
            out += [flag, value]
    return out


def _refused(capsys, argv):
    """A usage error: exit 2, nothing on stdout, and on stderr a usage line
    and an error line."""
    code, out, err = run(capsys, *argv)
    lines = err.splitlines()
    assert (code, out, len(lines)) == (2, "", 2), argv
    assert lines[0].startswith("usage: borbits"), argv
    assert lines[1].startswith("borbits: error: "), argv
    return lines[1]


def test_missing_and_unknown_options_are_usage_errors(capsys):
    """Every command line the old parser refused still exits 2, with nothing
    on stdout and a usage line and an error line on stderr: each required
    option left out, an unknown or abbreviated option (abbreviations are not
    expanded), a bad choice, a value that is not an integer, an option with
    no value, a value on the JSON flag, and no command or an unknown one."""
    for command, pairs in COMPLETE.items():
        for flag in REQUIRED[command]:
            kept = [(f, v) for f, v in pairs if f != flag]
            assert flag in _refused(capsys, _argv(command, kept)), (command, flag)
        assert "--bogus" in _refused(capsys, _argv(command, pairs) + ["--bogus"])
        assert "stray" in _refused(capsys, _argv(command, pairs) + ["stray"])
        assert "expected one argument" in _refused(capsys, _argv(command, pairs) + [pairs[1][0]])
    for argv in (
        ["ideals", "--type", "H", "--rank", "2"],
        ["ideals", "--type", "a", "--rank", "2"],
        ["ideals", "--type", "A", "--ran", "2"],
        ["ideals", "--type", "A", "--rank", "x"],
        ["ideals", "--type", "A", "--rank=2.0"],
        ["ideals", "--type", "A", "--rank", "--json"],
        ["ideals", "--type", "A", "--rank", "2", "--json=yes"],
        ["poset", "--type", "A", "--rank", "2", "--ideal-id", "0", "--format", "pdf"],
        ["verify", "--type", "B", "--rank", "2", "--suite", "every"],
        ["verify", "--type", "B"],
        ["oracle-typea", "--n", "5", "--ideal-id", "0", "--q", "2"],
        ["oracle-typea", "--n", "three", "--ideal-id", "0", "--q", "2"],
        ["nonsense"],
        ["--type", "A"],
        [],
    ):
        _refused(capsys, argv)


def test_joined_reordered_and_repeated_options_give_the_same_bytes(capsys):
    """`--opt=value` is `--opt value`, options come in any order, and the
    last of a repeated option wins."""
    for command, pairs in COMPLETE.items():
        expected = run(capsys, *_argv(command, pairs))
        assert expected[0] == 0 and expected[1], command
        assert run(capsys, *_argv(command, pairs, joined=True)) == expected, command
        assert run(capsys, *_argv(command, pairs[::-1])) == expected, command
        first = pairs[0][0]
        repeated = _argv(command, [(first, "2" if first == "--n" else "B"), *pairs])
        assert run(capsys, *repeated) == expected, command


def test_a_negative_ideal_id_reaches_the_range_check(capsys):
    """A negative number after an option is its value, not an option, so
    `--ideal-id -1` is refused by the range check, as argparse let it."""
    for argv in (
        ["orbits", "--type", "A", "--rank", "2", "--ideal-id", "-1"],
        ["poset", "--type", "A", "--rank", "2", "--ideal-id", "-1", "--format", "dot"],
        ["poset", "--type", "A", "--rank", "2", "--ideal-id=-1", "--format", "dot"],
    ):
        assert run(capsys, *argv) == (2, "", "error: ideal id -1 out of range (0..3)\n")


def test_help_names_every_command_and_option(capsys):
    """`--help` at the top level names every command, and after a command
    every option of that command's table entry; it goes to stdout and
    exits 0, wherever it stands on the command line."""
    from borbits.cli import COMMANDS

    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: borbits")
    assert all(command in out for command in COMMANDS)
    for command, (_, options) in COMMANDS.items():
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "") and out.startswith(f"usage: borbits {command} "), command
        assert all(flag in out for flag, *_ in options), command
        assert run(capsys, *_argv(command, COMPLETE[command]), "-h") == (0, out, ""), command


def test_oracle_typea_refuses_repeated_primes(capsys):
    """Equal primes would feed the log fit sizes from one field; the oracle
    exits 2 with one line and prints no report."""
    for primes in ("2,2", "3,5,5"):
        code, out, err = run(capsys, "oracle-typea", "--n", "3", "--ideal-id", "2", "--q", primes)
        assert (code, out, err) == (2, "", "error: the primes in q must be distinct\n")


def test_walks_past_the_minuscule_cap_are_refused_at_once(capsys, monkeypatch):
    """A19 has 2^19 minuscule elements and A64 has 2^64, both past
    MINUSCULE_CAP: the walk refuses before it takes a step, `ideals` exits 2
    with one line before it builds the root system, and `verify` exits 2
    at its first walking suite, while its phi suite, which does not walk,
    still runs on B19.  The cap test never computes 2^rank, so a rank of
    10^9 is refused as fast as A19."""
    from borbits import cli
    from borbits.affine import AffineWeylGroup
    from borbits.minuscule import MINUSCULE_CAP, _check_cap, enumerate_minuscule
    from borbits.roots import build_root_system

    assert 2**18 <= MINUSCULE_CAP < 2**19
    _check_cap(18)
    group = AffineWeylGroup(build_root_system("A", 19))
    with pytest.raises(ValueError, match="exceed the enumeration cap"):
        enumerate_minuscule(group)
    assert group.identity._word is None

    refusal = "error: 2^19 minuscule elements exceed the enumeration cap\n"
    assert run(capsys, "verify", "--type", "A", "--rank", "19", "--suite", "all") == (2, "", refusal)
    assert run(capsys, "verify", "--type", "B", "--rank", "19", "--suite", "phi")[:2] == (
        0, "SUITE phi: pass (3192 checks)\n"
    )

    def unbuilt(*args):
        raise AssertionError("the root system was built")

    monkeypatch.setattr(cli, "build_root_system", unbuilt)
    for rank in ("19", "64", str(10**9)):
        start = time.perf_counter()
        code, out, err = run(capsys, "ideals", "--type", "A", "--rank", rank)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: 2^{rank} minuscule elements exceed the enumeration cap\n"


def test_verify_failure_exits_one(capsys, monkeypatch):
    from borbits.suites import Report

    def broken(group, name):
        return [Report(name, 1, ("planted violation",))]

    monkeypatch.setattr("borbits.suites.run_suite", broken)
    code, out, _ = run(capsys, "verify", "--type", "A", "--rank", "1", "--suite", "minuscule")
    assert code == 1
    assert "SUITE minuscule: FAIL (1 checks)" in out
    assert "planted violation" in out


def test_byte_identical_across_runs(capsys):
    args = ("ideals", "--type", "D", "--rank", "4", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def _module_env():
    """A child's environment: the package found through PYTHONPATH, and
    stdout buffered, as it is by default when it is a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _module_run(*argv, code=None):
    """Run `python -m borbits argv` (or the code given) in a fresh
    interpreter; stdout and stderr are read through pipes, as bytes."""
    prog = ["-c", code] if code is not None else ["-m", "borbits"]
    return subprocess.run([sys.executable, *prog, *argv], capture_output=True, env=_module_env())


def test_module_entry_point_round_trip():
    """Fresh interpreters must produce byte-identical output too.  The child
    finds the package through PYTHONPATH, so this runs from a clean checkout
    without an install."""
    argv = ("poset", "--type", "B", "--rank", "2", "--ideal-id", "3", "--format", "json")
    first, second = _module_run(*argv), _module_run(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["context"]["type"] == "B"


def test_module_entry_point_flushes_before_it_exits(capsys):
    """The entry point ends the process with os._exit after its last flush,
    so A9's 172 KB of rows and the help text, which `main` prints without
    a flush of its own, read through a pipe, must be the
    same bytes as the in-process `main` prints, and a usage error must
    still exit 2 with its one line on stderr."""
    for argv in (("ideals", "--type", "A", "--rank", "9"), ("--help",)):
        code, out, err = run(capsys, *argv)
        proc = _module_run(*argv)
        assert (code, err) == (0, ""), argv
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b""), argv
    proc = _module_run("orbits", "--type", "A", "--rank", "2", "--ideal-id", "3", "--v", "1 1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: --v '1 1' is not a reduced word\n")


def test_a_closed_pipe_at_the_last_flush_exits_141():
    """`main` prints the help text without a flush and returns 0,
    so a reader that is already gone is met at `run`'s own flush: exit 141
    and nothing on stderr, where the interpreter's flush at exit printed
    an ignored BrokenPipeError and exited 120."""
    cmd = [sys.executable, "-m", "borbits", "--help"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env()) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


def test_run_skips_the_teardown_but_not_a_traceback():
    """`run` ends the process without the interpreter's teardown, so an
    atexit hook never runs; an exception that escapes `main` still takes
    the normal exit, with its traceback and exit 1."""
    proc = _module_run(code=(
        "import atexit\n"
        "from borbits import cli\n"
        "atexit.register(print, 'teardown')\n"
        "cli.run(['ideals', '--type', 'A', '--rank', '1'])\n"
    ))
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().splitlines() == [
        "0  ideal={}  word=e  length=0  normalizer={1}",
        "1  ideal={1}  word=s0  length=1  normalizer={}",
    ]
    proc = _module_run(code=(
        "from borbits import cli\n"
        "def broken(args):\n"
        "    raise RuntimeError('planted')\n"
        "cli._cmd_ideals = broken\n"
        "cli.run(['ideals', '--type', 'A', '--rank', '1'])\n"
    ))
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines()[-1] == "RuntimeError: planted"


def test_run_flushes_only_the_streams_that_exist():
    """A process started with fd 2 (or fd 1) closed has sys.stderr (or
    sys.stdout) set to None; `run` must skip that stream, not fail on it,
    and exit 0 as a plain `sys.exit(main())` did."""
    for argv, redirect in (
        ("ideals --type A --rank 2", "2>&-"),
        ("--help", ">&-"),
        ("--help", ">&- 2>&-"),
    ):
        proc = subprocess.run(
            ["sh", "-c", f'"$0" -m borbits {argv} {redirect}', sys.executable],
            capture_output=redirect == "2>&-", env=_module_env(),
        )
        assert proc.returncode == 0, (argv, redirect, proc.stderr)


def test_run_takes_the_normal_exit_under_a_profiler():
    """A profiler or tracer writes its report at interpreter exit, so with
    one hooked in `run` exits through the interpreter: `python -m cProfile
    -m borbits` prints its statistics after the command's output, and a
    usage error under a tracer still exits 2 after the atexit hooks ran."""
    proc = _module_run(code=(
        "import runpy, sys\n"
        "sys.argv = ['cProfile', '-m', 'borbits', 'ideals', '--type', 'A', '--rank', '1']\n"
        "runpy.run_module('cProfile', run_name='__main__')\n"
    ))
    out = proc.stdout.decode()
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.startswith("0  ideal={}  word=e  length=0  normalizer={1}\n")
    assert "function calls" in out
    proc = _module_run(code=(
        "import atexit, sys\n"
        "from borbits import cli\n"
        "atexit.register(print, 'teardown')\n"
        "sys.settrace(lambda *a: None)\n"
        "cli.run(['ideals', '--type', 'A', '--rank', '0'])\n"
    ))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"teardown\n", b"error: type A does not admit rank 0\n"
    )


def test_console_script_and_module_share_the_entry_point():
    """`[project.scripts]` in pyproject.toml names the function that
    `__main__.py` calls, so `borbits` and `python -m borbits` end alike."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    module, func = re.search(
        r'^\[project\.scripts\]\nborbits = "([\w.]+):(\w+)"$', pyproject, re.M
    ).groups()
    tree = ast.parse((ROOT / "src" / "borbits" / "__main__.py").read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    called = [
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert module == "borbits.cli"
    assert imported == {("cli", func)}
    assert called == [func]


@pytest.mark.parametrize(
    "argv,first_line,unbuffered",
    [
        (("ideals", "--type", "A", "--rank", "9"), b"0  ideal={}  word=e", False),
        (("verify", "--type", "B", "--rank", "4", "--suite", "all"), b"SUITE minuscule: pass", True),
        (("verify", "--type", "B", "--rank", "3", "--suite", "strong-form"), None, False),
    ],
    ids=["ideals", "verify", "verify-unread"],
)
def test_a_closed_pipe_ends_with_exit_141_and_no_traceback(argv, first_line, unbuffered):
    """A reader that closes the pipe after the first line, as `| head -1`
    does, or before reading any, as `| head -0` does, ends the command with
    exit 141 (128 + SIGPIPE) and nothing on stderr.  A9's rows (172 KB)
    overrun the pipe while they are printed; verify prints one line per
    suite, so it runs unbuffered to meet the closed pipe at its second line,
    and buffered it meets it at the flush before exit."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "borbits", *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0) as proc:
        line = proc.stdout.readline() if first_line else None
        proc.stdout.close()
        err = proc.stderr.read()
    assert first_line is None or line.startswith(first_line)
    assert (proc.returncode, err) == (141, b"")
