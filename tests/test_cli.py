"""Command line behaviour: outputs, exit codes, determinism."""

import json
import time

import pytest

from borbits.cli import main


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
    from borbits.involutions import Report

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


def test_module_entry_point_round_trip():
    """Fresh interpreters must produce byte-identical output too.  The child
    finds the package through PYTHONPATH, so this runs from a clean checkout
    without an install."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "borbits", "poset", "--type", "B", "--rank", "2",
           "--ideal-id", "3", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["context"]["type"] == "B"


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
