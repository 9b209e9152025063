"""Command line behaviour: outputs, exit codes, determinism."""

import json

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


def test_verify_failure_exits_one(capsys, monkeypatch):
    from borbits.involutions import Report

    def broken(group, name):
        return [Report(name, 1, ("planted violation",))]

    monkeypatch.setattr("borbits.cli.run_suite", broken)
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
