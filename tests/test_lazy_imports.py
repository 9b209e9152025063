"""Each command loads only the modules it runs.

`import borbits` resolves its public names on first access, and the CLI
imports the orbit layer, the suites and the type-A oracle inside the
commands that use them.  Every check runs in a fresh interpreter, because
this test process has long since imported every module.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child(code: str):
    """Run code in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(argv):
    """The borbits modules loaded after `cli.main(argv)`, and its exit code."""
    return _child(f"""
        import contextlib, io, json, sys
        from borbits import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main({argv!r})
        print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "borbits")]))
    """)


def test_ideals_loads_only_its_layers():
    code, modules = _modules_after(["ideals", "--type", "A", "--rank", "2"])
    assert code == 0
    assert modules == [
        "borbits", "borbits.affine", "borbits.cli", "borbits.minuscule", "borbits.roots",
    ]


def test_orbits_and_poset_load_neither_suites_nor_typea():
    for argv in (
        ["orbits", "--type", "A", "--rank", "2", "--ideal-id", "2"],
        ["poset", "--type", "A", "--rank", "2", "--ideal-id", "2", "--format", "json"],
    ):
        code, modules = _modules_after(argv)
        assert code == 0
        assert "borbits.orbits" in modules
        assert "borbits.suites" not in modules
        assert "borbits.typea" not in modules


def test_oracle_typea_loads_neither_orbits_nor_suites():
    code, modules = _modules_after(["oracle-typea", "--n", "3", "--ideal-id", "2", "--q", "2"])
    assert code == 0
    assert "borbits.typea" in modules
    assert "borbits.orbits" not in modules
    assert "borbits.suites" not in modules


def test_public_names_resolve_to_their_modules():
    count, own, unbound, missing = _child("""
        import importlib, json
        import borbits
        own = all(
            getattr(importlib.import_module(getattr(borbits, n).__module__), n)
            is getattr(borbits, n)
            for n in borbits.__all__
        )
        namespace = {}
        exec("from borbits import *", namespace)
        try:
            borbits.no_such_name
            missing = False
        except AttributeError:
            missing = True
        print(json.dumps([
            len(borbits.__all__),
            own,
            sorted(set(borbits.__all__) - set(namespace)),
            missing,
        ]))
    """)
    assert count == 27
    assert own
    assert unbound == []
    assert missing
