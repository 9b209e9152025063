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


def test_ideals_loads_neither_dataclasses_nor_fractions():
    """The value classes on the `ideals` path are `__slots__` classes and no
    module of the package imports `fractions`, so the command loads none of
    `dataclasses`, `inspect` (which `dataclasses` imports) or `fractions`."""
    code, loaded = _child("""
        import contextlib, io, json, sys
        from borbits import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["ideals", "--type", "B", "--rank", "3"])
        print(json.dumps([code, [m for m in ("dataclasses", "inspect", "fractions") if m in sys.modules]]))
    """)
    assert code == 0
    assert loaded == []


def test_orbit_commands_load_neither_dataclasses_nor_inspect():
    """The value classes of the involution, orbit and type-A layers are
    `__slots__` classes too, so no command loads `dataclasses` or `inspect`."""
    for argv in (
        ["orbits", "--type", "A", "--rank", "3", "--ideal-id", "4"],
        ["poset", "--type", "B", "--rank", "3", "--ideal-id", "5", "--format", "dot"],
        ["verify", "--type", "B", "--rank", "2", "--suite", "all"],
        ["oracle-typea", "--n", "3", "--ideal-id", "2", "--q", "2"],
    ):
        code, loaded = _child(f"""
            import contextlib, io, json, sys
            from borbits import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main({argv!r})
            print(json.dumps([code, [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
        """)
        assert code == 0, argv
        assert loaded == [], argv


def test_building_a_group_does_not_load_fractions():
    loaded = _child("""
        import json, sys
        from borbits.affine import AffineWeylGroup
        from borbits.roots import build_root_system
        for letter, rank in (("A", 3), ("B", 4), ("G", 2), ("E", 6)):
            AffineWeylGroup(build_root_system(letter, rank))
        print(json.dumps("fractions" in sys.modules))
    """)
    assert loaded is False


def test_epsilon_parsing_still_solves_exactly():
    """Epsilon expressions are looked up among the roots' epsilon
    coordinates, so parsing them loads `fractions` neither before nor
    after."""
    parsed = _child("""
        import json, sys
        from borbits.roots import build_root_system, root_text
        rs = build_root_system("B", 3)
        before = "fractions" in sys.modules
        roots = [root_text(rs.epsilon_to_root(e)) for e in ("e1-e3", "e2+e3", "e3", "e1-e2")]
        print(json.dumps([before, roots, "fractions" in sys.modules]))
    """)
    assert parsed == [False, ["1,1,0", "0,1,2", "0,0,1", "1,0,0"], False]


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
    assert count == 19
    assert own
    assert unbound == []
    assert missing
