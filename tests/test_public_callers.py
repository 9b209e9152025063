"""Every public function of the package has a caller inside the package.

A public ``def`` (methods and nested functions included) whose name no
``Name`` or ``Attribute`` node of ``src/borbits`` reads is dead code.  The
only exceptions are the four functions that the benchmark tracer
(``perfbench/tracer.py``) spans or counts: they keep their names for it
alone.  The check is exact both ways, so it also fails when one of the four
gains a caller (it is then no longer an exception) or is deleted (the tracer
would fail to install).  The tracer also spans the four verify sweeps as
``orbits.verify_*``; they live in `suites`, and `orbits` forwards exactly
those names there, which is checked here too.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "borbits"

TRACER_ONLY = {"inverse", "inversions_from_negative", "sigma_of_pair", "pairing_with_simple_coroot"}


def _traced_orbits_names_not_defined() -> set[str]:
    """The tracer's ("orbits", name) spans that orbits.py does not define:
    the names the module forwards to `suites` for the tracer alone."""
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (spanned,) = [
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANNED"]
    ]
    orbits = ast.parse((SRC / "orbits.py").read_text())
    defined = {node.name for node in orbits.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return {attr for module, attr in spanned if module == "orbits"} - defined


def test_orbits_forwards_exactly_the_sweeps_the_tracer_names():
    from borbits import orbits, suites

    forwarded = _traced_orbits_names_not_defined()
    assert forwarded == orbits._FORWARDED
    for name in forwarded:
        assert getattr(orbits, name) is getattr(suites, name)
    for name in ("phi_apply", "phi_involution", "_UnionFind", "Report", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(orbits, name)


def test_no_test_imports_a_forwarded_name_from_orbits():
    """The forward serves the tracer alone: tests import the sweeps from
    `suites`, where they live."""
    forwarded = _traced_orbits_names_not_defined()
    offenders = [
        (path.name, alias.name)
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "borbits.orbits"
        for alias in node.names
        if alias.name in forwarded
    ]
    assert offenders == []


def uncalled(src: Path = SRC) -> set[str]:
    """The public function names defined under src that nothing there reads."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    defined = {
        node.name
        for node in nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in nodes
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return defined - read


def test_every_public_function_has_a_caller():
    assert uncalled() == TRACER_ONLY


def test_the_exceptions_are_the_ones_the_tracer_names():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = {
        node.value.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert TRACER_ONLY <= traced


def test_the_scan_sees_a_dead_function_and_a_new_caller(tmp_path):
    """The scan itself: a def that nothing reads is reported, and a def
    that is read, as a name or as an attribute, is not."""
    (tmp_path / "a.py").write_text("def dead():\n    pass\n\ndef used():\n    pass\n")
    (tmp_path / "b.py").write_text("import a\n\na.used()\n\ndef also():\n    also()\n")
    assert uncalled(tmp_path) == {"dead"}
