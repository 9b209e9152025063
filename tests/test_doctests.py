"""The examples in the package docstrings run and still hold."""

import doctest
import importlib
import pkgutil

import borbits


def test_every_module_doctest_passes():
    modules = [borbits] + [
        importlib.import_module(f"borbits.{info.name}")
        for info in pkgutil.iter_modules(borbits.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    failed = attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 5
