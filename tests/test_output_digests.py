"""Pinned output of commands outside the benchmark's golden pool.

The benchmark checks its 78 commands against `perfbench/golden.json`; these
are larger than any of them.  E8 `ideals` lists 256 ideals of up to 36
roots, A9 and A10 list 512 and 1024 ideals; their standard output was
recorded before the minuscule walk moved onto positive-root bitmasks.  The
E7 posets of ideals 127 and 100 were recorded while the closure order was
still the all-pairs Bruhat matrix and its cubic transitive reduction.  Each
output is pinned by its sha256.
"""

import contextlib
import hashlib
import io

import pytest

from borbits import cli

DIGESTS = {
    "ideals --type E --rank 8": "e2e1d92df64644805443518e87247af58cca7c481eb6ce1d9bd69f2ae6d86a83",
    "ideals --type A --rank 9 --json": "0b013508c001bf79e26b3e843b201a23205dedb60e01bbae7cd63cfc2d0015ce",
    "ideals --type A --rank 10": "be05aad88b1b6f3130949bc0da96ae433519c04195e35c6ef943168692405eb1",
}


POSET_DIGESTS = {
    "poset --type E --rank 7 --ideal-id 127 --format json":
        "38530926f0c64bee10ca0932ea7e3b02935ce624615931e874d647147d5dba21",
    "poset --type E --rank 7 --ideal-id 100 --format dot":
        "f6b23f79d63bb2ae4f0f43d936a00a15ce7cc32ae1546e1e248f87880407d6e9",
}


def _digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_ideals_output_digest(command):
    assert _digest(command) == DIGESTS[command]


@pytest.mark.parametrize("command", sorted(POSET_DIGESTS))
def test_poset_output_digest(command):
    assert _digest(command) == POSET_DIGESTS[command]
