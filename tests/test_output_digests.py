"""Pinned output of `ideals` commands outside the benchmark's golden pool.

The benchmark checks its 78 commands against `perfbench/golden.json`; these
three are larger than any of them (E8 lists 256 ideals of up to 36 roots,
A9 and A10 list 512 and 1024 ideals).  Their standard output, recorded
before the minuscule walk moved onto positive-root bitmasks, is pinned by
its sha256.
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


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_ideals_output_digest(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[command]
