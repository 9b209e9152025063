"""`verify` runs every requested suite on one group, so the minuscule walk
and the gap, sigma and pair tables that one suite fills serve the next.
The loop that gave each suite a fresh group is kept in ``oracles`` and must
print the same bytes and return the same exit code, on passing runs and on
runs that a flipped Bruhat order makes fail.
"""

import pytest

from borbits import cli
from borbits.affine import AffineWeylGroup

from oracles import verify_fresh_groups_oracle

SYSTEMS = [("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)]


def _verify(capsys, letter, rank, suite):
    code = cli.main(["verify", "--type", letter, "--rank", str(rank), "--suite", suite])
    return capsys.readouterr().out, code


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_one_group_prints_what_fresh_groups_print(capsys, letter, rank):
    out, code = _verify(capsys, letter, rank, "all")
    assert (out, code) == verify_fresh_groups_oracle(letter, rank, "all")
    assert code == 0 and out.count(": pass (") == 5


@pytest.mark.parametrize("letter,rank", SYSTEMS)
def test_a_flipped_order_fails_alike_on_one_group(monkeypatch, capsys, letter, rank):
    """Every Bruhat answer negated: the FAIL lines, the check counts and the
    first 20 violations of each report agree with the fresh-group runs."""
    real = AffineWeylGroup.bruhat_leq
    monkeypatch.setattr(AffineWeylGroup, "bruhat_leq", lambda self, u, w: not real(self, u, w))
    out, code = _verify(capsys, letter, rank, "all")
    assert (out, code) == verify_fresh_groups_oracle(letter, rank, "all")
    assert code == 1 and "FAIL" in out and out.count("\n  ") > 0
