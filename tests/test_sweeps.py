"""The committed sweeps and the check list keep the bytes that README.md
records: the canonical entries of each sweep under sweeps/, serialized
as README.md's one-line command does, and the stdout of `qcongruence
list`.  sweeps/classical.json, which takes seconds, stays the README's
manual command; the other five run here, about a second together.  A
change to any of these numbers is a change to a report, and README.md
must say so."""

import hashlib
import json
from pathlib import Path

import pytest

from qcongruence.cli import RunConfig, canonical_entries, main, sweep

SWEEPS = Path(__file__).resolve().parent.parent / "sweeps"

#: sweep config -> (bytes, SHA-256) of its canonical entries, as README.md
#: records them
RECORDED = {
    "reference.json": (51195, "6d63f03d3ab92494cb5688eefc9d911e"
                              "ef2d89c2a155a18464a9fd1688ccab9b"),
    "all-checks.json": (53152, "6aa86e9af817db414eeafa2b99db1f00"
                               "1f01258f5773eeac5a44f6477c763f30"),
    "product-conjectures.json": (6684, "231be6a86db46163decc152f634f2ccf"
                                       "32e0abdd4615d806a2ff6e0d57c4f3d1"),
    "product-conjectures-n3.json": (4464, "493aea4204e0af8646d303b88a3516292"
                                          "a98b07ea305a17b83231bdebb408618"),
    "classical-lucas.json": (5883, "c51a3b03016232f529e87d6e885509908"
                                   "f6d315dfe4dcf8c740aab00fec815cd"),
}


@pytest.mark.parametrize("name", RECORDED)
def test_a_committed_sweep_keeps_its_recorded_bytes(name):
    cfg = RunConfig.from_dict(json.loads((SWEEPS / name).read_text(
        encoding="utf-8")))
    blob = json.dumps(canonical_entries(sweep(cfg)), sort_keys=True).encode()
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == RECORDED[name]


def test_the_check_list_keeps_its_recorded_bytes(capsys):
    assert main(["list"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "255cc1a2e4d311ff9b20bd30c7e721414b4ee7133fc141d0a0acc848b50026f7")
