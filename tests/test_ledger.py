"""Every battery residual and every CLI byte against the checked-in ledger.

The ledger (``tests/ledger.json``, rebuilt by ``tests/make_ledger.py``)
adds no tolerance: each residual must match bit for bit and each stdout
byte for byte.  It was recorded under one Python and numpy; under others
the comparison means nothing, so it fails naming both.
"""

import json

from make_ledger import LEDGER_PATH, _moves, build_ledger, versions


def test_outputs_match_ledger():
    recorded = json.loads(LEDGER_PATH.read_text())
    assert recorded["versions"] == versions(), (
        f"ledger recorded under {recorded['versions']}, running under {versions()}")
    assert _moves(recorded, build_ledger()) == []


def test_ledger_moves_are_named():
    recorded = {"cli": {"embed": {"exit": 0, "sha": "a"}}, "versions": {}}
    fresh = {"cli": {"embed": {"exit": 0, "sha": "b"}, "misner": {}}, "versions": {}}
    assert _moves(recorded, fresh) == ["cli / embed / sha", "cli / misner"]
