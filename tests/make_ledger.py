"""Build the output ledger: every battery residual and every CLI byte.

The ledger pins, for each check of the quick, the full and the perturbed
(``--perturb-scale 1.01``) battery and of the user-model battery on two
fixed models, its ``pass`` flag and its ``max_residual`` as ``float.hex``;
and, for a fixed list of CLI runs, the exit code and the sha256 of stdout.
``timing_ms`` is wall-clock and stays out.  ``tests/test_ledger.py``
compares a fresh build with the checked-in ``tests/ledger.json``; a change
that moves an output regenerates the file and lists each move, old to new.

Regenerate with ``python tests/make_ledger.py`` from the repository root;
it prints each entry that moved against the file it replaces.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np

LEDGER_PATH = Path(__file__).with_name("ledger.json")

# The default grids of both embeddings, an orbit, n = 3, and stress rows at
# both ends of the t-axis, where the float64 curve is known to be coarse.
CLI_RUNS = (
    ("embed",),
    ("embed", "--embedding", "psi"),
    ("misner",),
    ("misner", "--embedding", "psi_toy"),
    ("misner", "--orbit-event", "0,2", "--kmax", "7"),
    ("embed", "--n", "3", "--x-fixed", "0.5,-1.25"),
    ("embed", "--t-range=-1e12:-1e8:5"),
    ("misner", "--t-range=-1e-300:1e-300:3"),
    ("embed", "--format", "json"),
    ("misner", "--format", "json"),
)

BATTERIES = {
    "quick": {"quick": True},
    "full": {"quick": False},
    "perturb-scale 1.01": {"quick": True, "perturb_scale": 1.01},
}

# README's diagonal n = 3 block, and a coupled block that takes eigvalsh.
USER_MODELS = {
    "user-model diagonal n=3": [["1 + t^2", "0"], ["0", "1"]],
    "user-model coupled n=3": [["1.5 + 0.3*x1^2 + 0.1*t^2", "0.2"],
                               ["0.2", "1.2 + 0.4*cosh(x2)"]],
}


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _cli_entry(argv):
    from sigembed.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _battery_entry(results):
    return {r.name: {"pass": bool(r.passed), "max_residual": float(r.max_residual).hex()}
            for r in results}


def build_ledger():
    """The ledger of the importable sigembed, as a JSON-ready dict."""
    from sigembed.modelfile import model_from_dict
    from sigembed.verify import run_all, run_user_model

    battery = {label: _battery_entry(run_all(**kwargs))
               for label, kwargs in BATTERIES.items()}
    for label, block in USER_MODELS.items():
        model = model_from_dict({"dimension": 3, "spatial_block": block})
        battery[label] = _battery_entry(run_user_model(model))
    cli = {" ".join(argv): _cli_entry(argv) for argv in CLI_RUNS}
    return {"versions": versions(), "battery": battery, "cli": cli}


def _moves(recorded, fresh, path=()):
    """Paths of the entries that differ between two nested dicts."""
    if not (isinstance(recorded, dict) and isinstance(fresh, dict)):
        return [] if recorded == fresh else [" / ".join(path)]
    return [move for key in sorted(recorded.keys() | fresh.keys())
            for move in _moves(recorded.get(key), fresh.get(key), path + (key,))]


def _entry(ledger, move):
    for key in move.split(" / "):
        ledger = ledger.get(key) if isinstance(ledger, dict) else None
    return ledger


def write_ledger(path=LEDGER_PATH):
    """Rebuild the ledger at ``path`` and print each entry that moved
    against the file it replaces, old -> new (null where absent)."""
    recorded = json.loads(path.read_text()) if path.exists() else {}
    fresh = build_ledger()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(fresh, handle, indent=1)
        handle.write("\n")
    for move in _moves(recorded, fresh):
        print(f"{move}: {json.dumps(_entry(recorded, move))} -> "
              f"{json.dumps(_entry(fresh, move))}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write_ledger()
