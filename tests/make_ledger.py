"""Build the output ledger: every battery residual and every CLI byte.

The ledger pins, for each check of the quick, the full and the perturbed
(``--perturb-scale 1.01``) battery, its ``pass`` flag and its
``max_residual`` as ``float.hex``; and, for a fixed list of CLI runs, the
exit code and the sha256 of stdout.  ``timing_ms`` is wall-clock and stays
out.  ``tests/test_ledger.py`` compares a fresh build with the checked-in
``tests/ledger.json``; a change that moves an output regenerates the file
and lists each move, old to new.

Regenerate with ``python tests/make_ledger.py`` from the repository root.
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


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def _cli_entry(argv):
    from sigembed.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def build_ledger():
    """The ledger of the importable sigembed, as a JSON-ready dict."""
    from sigembed.verify import run_all

    battery = {
        label: {r.name: {"pass": bool(r.passed),
                         "max_residual": float(r.max_residual).hex()}
                for r in run_all(**kwargs)}
        for label, kwargs in BATTERIES.items()
    }
    cli = {" ".join(argv): _cli_entry(argv) for argv in CLI_RUNS}
    return {"versions": versions(), "battery": battery, "cli": cli}


def write_ledger(path=LEDGER_PATH):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(build_ledger(), handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write_ledger()
