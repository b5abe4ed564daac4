"""Command-line front end: grid embeddings, quotient data and verification.

Three subcommands:

* ``embed``   writes embedded-curve rows over a t-grid (figure data),
* ``misner``  writes composed quotient rows or orbit copies of one event,
* ``verify``  runs the verification battery and writes a JSON report.

Outputs are byte-stable for a fixed configuration: floats are written with
17 significant digits, lines end with LF, and all sampling is seeded.  The
verify report carries a wall-clock ``timing_ms`` field and is exempt.
Exit codes: 0 success, 1 verification or domain failure, 2 usage error
(an unknown or malformed argument, or a numeric argument out of its range).
"""

import argparse
import dataclasses
import functools
import json
import re
import sys
import time

import numpy as np

from .config import NumericConfig
from .errors import RegionError, SigembedError
from .explicit import HyperbolaFamily, explicit_embedding_map
from .minkowski import MinkowskiEvent, psi_toy_map
from .misner import (GENERATOR_RAPIDITY, TWO_PI, boost_tau_y1, canonical_phi,
                     quotient_map_coords, source_embedding_map, to_misner)
from .modelfile import load_model
from .verify import run_all, run_user_model
from . import __version__

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "command", "config", "checks", "timing_ms"],
    "properties": {
        "schema": {"const": "2"},
        "command": {"type": "string"},
        "config": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "pass", "max_residual", "grid"],
                "properties": {
                    "name": {"type": "string"},
                    "pass": {"type": "boolean"},
                    "max_residual": {"type": "number"},
                    "grid": {"type": "string"},
                },
            },
        },
        "timing_ms": {"type": "integer"},
    },
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    command: str
    model: str = "toy"
    n: int = 2
    t_range: tuple = (-3.0, 3.0, 601)
    x_fixed: tuple = ()
    shift: float = 0.0
    tolerances: NumericConfig = NumericConfig()
    output_path: str = None
    format: str = "csv"

    def as_dict(self):
        """The fields in declaration order."""
        return dataclasses.asdict(self)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _emit_table(columns, rows, run_cfg):
    """Write an (m, len(columns)) float table as CSV or JSON."""
    rows = np.asarray(rows, dtype=float)
    if run_cfg.format == "csv":
        # one %-format over the whole table: each value as "%.17g" % float
        row_format = ",".join(["%.17g"] * len(columns)) + "\n"
        body = (row_format * len(rows)) % tuple(rows.ravel().tolist())
        _write_text(run_cfg.output_path, ",".join(columns) + "\n" + body)
    else:
        payload = {
            "schema": "2",
            "command": run_cfg.command,
            "config": run_cfg.as_dict(),
            "columns": list(columns),
            "rows": rows.tolist(),
        }
        _write_text(run_cfg.output_path, json.dumps(payload, indent=2) + "\n")


def _parse_t_range(text, parser):
    parts = text.split(":")
    if len(parts) != 3:
        parser.error(f"--t-range must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        parser.error(f"--t-range must be lo:hi:count with numeric fields, got {text!r}")
    if count < 2:
        parser.error(f"--t-range count must be >= 2, got {count}")
    if not (lo < hi and np.isfinite([lo, hi]).all()):
        parser.error(f"--t-range requires finite lo < hi, got lo={lo} hi={hi}")
    return lo, hi, count


def _parse_numbers(text, flag, parser):
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        parser.error(f"{flag} must be comma-separated numbers, got {text!r}")
    if not np.isfinite(values).all():
        parser.error(f"{flag} values must be finite, got {text!r}")
    return values


def _parse_x_fixed(text, n, parser):
    if not text:
        return tuple(0.0 for _ in range(n - 1))
    values = _parse_numbers(text, "--x-fixed", parser)
    if len(values) != n - 1:
        parser.error(f"--x-fixed needs {n - 1} values for n={n}, got {len(values)}")
    return values


def _parse_event(text, parser):
    values = _parse_numbers(text, "--orbit-event", parser)
    if len(values) < 2:
        parser.error("--orbit-event needs at least tau,y1")
    return MinkowskiEvent(values[0], values[1:])


def _chart_grid(t_range, x_fixed):
    """(count, n) chart coordinates: the t-grid with fixed spatial values."""
    lo, hi, count = t_range
    return np.column_stack([np.linspace(lo, hi, count)]
                           + [np.full(count, v) for v in x_fixed])


def cmd_embed(args, parser):
    if args.model != "toy":
        parser.error(
            "embedding curves need the built-in canonical model; user model "
            "files carry no spatial embedding (use 'verify --model-file')"
        )
    n = args.n
    run_cfg = RunConfig(
        command="embed", model=args.model, n=n, t_range=args.t_range,
        x_fixed=args.x_fixed, shift=args.shift, output_path=args.output,
        format=args.format,
    )
    if args.embedding == "explicit":
        map_ = explicit_embedding_map(n, HyperbolaFamily(args.shift))
        image_columns = ["theta", "xi"] + [f"y{i}" for i in range(2, n + 1)]
    else:
        lo = args.t_range[0]
        if lo <= -1.0:
            parser.error(f"--t-range: the psi embedding needs t > -1, got lo={lo}")
        map_ = psi_toy_map(n)
        image_columns = ["tau"] + [f"y{i}" for i in range(1, n + 1)]
    columns = ["t"] + [f"x{i}" for i in range(1, n)] + image_columns
    coords = _chart_grid(args.t_range, args.x_fixed)
    _emit_table(columns, np.column_stack([coords, map_.value(coords)]), run_cfg)
    return 0


def cmd_misner(args):
    n = args.n
    run_cfg = RunConfig(
        command="misner", model="toy", n=n, t_range=args.t_range,
        x_fixed=args.x_fixed, shift=args.shift, output_path=args.output,
        format=args.format,
    )
    if args.orbit_event is not None:
        event = args.orbit_event
        # T and phi_raw follow from the base event under the group action
        # (T fixed, phi_raw + 2 x rapidity per power): for large |k| the
        # boosted y1 - tau rounds to 0 and cannot be mapped directly.
        try:
            base = to_misner(event)
        except RegionError:
            print(
                f"error: --orbit-event (tau={event.tau}, y1={event.y[0]}) lies "
                "outside the half-space y1 - tau > 0", file=sys.stderr,
            )
            return 1
        powers = np.arange(-args.kmax, args.kmax + 1)
        rapidity = GENERATOR_RAPIDITY * powers
        tau, y1 = boost_tau_y1(event.tau, float(event.y[0]), rapidity)
        _emit_table(["k", "tau", "y1", "T", "phi_raw"],
                    np.column_stack([powers, tau, y1, np.full(powers.size, base.T),
                                     base.phi_raw + 2.0 * rapidity]), run_cfg)
        return 0

    coords = _chart_grid(args.t_range, args.x_fixed)
    family = HyperbolaFamily(args.shift) if args.embedding == "explicit" else None
    events = source_embedding_map(args.embedding, n, family).value(coords)
    try:
        quotient = quotient_map_coords(events)
    except RegionError as exc:
        print(
            f"error: composed image leaves the half-space at "
            f"t = {float(coords[exc.index, 0])!r} "
            f"(tau = {exc.tau}, y1 = {exc.y1})", file=sys.stderr,
        )
        return 1
    phi = canonical_phi(quotient[:, 1])
    branch = np.rint((quotient[:, 1] - phi) / TWO_PI).astype(int)
    _emit_table(["t", "T", "phi", "k"],
                np.column_stack([coords[:, 0], quotient[:, 0], phi, branch]), run_cfg)
    return 0


def cmd_verify(args):
    run_cfg = RunConfig(
        command="verify", model="user-file" if args.model_file else "toy",
        output_path=args.output, format="json",
    )
    start = time.perf_counter()
    if args.model_file:
        results = run_user_model(load_model(args.model_file))
    else:
        results = run_all(perturb_scale=args.perturb_scale, quick=not args.full)
    elapsed_ms = int(round(1000.0 * (time.perf_counter() - start)))
    report = {
        "schema": "2",
        "command": "verify",
        "config": run_cfg.as_dict(),
        "checks": [r.as_dict() for r in results],
        "timing_ms": elapsed_ms,
    }
    _write_text(args.output, json.dumps(report, indent=2) + "\n")
    failed = [r for r in results if not r.passed]
    if failed:
        print(
            "verification failed: " + ", ".join(r.name for r in failed),
            file=sys.stderr,
        )
        return 1
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    ``main`` call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sigembed",
        description=(
            "Construct isometric embeddings of the canonical signature-"
            "changing metric into flat and quotient targets, and verify them."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    embed = sub.add_parser("embed", help="write embedded-curve rows over a t-grid")
    embed.add_argument("--model", choices=["toy", "user-file"], default="toy")
    embed.add_argument("--embedding", choices=["psi", "explicit"], default="explicit")
    embed.add_argument("--n", type=int, default=2, help="source dimension (>= 2)")
    embed.add_argument("--t-range", help="lo:hi:count (-3:3:601; psi -0.9:10:601)")
    embed.add_argument("--x-fixed", default="", help="comma list of fixed x values")
    embed.add_argument("--shift", type=float, default=0.0,
                       help="translation of the solution family (explicit only)")
    embed.add_argument("--output", default=None)
    embed.add_argument("--format", choices=["csv", "json"], default="csv")

    misner = sub.add_parser("misner", help="write composed quotient rows or orbit copies")
    misner.add_argument("--embedding", choices=["psi_toy", "explicit"],
                        default="explicit")
    misner.add_argument("--n", type=int, default=2)
    misner.add_argument("--t-range", help="lo:hi:count (-3:3:121; psi -0.3:3:121)")
    misner.add_argument("--x-fixed", default="")
    misner.add_argument("--shift", type=float, default=1.0)
    misner.add_argument("--orbit-event", default=None,
                        help="tau,y1[,y2...]: emit group copies of one event")
    misner.add_argument("--kmax", type=int, default=3)
    misner.add_argument("--output", default=None)
    misner.add_argument("--format", choices=["csv", "json"], default="csv")

    verify = sub.add_parser("verify", help="run the verification battery")
    verify.add_argument("--full", action="store_true",
                        help="acceptance-scale sample counts")
    verify.add_argument("--perturb-scale", type=float, default=1.0,
                        help="scale the temporal component (regression fixture)")
    verify.add_argument("--model-file", default=None,
                        help="verify a user metric model file instead")
    verify.add_argument("--output", default=None)

    # values like "-3:3:601" or "-1,0" must parse as arguments, not flags
    matcher = re.compile(r"^-\d")
    for p in (parser, embed, misner, verify):
        p._negative_number_matcher = matcher
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("embed", "misner"):
        if args.n < 2:
            parser.error(f"--n must be >= 2, got {args.n}")
        if not 0.0 <= args.shift < np.inf:
            parser.error(f"--shift must be finite and >= 0, got {args.shift}")
        if args.t_range is None:  # psi needs t > -1; orbit copies use no t-grid
            psi = args.embedding != "explicit" and not getattr(args, "orbit_event", None)
            args.t_range = {"embed": ("-3:3:601", "-0.9:10:601"),
                            "misner": ("-3:3:121", "-0.3:3:121")}[args.command][psi]
        args.t_range = _parse_t_range(args.t_range, parser)
        args.x_fixed = _parse_x_fixed(args.x_fixed, args.n, parser)
    if args.command == "misner":
        if args.kmax < 0:
            parser.error(f"--kmax must be >= 0, got {args.kmax}")
        if args.orbit_event is not None:
            args.orbit_event = _parse_event(args.orbit_event, parser)
    if args.command == "verify" and not np.isfinite(args.perturb_scale):
        parser.error(f"--perturb-scale must be finite, got {args.perturb_scale}")
    try:
        if args.command == "embed":
            return cmd_embed(args, parser)
        if args.command == "misner":
            return cmd_misner(args)
        if args.command == "verify":
            return cmd_verify(args)
    except SigembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
