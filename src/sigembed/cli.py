"""Command-line front end: grid embeddings, quotient data and verification.

Three subcommands:

* ``embed``   writes embedded-curve rows over a t-grid (figure data),
* ``misner``  writes composed quotient rows or orbit copies of one event,
* ``verify``  runs the verification battery and writes a JSON report.

Outputs are byte-stable for a fixed configuration: floats are written with
17 significant digits, lines end with LF, and all sampling is seeded.  The
verify report carries a wall-clock ``timing_ms`` field and is exempt.
Exit codes: 0 success, 1 verification or domain failure, 2 usage error.
"""

import argparse
import dataclasses
import json
import re
import sys
import time

import numpy as np

from .config import NumericConfig
from .errors import RegionError, SigembedError
from .explicit import HyperbolaFamily, embed_explicit_grid
from .metric import ChartPoint, lc_regularity_at
from .minkowski import MinkowskiEvent, psi_toy_map
from .misner import BoostSpec, boost, compose_embedding, to_misner
from .modelfile import load_model
from .verify import CheckResult, run_all
from . import __version__

_GENERATOR = BoostSpec()

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "command", "config", "checks", "timing_ms"],
    "properties": {
        "schema": {"const": "1"},
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
    tolerances: NumericConfig = None
    output_path: str = None
    format: str = "csv"

    def as_dict(self):
        cfg = self.tolerances or NumericConfig()
        return {
            "command": self.command,
            "model": self.model,
            "n": self.n,
            "t_range": list(self.t_range),
            "x_fixed": list(self.x_fixed),
            "shift": self.shift,
            "tolerances": dataclasses.asdict(cfg),
            "output_path": self.output_path,
            "format": self.format,
        }


def _fmt(value):
    return "%.17g" % float(value)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _emit_table(columns, rows, run_cfg):
    if run_cfg.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write_text(run_cfg.output_path, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema": "1",
            "command": run_cfg.command,
            "config": run_cfg.as_dict(),
            "columns": list(columns),
            "rows": [[float(v) for v in row] for row in rows],
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
    if not lo < hi:
        parser.error(f"--t-range requires lo < hi, got lo={lo} hi={hi}")
    return lo, hi, count


def _parse_x_fixed(text, n, parser):
    if not text:
        return tuple(0.0 for _ in range(n - 1))
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        parser.error(f"--x-fixed must be comma-separated numbers, got {text!r}")
    if len(values) != n - 1:
        parser.error(f"--x-fixed needs {n - 1} values for n={n}, got {len(values)}")
    return values


def _parse_event(text, parser):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        parser.error(f"--orbit-event must be comma-separated numbers, got {text!r}")
    if len(values) < 2:
        parser.error("--orbit-event needs at least tau,y1")
    return MinkowskiEvent(values[0], values[1:])


def _numeric_config(args):
    cfg = NumericConfig.from_env()
    overrides = {}
    if getattr(args, "root_tol", None) is not None:
        overrides["root_tol"] = args.root_tol
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_embed(args, parser):
    cfg = _numeric_config(args)
    if args.model != "toy":
        parser.error(
            "embedding curves need the built-in canonical model; user model "
            "files carry no spatial embedding (use 'verify --model-file')"
        )
    n = args.n
    lo, hi, count = args.t_range
    x_fixed = args.x_fixed
    run_cfg = RunConfig(
        command="embed", model=args.model, n=n, t_range=(lo, hi, count),
        x_fixed=x_fixed, shift=args.shift, tolerances=cfg,
        output_path=args.output, format=args.format,
    )
    ts = np.linspace(lo, hi, count)
    if args.embedding == "explicit":
        family = HyperbolaFamily(args.shift)
        theta, xi = embed_explicit_grid(ts, family, cfg)
        columns = (["t"] + [f"x{i}" for i in range(1, n)] + ["theta", "xi"]
                   + [f"y{i}" for i in range(2, n + 1)])
        rows = [
            [t] + list(x_fixed) + [th, x1] + list(x_fixed)
            for t, th, x1 in zip(ts, theta, xi)
        ]
    else:
        map_ = psi_toy_map(n)
        if lo <= -1.0:
            parser.error(f"--t-range: the psi embedding needs t > -1, got lo={lo}")
        coords = np.column_stack([ts] + [np.full(count, v) for v in x_fixed])
        events = map_.value_batch(coords)
        columns = (["t"] + [f"x{i}" for i in range(1, n)] + ["tau"]
                   + [f"y{i}" for i in range(1, n + 1)])
        rows = [list(c) + list(e) for c, e in zip(coords, events)]
    _emit_table(columns, rows, run_cfg)
    return 0


def cmd_misner(args, parser):
    cfg = _numeric_config(args)
    n = args.n
    run_cfg = RunConfig(
        command="misner", model="toy", n=n, t_range=args.t_range,
        x_fixed=args.x_fixed, shift=args.shift, tolerances=cfg,
        output_path=args.output, format=args.format,
    )
    if args.orbit_event is not None:
        event = args.orbit_event
        if not float(event.y[0]) - event.tau > 0.0:
            print(
                f"error: --orbit-event (tau={event.tau}, y1={event.y[0]}) lies "
                "outside the half-space y1 - tau > 0", file=sys.stderr,
            )
            return 1
        # T and phi_raw follow from the base event under the group action
        # (T fixed, phi_raw + 2 x rapidity per power): for large |k| the
        # boosted y1 - tau rounds to 0 and cannot be mapped directly.
        base = to_misner(event)
        columns = ["k", "tau", "y1", "T", "phi_raw"]
        rows = []
        for k in range(-args.kmax, args.kmax + 1):
            spec = dataclasses.replace(_GENERATOR, power=k)
            copy = boost(event, spec)
            rows.append([k, copy.tau, float(copy.y[0]), base.T,
                         base.phi_raw + 2.0 * spec.total_rapidity])
        _emit_table(columns, rows, run_cfg)
        return 0

    lo, hi, count = args.t_range
    ts = np.linspace(lo, hi, count)
    family = HyperbolaFamily(args.shift) if args.embedding == "explicit" else None
    columns = ["t", "T", "phi", "k"]
    rows = []
    for t in ts:
        point = ChartPoint(t, list(args.x_fixed))
        try:
            m = compose_embedding(point, args.embedding, family, cfg)
        except RegionError as exc:
            print(
                f"error: composed image leaves the half-space at t = {float(t)!r} "
                f"(tau = {exc.tau}, y1 = {exc.y1})", file=sys.stderr,
            )
            return 1
        rows.append([t, m.T, m.phi, m.branch])
    _emit_table(columns, rows, run_cfg)
    return 0


def cmd_verify(args, parser):
    cfg = _numeric_config(args)
    run_cfg = RunConfig(
        command="verify", model="user-file" if args.model_file else "toy",
        n=args.n, tolerances=cfg, output_path=args.output, format="json",
    )
    start = time.perf_counter()
    if args.model_file:
        results = _verify_user_model(args.model_file)
    else:
        results = run_all(cfg=cfg, perturb_scale=args.perturb_scale,
                          quick=not args.full)
    elapsed_ms = int(round(1000.0 * (time.perf_counter() - start)))
    report = {
        "schema": "1",
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


def _verify_user_model(path):
    from .metric import slice_metric

    model = load_model(path)
    n = model.dimension
    rng = np.random.default_rng(3)
    pd_fail = 0
    for _ in range(200):
        t = rng.uniform(-3.0, 3.0)
        x = rng.uniform(-2.0, 2.0, size=n - 1)
        _, pd = slice_metric(model, t, x)
        if not pd:
            pd_fail += 1
    results = [
        CheckResult(
            name="slice_positive_definite",
            passed=pd_fail == 0,
            max_residual=float(pd_fail),
            grid="200 seeded points, t in [-3, 3]",
        ),
        _user_signature_sweep(model),
        _user_lc_regularity(model),
        _user_radical(model),
    ]
    return results


def _user_lc_regularity(model, samples=200):
    # on t = 0 the null directions span the radical (a, 0, ..., 0) for any
    # positive-definite spatial block
    n = model.dimension
    rng = np.random.default_rng(5)
    failures = 0
    for _ in range(samples):
        x = rng.uniform(-2.0, 2.0, size=n - 1)
        v = np.zeros(n)
        v[0] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        if not lc_regularity_at(model, ChartPoint(0.0, x), v, 1e-9):
            failures += 1
    return CheckResult(
        name="user_lc_regularity",
        passed=failures == 0,
        max_residual=float(failures),
        grid=f"{samples} null directions on t=0, n={n}",
    )


def _user_signature_sweep(model):
    from .metric import SignatureClass, classify_signature_grid

    n = model.dimension
    ts = np.linspace(-3.0, 3.0, 2001)
    coords = np.column_stack([ts] + [np.full(ts.size, 0.5)] * (n - 1))
    classes, _, _, _ = classify_signature_grid(model, coords)
    expected = np.where(
        ts < 0, SignatureClass.RIEMANNIAN,
        np.where(ts > 0, SignatureClass.LORENTZIAN, SignatureClass.DEGENERATE),
    )
    mismatches = int(np.sum(classes != expected))
    return CheckResult(
        name="user_signature_sweep",
        passed=mismatches == 0,
        max_residual=float(mismatches),
        grid=f"t in [-3, 3] x2001, n={n}",
    )


def _user_radical(model):
    from .metric import radical_transversality

    n = model.dimension
    rng = np.random.default_rng(9)
    failures = 0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=n - 1)
        _, _, transverse = radical_transversality(model, ChartPoint(0.0, x))
        if not transverse:
            failures += 1
    return CheckResult(
        name="user_radical_transversality",
        passed=failures == 0,
        max_residual=float(failures),
        grid=f"100 seeded points on t=0, n={n}",
    )


def build_parser():
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
    embed.add_argument("--t-range", default="-3:3:601", help="lo:hi:count")
    embed.add_argument("--x-fixed", default="", help="comma list of fixed x values")
    embed.add_argument("--shift", type=float, default=0.0,
                       help="translation of the solution family (explicit only)")
    embed.add_argument("--output", default=None)
    embed.add_argument("--format", choices=["csv", "json"], default="csv")
    embed.add_argument("--root-tol", type=float, default=None)

    misner = sub.add_parser("misner", help="write composed quotient rows or orbit copies")
    misner.add_argument("--embedding", choices=["psi_toy", "explicit"],
                        default="explicit")
    misner.add_argument("--n", type=int, default=2)
    misner.add_argument("--t-range", default="-3:3:121", help="lo:hi:count")
    misner.add_argument("--x-fixed", default="")
    misner.add_argument("--shift", type=float, default=1.0)
    misner.add_argument("--orbit-event", default=None,
                        help="tau,y1[,y2...]: emit group copies of one event")
    misner.add_argument("--kmax", type=int, default=3)
    misner.add_argument("--output", default=None)
    misner.add_argument("--format", choices=["csv", "json"], default="csv")
    misner.add_argument("--root-tol", type=float, default=None)

    verify = sub.add_parser("verify", help="run the verification battery")
    verify.add_argument("--full", action="store_true",
                        help="acceptance-scale sample counts")
    verify.add_argument("--perturb-scale", type=float, default=1.0,
                        help="scale the temporal component (regression fixture)")
    verify.add_argument("--model-file", default=None,
                        help="verify a user metric model file instead")
    verify.add_argument("--n", type=int, default=2)
    verify.add_argument("--output", default=None)
    verify.add_argument("--root-tol", type=float, default=None)

    # values like "-3:3:601" or "-1,0" must parse as arguments, not flags
    matcher = re.compile(r"^-\d")
    for p in (parser, embed, misner, verify):
        p._negative_number_matcher = matcher
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("embed", "misner"):
        args.t_range = _parse_t_range(args.t_range, parser)
        args.x_fixed = _parse_x_fixed(args.x_fixed, args.n, parser)
    if args.command == "misner" and args.orbit_event is not None:
        args.orbit_event = _parse_event(args.orbit_event, parser)
    try:
        if args.command == "embed":
            return cmd_embed(args, parser)
        if args.command == "misner":
            return cmd_misner(args, parser)
        if args.command == "verify":
            return cmd_verify(args, parser)
    except SigembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
