"""Seeded workloads: the operations of one pass and the checks on their outputs.

An operation is one CLI command, called in-process through
``sigembed.cli.main(argv)`` with stdout captured, or one library sweep.
Every call goes through a module attribute looked up at call time, so the
tracer's wrappers see it.  Inputs are made from the seed before any timing;
the package receives only the generated argv, arrays and files.

Output checks compare against invariants computed outside the timed region
(monotonicity, on-image residuals, the arc-length round trip), never
against stored bytes, so ULP-level drift in a kernel does not count as a
failure.  The sha256 of each CSV is recorded as information only.
"""

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

# The package's acceptance bound on the arc-length round trip t -> theta -> t
# (verify.check_inversion_roundtrip).
ROUNDTRIP_TOL = 1e-8
# Relative tolerance for closed-form invariants recomputed from 17-digit
# CSV values: far above ULP drift, far below any real defect.
INVARIANT_RTOL = 1e-9
# Isometry residual bound of the finite-difference checks in the battery.
FD_ISOMETRY_TOL = 1e-6
# Start of the t-range on which the canonical-model image lies in the
# quotient half-space (verify.PSI_REGION_T_MIN).
PSI_REGION_T_MIN = -0.3496481839617198


@dataclass
class Op:
    """One closed-loop operation: ``run(sg)`` returns (exit code, output);
    ``check(sg, output)`` returns a list of problems, empty when correct."""

    kind: str
    run: object
    check: object
    csv: bool = False


@dataclass(frozen=True)
class Workload:
    """``build(sg, rng, workdir, tiny)`` makes the ops of one pass; the
    reason for each workload is its ``why`` in BENCHMARK.json."""

    build: object
    warm_up: bool  # run a tiny pass untimed first (skipped where it costs seconds)


def _num(x):
    return "%.17g" % x


def cli_op(kind, argv, check, csv=False):
    def run(sg):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = sg.cli.main(list(argv))
        return code, out.getvalue()

    return Op(kind, run, check, csv)


def _read_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def _close(a, b, rtol=INVARIANT_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_embed_explicit(lo, hi, count, shift):
    """theta runs the curve against t (theta_emb(t) = theta_of_t(-t)), xi is
    the hyperbola over theta, and the arc integral takes theta back to t."""

    def check(sg, text):
        header, rows = _read_csv(text)
        ts = rows[:, header.index("t")]
        theta = rows[:, header.index("theta")]
        xi = rows[:, header.index("xi")]
        problems = []
        if rows.shape[0] != count or not np.array_equal(ts, np.linspace(lo, hi, count)):
            problems.append("t column is not the requested grid")
        if not np.all(np.diff(theta) < 0.0):
            problems.append("theta is not increasing in -t")
        family = sg.explicit.HyperbolaFamily(shift)
        sign = sg.explicit.EMBED_TIME_SIGN
        for t, th, x in zip(ts, theta, xi):
            if not _close(x, sg.explicit.hyperbola_xi(th, family)):
                problems.append(f"xi != hyperbola_xi(theta) at t = {t!r}")
                break
            back = sign * sg.explicit.t_of_theta(th + family.offset)
            if not abs(back - t) <= ROUNDTRIP_TOL:
                problems.append(f"arc round trip misses t = {t!r} by {abs(back - t):.3g}")
                break
        return problems

    return check


def _misner_events(sg, rows, header):
    """Representatives of the quotient rows on their recorded sheets."""
    two_pi = 2.0 * math.pi
    for t, T, phi, k in rows[:, [header.index(c) for c in ("t", "T", "phi", "k")]]:
        k = int(k)
        point = sg.misner.MisnerEvent(T=T, phi=phi, spectators=[0.0],
                                      phi_raw=phi + two_pi * k)
        yield t, sg.misner.from_misner(point, k)


def check_misner_explicit(count, shift):
    """from_misner(row) lands back on the shifted hyperbola at the row's t."""

    def check(sg, text):
        header, rows = _read_csv(text)
        if rows.shape[0] != count:
            return [f"expected {count} rows, got {rows.shape[0]}"]
        family = sg.explicit.HyperbolaFamily(shift)
        sign = sg.explicit.EMBED_TIME_SIGN
        for t, e in _misner_events(sg, rows, header):
            y1 = float(e.y[0])
            if not _close(y1, sg.explicit.hyperbola_xi(e.tau, family)):
                return [f"quotient round trip leaves the curve at t = {t!r}"]
            back = sign * sg.explicit.t_of_theta(e.tau + family.offset)
            if not abs(back - t) <= ROUNDTRIP_TOL:
                return [f"quotient round trip misses t = {t!r} by {abs(back - t):.3g}"]
        return []

    return check


def check_misner_psi(count):
    """from_misner(row) lands back on the psi image at the row's t."""

    def check(sg, text):
        header, rows = _read_csv(text)
        if rows.shape[0] != count:
            return [f"expected {count} rows, got {rows.shape[0]}"]
        for t, e in _misner_events(sg, rows, header):
            y1 = float(e.y[0])
            if not (_close(y1, t) and _close(e.tau, sg.minkowski.temporal_f(t))):
                return [f"quotient round trip leaves the psi image at t = {t!r}"]
        return []

    return check


def check_embed_psi(lo, hi, count):
    """(tau, y1) = (f(t), t) with f strictly decreasing."""

    def check(sg, text):
        header, rows = _read_csv(text)
        ts = rows[:, header.index("t")]
        tau = rows[:, header.index("tau")]
        problems = []
        if rows.shape[0] != count or not np.array_equal(ts, np.linspace(lo, hi, count)):
            problems.append("t column is not the requested grid")
        if not np.array_equal(rows[:, header.index("y1")], ts):
            problems.append("y1 does not carry t")
        if not np.all(np.diff(tau) < 0.0):
            problems.append("tau is not strictly decreasing")
        f = sg.minkowski.temporal_f
        bad = [t for t, v in zip(ts, tau) if not _close(v, f(t))]
        if bad:
            problems.append(f"tau != f(t) at t = {bad[0]!r}")
        return problems

    return check


def check_verify_report(text):
    """Every check of the JSON report passes."""
    report = json.loads(text)
    return [f"verify check {c['name']} failed" for c in report["checks"] if not c["pass"]]


def verify_checks_failed(text):
    """Number of checks with ``pass: false`` in a verify report."""
    return sum(1 for c in json.loads(text)["checks"] if not c["pass"])


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build_figures(sg, rng, workdir, tiny):
    """The figure-data commands at their CLI defaults, grid ends and family
    shift jittered by the seed."""
    e_lo, e_hi = -3.0 + rng.uniform(-0.02, 0.02), 3.0 + rng.uniform(-0.02, 0.02)
    e_shift = rng.uniform(0.0, 0.05)
    m_lo, m_hi = -3.0 + rng.uniform(-0.02, 0.02), 3.0 + rng.uniform(-0.02, 0.02)
    m_shift = 1.0 + rng.uniform(-0.05, 0.05)
    e_count, m_count = (21, 11) if tiny else (601, 121)
    return [
        cli_op("embed", ["embed", "--embedding", "explicit", "--t-range",
                         f"{_num(e_lo)}:{_num(e_hi)}:{e_count}", "--shift", _num(e_shift)],
               check_embed_explicit(e_lo, e_hi, e_count, e_shift), csv=True),
        cli_op("misner", ["misner", "--embedding", "explicit", "--t-range",
                          f"{_num(m_lo)}:{_num(m_hi)}:{m_count}", "--shift", _num(m_shift)],
               check_misner_explicit(m_count, m_shift), csv=True),
    ]


def build_certify(sg, rng, workdir, tiny):
    """The verify battery at acceptance counts.  Its sampling is seeded inside
    the package and the CLI takes no seed, so the seed changes nothing here."""
    argv = ["verify"] if tiny else ["verify", "--full"]
    return [cli_op("verify", argv, lambda sg, text: check_verify_report(text))]


def write_model_file(rng, path):
    """A seeded n = 3 model whose spatial block is positive definite
    everywhere (unit-dominated diagonal, small constant coupling)."""
    p, s = rng.uniform(1.0, 2.0, size=2)
    q, w = rng.uniform(0.1, 0.5, size=2)
    v = rng.uniform(0.0, 0.2)
    r = rng.uniform(-0.3, 0.3)
    block = [[f"{_num(p)} + {_num(q)}*x1^2 + {_num(v)}*t^2", _num(r)],
             [_num(r), f"{_num(s)} + {_num(w)}*cosh(x2)"]]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"dimension": 3, "spatial_block": block}, handle)


def build_closed_form(sg, rng, workdir, tiny):
    """Paths that never reach _kernels: psi grids through the CLI, a user
    model file, and seeded library sweeps over psi and the quotient map."""
    e_lo, e_hi = -0.9 + rng.uniform(-0.02, 0.02), 10.0 + rng.uniform(-0.1, 0.1)
    m_lo, m_hi = -0.3 + rng.uniform(0.0, 0.02), 3.0 + rng.uniform(-0.02, 0.02)
    e_count, m_count = (201, 41) if tiny else (20001, 4001)
    model_path = workdir / "model.json"
    write_model_file(rng, model_path)

    iso_count, quot_count, scan_count = (50, 20, 1) if tiny else (4000, 800, 8)
    iso_map, iso_model = sg.minkowski.psi_toy_map(3), sg.metric.toy_model(3)
    iso_coords = np.column_stack([rng.uniform(-0.99, 10.0, iso_count),
                                  rng.uniform(-5.0, 5.0, (iso_count, 2))])
    events = []
    for _ in range(quot_count):
        tau, u = rng.uniform(-3.0, 3.0), rng.uniform(0.3, 6.0)
        events.append(sg.minkowski.MinkowskiEvent(
            tau, np.array([tau + u, rng.uniform(-2.0, 2.0)])))
    scan_map = sg.minkowski.psi_toy_map(2)
    bases = [scan_map.value_eval(sg.metric.ChartPoint(
        rng.uniform(PSI_REGION_T_MIN + 1e-3, 10.0), [rng.uniform(-5.0, 5.0)]))
        for _ in range(scan_count)]

    def isometry(sg):
        return 0, sg.minkowski.isometry_residual_grid(
            iso_map, iso_model, iso_coords, "finite_difference")

    def quotient(sg):
        return 0, max(sg.misner.quotient_isometry_residual(e) for e in events)

    def orbits(sg):
        return 0, [sg.transversality.orbit_intersection_count(scan_map, b, (-20.0, 20.0), 2001)
                   for b in bases]

    def below(tol):
        return lambda sg, value: [] if value <= tol else [f"residual {value:.3g} > {tol}"]

    return [
        cli_op("embed", ["embed", "--embedding", "psi", "--t-range",
                         f"{_num(e_lo)}:{_num(e_hi)}:{e_count}"],
               check_embed_psi(e_lo, e_hi, e_count), csv=True),
        cli_op("misner", ["misner", "--embedding", "psi_toy", "--t-range",
                          f"{_num(m_lo)}:{_num(m_hi)}:{m_count}"],
               check_misner_psi(m_count), csv=True),
        cli_op("verify", ["verify", "--model-file", str(model_path)],
               lambda sg, text: check_verify_report(text)),
        Op("isometry_grid", isometry, below(FD_ISOMETRY_TOL)),
        Op("quotient_residual", quotient, below(FD_ISOMETRY_TOL)),
        Op("orbit_scans", orbits,
           lambda sg, counts: [] if all(c == 1 for c in counts)
           else [f"orbit intersection counts {counts}, expected all 1"]),
    ]


WORKLOADS = {
    "figures": Workload(build_figures, warm_up=True),
    "certify": Workload(build_certify, warm_up=False),
    "closed_form": Workload(build_closed_form, warm_up=True),
}
