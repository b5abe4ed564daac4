"""Verification suites aggregating the package's geometric checks.

Each check returns a CheckResult; the CLI serialises them into the JSON
report and the acceptance tests run them at their gate tolerances.  All
randomness is seeded, so repeated runs produce identical numbers.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import NumericConfig, central_diff, fd_steps
from .errors import RegionError
from .metric import (classify_signature_grid, eval_metric_grid, lc_regularity_grid,
                     radical_transversality_grid, slice_metric_grid, toy_model)
from .minkowski import isometry_residual_grid, psi_toy_map
from .misner import (GENERATOR_RAPIDITY, TWO_PI, boost_tau_y1, canonical_phi,
                     misner_metric, quotient_isometry_residual_grid,
                     quotient_jacobian, quotient_map_coords, representative_coords,
                     require_region, source_embedding_map)
from .explicit import (HyperbolaFamily, asymptotic_theta, embed_explicit_grid,
                       ode_residual_grid, t_of_theta_grid, theta_of_t,
                       theta_of_t_grid)
from .transversality import (orbit_intersection_count_grid, tangency_residual_grid,
                             toy_tangency_poly)

# Scan-derived lower bound for the canonical-model tangency residual over
# t in [-0.99, 10]; asserted as a regression floor.
TANGENCY_RESIDUAL_FLOOR = 0.45

# Start of the t-range on which the canonical-model embedding lands inside
# the quotient half-space (root of t + (2/3)(1+t)^(3/2) = 0).
PSI_REGION_T_MIN = -0.3496481839617198

# Rows per block of the large sweeps (grid points, or orbit-scan samples);
# bounds their (m, n, n) temporaries.  Blocking moves no result.
_BLOCK_ROWS = 16_384


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    grid: str

    @classmethod
    def from_failures(cls, name, failures, grid):
        """Result that passes when no sample failed; the residual is the
        number of failures."""
        return cls(name=name, passed=failures == 0, max_residual=float(failures),
                   grid=grid)

    @classmethod
    def within(cls, name, residual, tol, grid, ok=True):
        """Result that passes when residual <= tol and ``ok`` holds."""
        residual = float(residual)
        return cls(name=name, passed=bool(ok) and residual <= tol,
                   max_residual=residual, grid=grid)

    def as_dict(self):
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "max_residual": float(self.max_residual),
            "grid": self.grid,
        }


def _blocks(count, rows_each=1):
    # slices of range(count), _BLOCK_ROWS rows (at least one item) each
    step = max(1, _BLOCK_ROWS // rows_each)
    return [slice(i, i + step) for i in range(0, count, step)]


def _grid_coords(n, t_range, x_range, t_count, x_count):
    ts = np.linspace(t_range[0], t_range[1], t_count)
    xs = np.linspace(x_range[0], x_range[1], x_count)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    coords = np.column_stack([tt.ravel(), xx.ravel()])
    if n > 2:
        # extra spatial coordinates sweep the same range, reversed so the
        # grid is not diagonal-degenerate
        extra = np.column_stack([xx.ravel()[::-1]] * (n - 2))
        coords = np.column_stack([coords, extra])
    return coords


def perturbed_psi_map(n=2, scale=1.01):
    """Canonical-model embedding with the temporal component scaled; breaks
    isometry by |(scale^2 - 1)(1 + t)| and guards that the residual test
    detects non-isometries."""
    base = psi_toy_map(n)

    def value(coords):
        out = base.value(coords)
        out[:, 0] *= scale
        return out

    def jacobian(coords):
        jac = base.jacobian(coords)
        jac[:, 0, :] *= scale
        return jac

    return dataclasses.replace(base, value=value, jacobian=jacobian)


def check_isometry_psi(n=2, mode="finite_difference", t_count=200, x_count=50,
                       tol=None, scale=1.0, cfg=None):
    tol = tol if tol is not None else (1e-12 if mode == "analytic" else 1e-6)
    model = toy_model(n)
    map_ = psi_toy_map(n) if scale == 1.0 else perturbed_psi_map(n, scale)
    coords = _grid_coords(n, (-0.99, 10.0), (-5.0, 5.0), t_count, x_count)
    return CheckResult.within(
        f"isometry_psi_n{n}_{mode}",
        max(isometry_residual_grid(map_, model, coords[block], mode, cfg)
            for block in _blocks(len(coords), 2 * n)), tol,
        f"t in [-0.99, 10] x{t_count}, x in [-5, 5] x{x_count}, n={n}")


def _signature_mismatches(model, ts, x, tol=1e-10):
    """Points of a t-sweep at spatial coordinates x whose class code is not
    sign(t) (Riemannian, degenerate, Lorentzian), and the zero-eigenvalue
    counts of the points at t == 0."""
    mismatches, zeros = 0, []
    for block in _blocks(ts.size):
        t = ts[block]
        coords = np.column_stack([t] + [np.full(t.size, x)] * (model.dimension - 1))
        codes, _, zero, _ = classify_signature_grid(model, coords, tol)
        mismatches += int(np.count_nonzero(codes != np.sign(t)))
        zeros.append(zero[t == 0])
    return mismatches, np.concatenate(zeros)


def check_signature_sweep(n=2, count=100_000, tol=1e-10):
    ts = np.linspace(-5.0, 5.0, count)
    mismatches, zero = _signature_mismatches(toy_model(n), ts, 0.7, tol)
    # matching classes fix the counts off t = 0; on it the radical is a line
    return CheckResult.within(f"signature_sweep_n{n}", mismatches, 0,
                              f"t in [-5, 5] x{count}, n={n}",
                              ok=np.all(zero == 1))


def _lc_draws(rng, samples, n, x_span):
    """Points (0, x) and directions (a, 0, ...) of the per-draw loop x =
    rng.uniform(-x_span, x_span, n - 1), a = rng.uniform(0.5, 2.0) *
    rng.choice([-1.0, 1.0]), bitwise, from PCG64's 64-bit words w: a uniform
    is lo + (hi - lo) (w >> 11) 2^-53, a choice the top bit of a 32-bit
    half-word, low half first, the high half held for the next choice."""
    bitgen = rng.bit_generator
    state = bitgen.state
    # a draw takes n words, and one more when no half-word is held
    fresh = (np.arange(samples) + state["has_uint32"]) % 2 == 0
    ends = np.cumsum(n + fresh)
    words = bitgen.random_raw(ends[-1])
    unit = (words[(ends - n - fresh)[:, None] + np.arange(n)] >> 11) * 2.0 ** -53
    halves = words[ends[fresh] - 1].astype("<u8").view("<u4")  # low half first
    if state["has_uint32"]:
        halves = np.insert(halves, 0, state["uinteger"])
    bitgen.state = {**bitgen.state, "has_uint32": int(halves.size > samples),
                    "uinteger": int(halves[-1])}
    coords, directions = np.zeros((2, samples, n))
    coords[:, 1:] = -x_span + (x_span - -x_span) * unit[:, :-1]
    directions[:, 0] = ((0.5 + (2.0 - 0.5) * unit[:, -1])
                        * (2.0 * (halves[:samples] >> 31) - 1.0))
    return coords, directions


def _lc_failures(model, rng, samples, x_span, cfg=None):
    """Seeded null directions on t = 0 at which light-cone regularity fails;
    there they span the radical, for any positive-definite spatial block."""
    coords, directions = _lc_draws(rng, samples, model.dimension, x_span)
    return int(np.count_nonzero(~lc_regularity_grid(model, coords, directions,
                                                    1e-9, cfg)))


def _locus_points(rng, samples, n, x_span):
    """Seeded points (0, x) of the degeneracy locus t = 0."""
    return np.column_stack([np.zeros(samples),
                            rng.uniform(-x_span, x_span, size=(samples, n - 1))])


def check_lc_regularity(dims=(2, 3, 4), samples_per_dim=334, seed=7, cfg=None):
    rng = np.random.default_rng(seed)
    failures = sum(_lc_failures(toy_model(n), rng, samples_per_dim, 5.0, cfg)
                   for n in dims)
    total = samples_per_dim * len(dims)
    return CheckResult.from_failures(
        "lc_regularity_on_locus", failures,
        f"{total} null directions on t=0, n in {list(dims)}")


def check_radical_transversality(dims=(2, 3), samples_per_dim=100, seed=11,
                                 cfg=None):
    cfg = cfg or NumericConfig()
    rng = np.random.default_rng(seed)
    worst_grad_err = 0.0
    failures = 0
    for n in dims:
        model = toy_model(n)
        coords = _locus_points(rng, samples_per_dim, n, 5.0)
        det, grad, transverse = radical_transversality_grid(model, coords, cfg=cfg)
        _, grad_fd, _ = radical_transversality_grid(
            dataclasses.replace(model, derivatives=None), coords, cfg=cfg)
        failures += int(np.count_nonzero(~(transverse & (np.abs(det) <= 1e-12))))
        worst_grad_err = max(worst_grad_err, float(np.abs(grad - grad_fd).max()))
    total = samples_per_dim * len(dims)
    return CheckResult.within(
        "radical_transversality_on_locus", worst_grad_err, 10.0 * cfg.fd_step**2,
        f"{total} points on t=0, n in {list(dims)}; fd-vs-analytic gradient",
        ok=failures == 0)


def check_ode_residual(count=1000, t_span=10.0, tol=1e-6, cfg=None):
    ts = np.linspace(-t_span, t_span, count)
    ts = ts[np.abs(ts) > 1e-6]
    return CheckResult.within(
        "explicit_ode_residual", ode_residual_grid(ts, HyperbolaFamily(0.0), cfg).max(),
        tol, f"t in [-{t_span}, {t_span}] x{count} minus (-1e-6, 1e-6)")


def check_inversion_roundtrip(count=1001, t_span=100.0, tol=1e-8):
    ts = np.linspace(-t_span, t_span, count)
    thetas = theta_of_t_grid(ts)
    # nan (a theta at the pole) fails the check
    return CheckResult.within(
        "inversion_roundtrip", np.abs(t_of_theta_grid(thetas) - ts).max(), tol,
        f"t in [-{t_span}, {t_span}] x{count}; monotonicity included",
        ok=np.all(np.diff(thetas) > 0.0))


def check_asymptotics_small(magnitudes=(1e-3, 1e-4, 1e-5), tol=1e-2):
    ts = np.array([sign * mag for mag in magnitudes for sign in (1.0, -1.0)])
    small = asymptotic_theta(ts)[0]
    worst = np.max(np.abs(theta_of_t_grid(ts) - small) / np.abs(ts))
    return CheckResult.within("asymptotic_small_t", worst, tol,
                              f"|t| in {list(magnitudes)}, both signs")


def check_asymptotics_large_negative(t=-100.0, tol=2e-2):
    _, large = asymptotic_theta(t)
    rel = abs(theta_of_t(t) - large) / abs(large)
    return CheckResult.within("asymptotic_large_negative", rel, tol,
                              f"t = {t} against (2/3)|t|^(3/2) sgn t")


def sample_region_events(count, n_target=3, seed=23):
    """Seeded (count, n_target) events in the half-space, u in [0.3, 6]: a
    margin from u = 0 that only finite-difference stencils need (those of
    the functoriality checks); the quotient Jacobian is exact."""
    rng = np.random.default_rng(seed)
    # columns tau, u = y1 - tau and the spectators, drawn row by row
    spect = n_target - 2
    events = rng.uniform([-3.0, 0.3] + [-2.0] * spect, [3.0, 6.0] + [2.0] * spect,
                         size=(count, n_target))
    events[:, 1] += events[:, 0]
    return events


def check_quotient_isometry(count=1000, tol=1e-6, seed=23):
    events = sample_region_events(count, 3, seed)
    return CheckResult.within(
        "quotient_isometry", quotient_isometry_residual_grid(events).max(), tol,
        f"{count} seeded events in the half-space, N=3")


def check_boost_identification(count=200, tol=1e-12, seed=29):
    # Events of moderate magnitude: the shift is exact in real arithmetic,
    # and this sampler keeps the cosh(pi)-scale cancellation below tol.
    rng = np.random.default_rng(seed)
    # columns tau, u = y1 - tau and one spectator, drawn row by row
    events = rng.uniform([-1.0, 1.0, -1.0], [1.0, 4.0, 1.0], size=(count, 3))
    events[:, 1] += events[:, 0]
    boosted = events.copy()
    boosted[:, 0], boosted[:, 1] = boost_tau_y1(events[:, 0], events[:, 1],
                                                GENERATOR_RAPIDITY)
    q0, q1 = quotient_map_coords(events), quotient_map_coords(boosted)
    worst = max(
        np.abs((q1[:, 1] - q0[:, 1]) - TWO_PI).max(),
        np.abs(q1[:, 0] - q0[:, 0]).max(),
        _angular_distance(canonical_phi(q1[:, 1]), canonical_phi(q0[:, 1])).max(),
    )
    return CheckResult.within(
        "boost_identification", worst, tol,
        f"{count} seeded events; generator rapidity pi shifts phi_raw by +2 pi")


def _angular_distance(a, b):
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def check_misner_roundtrip(count=1000, branches=range(-3, 4), tol=1e-12, seed=31):
    """Quotient-chart round trip across covering sheets.

    Representatives on sheet k have u = 2 exp(-(phi + 2 pi k)/2); when u is
    tiny the event coordinates (tau, y1) ~ 2T/u can no longer represent u,
    so recovering (T, phi) carries an unavoidable float64 error of order
    eps * (1 + 4|T|/u^2).  The base sheet is held to ``tol``; the other
    sheets are held to 64 eps times that conditioning factor, which still
    pins down any sign or bookkeeping error in the identification.
    """
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(seed)
    # columns T, phi and one spectator, drawn row by row
    points = rng.uniform([-5.0, 0.0, -2.0], [5.0, TWO_PI, 2.0], size=(count, 3))
    worst_base = 0.0
    worst_ratio = 0.0
    for k in branches:
        quotient = points.copy()
        quotient[:, 1] += TWO_PI * k
        events = representative_coords(quotient)
        u = events[:, 1] - events[:, 0]
        v = events[:, 1] + events[:, 0]
        back = quotient_map_coords(events)
        d_phi = np.maximum(np.abs(back[:, 1] - quotient[:, 1]),
                           _angular_distance(canonical_phi(back[:, 1]), points[:, 1]))
        d_t = np.abs(back[:, 0] - points[:, 0])
        d_spect = np.abs(back[:, 2] - points[:, 2])
        if k == 0:
            worst_base = max(d_phi.max(), d_t.max(), d_spect.max())
        tol_phi = 64.0 * eps * (1.0 + (np.abs(v) + u) / u)
        tol_t = 64.0 * eps * np.maximum(1.0, 0.25 * np.maximum(u, np.abs(v)) ** 2)
        worst_ratio = max(worst_ratio, (d_phi / tol_phi).max(), (d_t / tol_t).max(),
                          d_spect.max() / (64.0 * eps))
    return CheckResult.within(
        "misner_roundtrip", worst_base, tol,
        f"{count} seeded quotient points, branches in {list(branches)}; "
        "base sheet at tol, other sheets at conditioning bound",
        ok=worst_ratio <= 1.0)


def check_tangency(t_count=500, floor=TANGENCY_RESIDUAL_FLOOR, cfg=None):
    ts = np.linspace(-0.99, 10.0, t_count)
    coords = np.column_stack([ts, np.full(t_count, 0.3)])
    min_res = tangency_residual_grid(psi_toy_map(2), coords, cfg=cfg).min()
    _, disc = toy_tangency_poly(0.0)
    poly_ok = disc == -15.0 and bool((toy_tangency_poly(ts)[0] >= 1.875).all())
    return CheckResult(
        name="tangency_floor",
        passed=(min_res > floor) and poly_ok,
        max_residual=float(min_res),
        grid=f"t in [-0.99, 10] x{t_count}; regression floor {floor}",
    )


def check_orbit_injectivity(bases_per_map=12, samples=2001, seed=37):
    rng = np.random.default_rng(seed)
    worst = 0
    scans = [(psi_toy_map(2), PSI_REGION_T_MIN + 1e-3),
             (source_embedding_map("explicit", 2, HyperbolaFamily(1.0)), -10.0)]
    for map_, t_lo in scans:
        # bases at chart points (t, x), drawn row by row
        bases = map_.value(rng.uniform([t_lo, -5.0], [10.0, 5.0], (bases_per_map, 2)))
        for block in _blocks(bases_per_map, samples):
            counts = orbit_intersection_count_grid(map_, bases[block], (-20, 20),
                                                   samples)
            worst = max(worst, int(np.abs(counts - 1).max()))
    return CheckResult.from_failures(
        "orbit_intersection_counts", worst,
        f"{2 * bases_per_map} on-image bases, s in [-20, 20] x{samples}")


def _duplicate_rows(rows):
    """Number of rows of a 2-d array equal to an earlier row (-0.0 == 0.0)."""
    ordered = rows[np.lexsort(rows.T[::-1])]
    return int(np.count_nonzero((ordered[1:] == ordered[:-1]).all(axis=1)))


def check_composed_injectivity(t_count=100, x_count=100):
    family = HyperbolaFamily(1.0)
    ts = np.linspace(-3.0, 3.0, t_count)
    q = quotient_map_coords(np.column_stack(embed_explicit_grid(ts, family)))
    T, phi = q[:, 0], canonical_phi(q[:, 1])
    xs = np.linspace(-5.0, 5.0, x_count)
    rows = np.column_stack([
        np.repeat(T, x_count), np.repeat(phi, x_count), np.tile(xs, t_count),
    ])
    collisions = _duplicate_rows(rows)
    return CheckResult.from_failures("composed_images_distinct", collisions,
                                     f"{t_count} x {x_count} composed images, shift 1")


def _pull(jac, g):
    """J^T g J for stacks of Jacobians and metrics."""
    return np.swapaxes(jac, 1, 2) @ g @ jac


def _off_kink_points(rng, count, t_lo, cfg):
    """The first ``count`` seeded chart points (t, x), t in [t_lo, 3) and
    x in [-5, 5), that lie at least two stencil steps off t = 0, where the
    half-power kink degrades the stencil; drawn row by row in chunks."""
    points = np.empty((0, 2))
    while len(points) < count:
        rows = rng.uniform([t_lo, -5.0], [3.0, 5.0], size=(count, 2))
        off_kink = np.abs(rows[:, 0]) >= 2.0 * fd_steps(rows, cfg.fd_step)[:, 0]
        points = np.concatenate([points, rows[off_kink]])
    return points[:count]


def check_functoriality(count=100, tol=1e-5, seed=41, source="explicit",
                        cfg=None):
    """Pullback through the composition vs pullback of the pullback vs the
    source metric: all three must agree."""
    cfg = cfg or NumericConfig()
    rng = np.random.default_rng(seed)
    map_ = source_embedding_map(source, 2, HyperbolaFamily(1.0))
    # the canonical-model embedding lands in the half-space only above
    # the region boundary
    t_lo = -3.0 if source == "explicit" else PSI_REGION_T_MIN + 0.05
    coords = _off_kink_points(rng, count, t_lo, cfg)
    steps = fd_steps(coords, cfg.fd_step)
    events = map_.value(coords)
    g_quot = misner_metric((events[:, 1] ** 2 - events[:, 0] ** 2) / 4.0, 3)

    jac_comp = central_diff(lambda c: quotient_map_coords(map_.value(c)), coords, steps)
    route_a = _pull(jac_comp, g_quot)
    quot_pull = _pull(quotient_jacobian(events), g_quot)
    route_b = _pull(central_diff(map_.value, coords, steps), quot_pull)
    g_source = eval_metric_grid(toy_model(2), coords)
    worst = max(np.abs(route_a - route_b).max(), np.abs(route_a - g_source).max(),
                np.abs(route_b - g_source).max())
    return CheckResult.within(
        f"pullback_functoriality_{source}", worst, tol,
        f"{count} seeded points, composition vs staged vs source ({source})")


def check_bulk_vs_brane(t_count=121, tol=1e-12):
    """Quotient (T, phi) block stays unit-determinant Lorentzian along the
    composed curve while the source determinant -t changes sign."""
    family = HyperbolaFamily(1.0)
    ts = np.linspace(-3.0, 3.0, t_count)
    T = quotient_map_coords(np.column_stack(embed_explicit_grid(ts, family)))[:, 0]
    dets = np.linalg.det(misner_metric(T, 2))
    source_dets = -ts
    sign_ok = (
        bool(np.all(source_dets[ts > 0] < 0))
        and bool(np.all(source_dets[ts < 0] > 0))
        and bool(np.all(np.abs(source_dets[ts == 0]) == 0))
    )
    return CheckResult.within(
        "bulk_lorentzian_brane_signature_change", np.abs(dets + 1.0).max(), tol,
        f"t in [-3, 3] x{t_count}, composed with shift 1", ok=sign_ok)


def check_region_scan(source="explicit", t_range=(-3.0, 3.0), count=61):
    """Composed-embedding region membership along a t-range."""
    ts = np.linspace(t_range[0], t_range[1], count)
    events = source_embedding_map(source, 2, None).value(
        np.column_stack([ts, np.zeros(count)]))
    first_bad = None
    try:
        require_region(events[:, 0], events[:, 1])
    except RegionError as exc:
        first_bad = ts[exc.index]
    return CheckResult(
        name=f"region_membership_{source}",
        passed=first_bad is None,
        max_residual=0.0 if first_bad is None else float(first_bad),
        grid=f"t in [{t_range[0]}, {t_range[1]}] x{count}",
    )


def run_all(cfg=None, perturb_scale=1.0, quick=True):
    """Full verification battery; ``quick`` trims sample counts for the CLI.

    ``perturb_scale`` != 1 swaps the canonical embedding for its perturbed
    regression fixture, which must make the isometry checks fail.
    """
    cfg = cfg or NumericConfig()
    sig_count = 20_000 if quick else 100_000
    quot_count = 200 if quick else 1000
    ode_count = 200 if quick else 1000
    inv_count = 201 if quick else 1001
    bases = 6 if quick else 100
    functorial = 25 if quick else 100
    results = [
        check_isometry_psi(2, "analytic", scale=perturb_scale, cfg=cfg),
        check_isometry_psi(2, "finite_difference", scale=perturb_scale, cfg=cfg),
        check_isometry_psi(3, "analytic", scale=perturb_scale, cfg=cfg),
        check_isometry_psi(3, "finite_difference", scale=perturb_scale, cfg=cfg),
        check_signature_sweep(2, sig_count),
        check_signature_sweep(3, sig_count),
        check_lc_regularity(cfg=cfg),
        check_radical_transversality(cfg=cfg),
        check_ode_residual(ode_count, cfg=cfg),
        check_inversion_roundtrip(inv_count),
        check_asymptotics_small(),
        check_asymptotics_large_negative(),
        check_quotient_isometry(quot_count),
        check_boost_identification(),
        check_misner_roundtrip(quot_count),
        check_tangency(cfg=cfg),
        check_orbit_injectivity(bases),
        check_composed_injectivity(),
        check_functoriality(functorial, source="explicit", cfg=cfg),
        check_functoriality(functorial, source="psi_toy", cfg=cfg),
        check_bulk_vs_brane(),
        check_region_scan("explicit"),
    ]
    return results


def check_slice_positive_definite(model):
    n = model.dimension
    rng = np.random.default_rng(3)
    # columns t and x, drawn row by row
    coords = rng.uniform([-3.0] + [-2.0] * (n - 1), [3.0] + [2.0] * (n - 1),
                         size=(200, n))
    pd_fail = int(np.count_nonzero(~slice_metric_grid(model, coords)[1]))
    return CheckResult.from_failures(
        "slice_positive_definite", pd_fail,
        "200 seeded points, t in [-3, 3]")


def check_user_signature_sweep(model):
    mismatches = _signature_mismatches(model, np.linspace(-3.0, 3.0, 2001), 0.5)[0]
    return CheckResult.from_failures(
        "user_signature_sweep", mismatches,
        f"t in [-3, 3] x2001, n={model.dimension}")


def check_user_lc_regularity(model, samples=200):
    failures = _lc_failures(model, np.random.default_rng(5), samples, 2.0)
    return CheckResult.from_failures(
        "user_lc_regularity", failures,
        f"{samples} null directions on t=0, n={model.dimension}")


def check_user_radical_transversality(model):
    coords = _locus_points(np.random.default_rng(9), 100, model.dimension, 2.0)
    failures = int(np.count_nonzero(~radical_transversality_grid(model, coords)[2]))
    return CheckResult.from_failures(
        "user_radical_transversality", failures,
        f"100 seeded points on t=0, n={model.dimension}")


def run_user_model(model):
    """Metric-structure checks of a user model: slice positive
    definiteness, signature sweep, light-cone regularity and radical
    transversality."""
    return [
        check_slice_positive_definite(model),
        check_user_signature_sweep(model),
        check_user_lc_regularity(model),
        check_user_radical_transversality(model),
    ]
