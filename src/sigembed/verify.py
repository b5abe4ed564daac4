"""Verification suites aggregating the package's geometric checks.

Each check returns a CheckResult; the CLI serialises them into the JSON
report and the acceptance tests run them at their gate tolerances.  All
randomness is seeded, so repeated runs produce identical numbers.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .config import NumericConfig
from .errors import RegionError
from .metric import (ChartPoint, SignatureClass, classify_signature_grid,
                     lc_regularity_at, radical_transversality, toy_model)
from .minkowski import MinkowskiEvent, isometry_residual_grid, psi_toy_map
from .misner import (MisnerEvent, PHI_SIGN, TWO_PI, boost, compose_embedding,
                     from_misner, misner_metric, quotient_isometry_residual,
                     quotient_map_coords, source_embedding_map, to_misner)
from .explicit import (HyperbolaFamily, asymptotic_theta, embed_explicit_grid,
                       ode_residual, theta_of_t, theta_of_t_grid)
from .transversality import (orbit_intersection_count, tangency_residual,
                             toy_tangency_poly)

# Scan-derived lower bound for the canonical-model tangency residual over
# t in [-0.99, 10]; asserted as a regression floor.
TANGENCY_RESIDUAL_FLOOR = 0.45

# Start of the t-range on which the canonical-model embedding lands inside
# the quotient half-space (root of t + (2/3)(1+t)^(3/2) = 0).
PSI_REGION_T_MIN = -0.3496481839617198


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    grid: str

    def as_dict(self):
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "max_residual": float(self.max_residual),
            "grid": self.grid,
        }


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

    def value_eval(p):
        e = base.value_eval(p)
        return MinkowskiEvent(scale * e.tau, e.y)

    def jacobian_eval(p):
        jac = base.jacobian_eval(p).copy()
        jac[0, :] *= scale
        return jac

    def value_batch(coords):
        out = base.value_batch(coords).copy()
        out[:, 0] *= scale
        return out

    def jacobian_batch(coords):
        jac = base.jacobian_batch(coords).copy()
        jac[:, 0, :] *= scale
        return jac

    return dataclasses.replace(
        base, value_eval=value_eval, jacobian_eval=jacobian_eval,
        value_batch=value_batch, jacobian_batch=jacobian_batch,
    )


def check_isometry_psi(n=2, mode="finite_difference", t_count=200, x_count=50,
                       tol=None, scale=1.0, cfg=None):
    cfg = cfg or NumericConfig()
    tol = tol if tol is not None else (1e-12 if mode == "analytic" else 1e-6)
    model = toy_model(n)
    map_ = psi_toy_map(n) if scale == 1.0 else perturbed_psi_map(n, scale)
    coords = _grid_coords(n, (-0.99, 10.0), (-5.0, 5.0), t_count, x_count)
    residual = isometry_residual_grid(map_, model, coords, mode, cfg)
    return CheckResult(
        name=f"isometry_psi_n{n}_{mode}",
        passed=residual <= tol,
        max_residual=residual,
        grid=f"t in [-0.99, 10] x{t_count}, x in [-5, 5] x{x_count}, n={n}",
    )


def check_signature_sweep(n=2, count=100_000, tol=1e-10):
    model = toy_model(n)
    ts = np.linspace(-5.0, 5.0, count)
    coords = np.column_stack([ts] + [np.full(count, 0.7)] * (n - 1))
    classes, neg, zero, pos = classify_signature_grid(model, coords, tol)
    expected = np.where(
        ts < 0, SignatureClass.RIEMANNIAN,
        np.where(ts > 0, SignatureClass.LORENTZIAN, SignatureClass.DEGENERATE),
    )
    mismatches = int(np.sum(classes != expected))
    counts_ok = (
        np.all(neg[ts > 0] == 1) and np.all(pos[ts > 0] == n - 1)
        and np.all(neg[ts < 0] == 0) and np.all(pos[ts < 0] == n)
        and np.all(zero[ts == 0] == 1)
    )
    return CheckResult(
        name=f"signature_sweep_n{n}",
        passed=(mismatches == 0 and bool(counts_ok)),
        max_residual=float(mismatches),
        grid=f"t in [-5, 5] x{count}, n={n}",
    )


def check_lc_regularity(dims=(2, 3, 4), samples_per_dim=334, seed=7, cfg=None):
    rng = np.random.default_rng(seed)
    failures = 0
    total = 0
    for n in dims:
        model = toy_model(n)
        for _ in range(samples_per_dim):
            x = rng.uniform(-5.0, 5.0, size=n - 1)
            # on the degeneracy locus the null directions span the radical
            v = np.zeros(n)
            v[0] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            total += 1
            if not lc_regularity_at(model, ChartPoint(0.0, x), v, 1e-9, cfg):
                failures += 1
    return CheckResult(
        name="lc_regularity_on_locus",
        passed=failures == 0,
        max_residual=float(failures),
        grid=f"{total} null directions on t=0, n in {list(dims)}",
    )


def check_radical_transversality(dims=(2, 3), samples_per_dim=100, seed=11,
                                 cfg=None):
    cfg = cfg or NumericConfig()
    rng = np.random.default_rng(seed)
    worst_grad_err = 0.0
    failures = 0
    total = 0
    for n in dims:
        model = toy_model(n)
        model_fd = dataclasses.replace(model, derivative_eval=None)
        for _ in range(samples_per_dim):
            x = rng.uniform(-5.0, 5.0, size=n - 1)
            p = ChartPoint(0.0, x)
            det, grad, transverse = radical_transversality(model, p, cfg=cfg)
            _, grad_fd, _ = radical_transversality(model_fd, p, cfg=cfg)
            total += 1
            if not (transverse and abs(det) <= 1e-12):
                failures += 1
            worst_grad_err = max(worst_grad_err, float(np.abs(grad - grad_fd).max()))
    grad_tol = 10.0 * cfg.fd_step**2
    return CheckResult(
        name="radical_transversality_on_locus",
        passed=failures == 0 and worst_grad_err <= grad_tol,
        max_residual=worst_grad_err,
        grid=f"{total} points on t=0, n in {list(dims)}; fd-vs-analytic gradient",
    )


def check_ode_residual(count=1000, t_span=10.0, tol=1e-6, cfg=None):
    cfg = cfg or NumericConfig()
    ts = np.linspace(-t_span, t_span, count)
    ts = ts[np.abs(ts) > 1e-6]
    worst = max(ode_residual(t, HyperbolaFamily(0.0), cfg) for t in ts)
    return CheckResult(
        name="explicit_ode_residual",
        passed=worst <= tol,
        max_residual=float(worst),
        grid=f"t in [-{t_span}, {t_span}] x{count} minus (-1e-6, 1e-6)",
    )


def check_inversion_roundtrip(count=1001, t_span=100.0, tol=1e-8, cfg=None):
    cfg = cfg or NumericConfig()
    ts = np.linspace(-t_span, t_span, count)
    thetas = theta_of_t_grid(ts, cfg)
    from . import _kernels
    values, status = _kernels.arc_integral_batch(thetas, cfg)
    if np.any(status != 0):
        raise RuntimeError("round-trip grid reaches the pole of the arc integral")
    t_back = np.sign(values) * (1.5 * np.abs(values)) ** (2.0 / 3.0)
    worst = float(np.abs(t_back - ts).max())
    increasing = bool(np.all(np.diff(thetas) > 0.0))
    return CheckResult(
        name="inversion_roundtrip",
        passed=worst <= tol and increasing,
        max_residual=worst,
        grid=f"t in [-{t_span}, {t_span}] x{count}; monotonicity included",
    )


def check_asymptotics_small(magnitudes=(1e-3, 1e-4, 1e-5), tol=1e-2, cfg=None):
    cfg = cfg or NumericConfig()
    worst = 0.0
    for mag in magnitudes:
        for t in (mag, -mag):
            small, _ = asymptotic_theta(t)
            worst = max(worst, abs(theta_of_t(t, cfg) - small) / abs(t))
    return CheckResult(
        name="asymptotic_small_t",
        passed=worst <= tol,
        max_residual=float(worst),
        grid=f"|t| in {list(magnitudes)}, both signs",
    )


def check_asymptotics_large_negative(t=-100.0, tol=2e-2, cfg=None):
    cfg = cfg or NumericConfig()
    _, large = asymptotic_theta(t)
    rel = abs(theta_of_t(t, cfg) - large) / abs(large)
    return CheckResult(
        name="asymptotic_large_negative",
        passed=rel <= tol,
        max_residual=float(rel),
        grid=f"t = {t} against (2/3)|t|^(3/2) sgn t",
    )


def sample_region_events(count, n_target=3, seed=23):
    """Seeded events in the half-space, bounded away from its boundary so
    finite-difference stencils stay well conditioned."""
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(count):
        tau = rng.uniform(-3.0, 3.0)
        u = rng.uniform(0.3, 6.0)
        spect = rng.uniform(-2.0, 2.0, size=n_target - 2)
        events.append(MinkowskiEvent(tau, np.concatenate(([tau + u], spect))))
    return events


def check_quotient_isometry(count=1000, tol=1e-6, seed=23, cfg=None):
    cfg = cfg or NumericConfig()
    worst = max(
        quotient_isometry_residual(e, cfg) for e in sample_region_events(count, 3, seed)
    )
    return CheckResult(
        name="quotient_isometry",
        passed=worst <= tol,
        max_residual=float(worst),
        grid=f"{count} seeded events in the half-space, N=3",
    )


def check_boost_identification(count=200, tol=1e-12, seed=29):
    # Events of moderate magnitude: the shift is exact in real arithmetic,
    # and this sampler keeps the cosh(pi)-scale cancellation below tol.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        tau = rng.uniform(-1.0, 1.0)
        u = rng.uniform(1.0, 4.0)
        spect = rng.uniform(-1.0, 1.0, size=1)
        e = MinkowskiEvent(tau, np.concatenate(([tau + u], spect)))
        m0 = to_misner(e)
        m1 = to_misner(boost(e))
        worst = max(
            worst,
            abs((m1.phi_raw - m0.phi_raw) - TWO_PI),
            abs(m1.T - m0.T),
            _angular_distance(m1.phi, m0.phi),
        )
    return CheckResult(
        name="boost_identification",
        passed=worst <= tol,
        max_residual=float(worst),
        grid=f"{count} seeded events; generator rapidity pi shifts phi_raw by +2 pi",
    )


def _angular_distance(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


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
    worst_base = 0.0
    worst_ratio = 0.0
    for _ in range(count):
        T = rng.uniform(-5.0, 5.0)
        phi = rng.uniform(0.0, TWO_PI)
        spect = rng.uniform(-2.0, 2.0, size=1)
        point = MisnerEvent(T=T, phi=phi, spectators=spect, phi_raw=phi)
        for k in branches:
            e = from_misner(point, k)
            u = float(e.y[0]) - e.tau
            v = float(e.y[0]) + e.tau
            m = to_misner(e)
            d_phi = max(abs(m.phi_raw - (phi + TWO_PI * k)),
                        _angular_distance(m.phi, phi))
            d_t = abs(m.T - T)
            d_spect = float(np.abs(m.spectators - spect).max())
            if k == 0:
                worst_base = max(worst_base, d_phi, d_t, d_spect)
            tol_phi = 64.0 * eps * (1.0 + (abs(v) + u) / u)
            tol_t = 64.0 * eps * max(1.0, 0.25 * max(u, abs(v)) ** 2)
            worst_ratio = max(worst_ratio, d_phi / tol_phi, d_t / tol_t,
                              d_spect / (64.0 * eps))
    return CheckResult(
        name="misner_roundtrip",
        passed=worst_base <= tol and worst_ratio <= 1.0,
        max_residual=float(worst_base),
        grid=(f"{count} seeded quotient points, branches in {list(branches)}; "
              "base sheet at tol, other sheets at conditioning bound"),
    )


def check_tangency(t_count=500, floor=TANGENCY_RESIDUAL_FLOOR, cfg=None):
    cfg = cfg or NumericConfig()
    map_ = psi_toy_map(2)
    ts = np.linspace(-0.99, 10.0, t_count)
    min_res = min(tangency_residual(map_, ChartPoint(t, [0.3]), cfg=cfg) for t in ts)
    _, disc = toy_tangency_poly(0.0)
    poly_ok = disc == -15.0 and all(toy_tangency_poly(t)[0] >= 1.875 for t in ts)
    return CheckResult(
        name="tangency_floor",
        passed=(min_res > floor) and poly_ok,
        max_residual=float(min_res),
        grid=f"t in [-0.99, 10] x{t_count}; regression floor {floor}",
    )


def check_orbit_injectivity(bases_per_map=12, samples=2001, seed=37, cfg=None):
    cfg = cfg or NumericConfig()
    rng = np.random.default_rng(seed)
    worst = 0
    total = 0
    psi_map = psi_toy_map(2)
    for _ in range(bases_per_map):
        t = rng.uniform(PSI_REGION_T_MIN + 1e-3, 10.0)
        base = psi_map.value_eval(ChartPoint(t, [rng.uniform(-5, 5)]))
        count = orbit_intersection_count(psi_map, base, (-20, 20), samples, cfg)
        worst = max(worst, abs(count - 1))
        total += 1
    exp_map = source_embedding_map("explicit", 2, HyperbolaFamily(1.0), cfg)
    for _ in range(bases_per_map):
        t = rng.uniform(-10.0, 10.0)
        base = exp_map.value_eval(ChartPoint(t, [rng.uniform(-5, 5)]))
        count = orbit_intersection_count(exp_map, base, (-20, 20), samples, cfg)
        worst = max(worst, abs(count - 1))
        total += 1
    return CheckResult(
        name="orbit_intersection_counts",
        passed=worst == 0,
        max_residual=float(worst),
        grid=f"{total} on-image bases, s in [-20, 20] x{samples}",
    )


def check_composed_injectivity(t_count=100, x_count=100, cfg=None):
    cfg = cfg or NumericConfig()
    family = HyperbolaFamily(1.0)
    ts = np.linspace(-3.0, 3.0, t_count)
    tau, xi = embed_explicit_grid(ts, family, cfg)
    T = (xi**2 - tau**2) / 4.0
    u = xi - tau
    phi_raw = PHI_SIGN * np.log(u / 2.0)
    phi = np.mod(phi_raw, TWO_PI)
    xs = np.linspace(-5.0, 5.0, x_count)
    rows = np.column_stack([
        np.repeat(T, x_count), np.repeat(phi, x_count), np.tile(xs, t_count),
    ])
    distinct = np.unique(rows, axis=0).shape[0]
    return CheckResult(
        name="composed_images_distinct",
        passed=distinct == rows.shape[0],
        max_residual=float(rows.shape[0] - distinct),
        grid=f"{t_count} x {x_count} composed images, shift 1",
    )


def _fd_jacobian_of(func, coords, steps):
    base_dim = len(func(coords))
    jac = np.empty((base_dim, coords.size))
    for k in range(coords.size):
        up = coords.copy()
        dn = coords.copy()
        up[k] += steps[k]
        dn[k] -= steps[k]
        jac[:, k] = (np.asarray(func(up)) - np.asarray(func(dn))) / (2.0 * steps[k])
    return jac


def check_functoriality(count=100, tol=1e-5, seed=41, source="explicit",
                        cfg=None):
    """Pullback through the composition vs pullback of the pullback vs the
    source metric: all three must agree."""
    cfg = cfg or NumericConfig()
    rng = np.random.default_rng(seed)
    family = HyperbolaFamily(1.0)
    model = toy_model(2)
    map_ = source_embedding_map(source, 2, family, cfg)
    # the canonical-model embedding lands in the half-space only above
    # the region boundary
    t_lo = -3.0 if source == "explicit" else PSI_REGION_T_MIN + 0.05
    from .metric import eval_metric

    worst = 0.0
    done = 0
    while done < count:
        t = rng.uniform(t_lo, 3.0)
        x = rng.uniform(-5.0, 5.0)
        p = ChartPoint(t, [x])
        coords = p.coords()
        steps = cfg.fd_step * np.maximum(1.0, np.abs(coords))
        if abs(t) < 2.0 * steps[0]:
            continue  # half-power kink at t = 0 degrades the stencil
        done += 1

        def embed_coords(c):
            return map_.value_eval(ChartPoint.from_coords(c)).coords()

        def composed_coords(c):
            return quotient_map_coords(embed_coords(c))

        event = map_.value_eval(p)
        T = (float(event.y[0]) ** 2 - event.tau**2) / 4.0
        g_quot = misner_metric(T, event.dim)

        jac_comp = _fd_jacobian_of(composed_coords, coords, steps)
        route_a = jac_comp.T @ g_quot @ jac_comp

        ev_coords = event.coords()
        ev_steps = cfg.fd_step * np.maximum(1.0, np.abs(ev_coords))
        ev_steps = np.minimum(ev_steps, 0.25 * (ev_coords[1] - ev_coords[0]))
        jac_quot = _fd_jacobian_of(quotient_map_coords, ev_coords, ev_steps)
        quot_pull = jac_quot.T @ g_quot @ jac_quot
        jac_embed = _fd_jacobian_of(embed_coords, coords, steps)
        route_b = jac_embed.T @ quot_pull @ jac_embed

        g_source = eval_metric(model, p)
        worst = max(
            worst,
            float(np.abs(route_a - route_b).max()),
            float(np.abs(route_a - g_source).max()),
            float(np.abs(route_b - g_source).max()),
        )
    return CheckResult(
        name=f"pullback_functoriality_{source}",
        passed=worst <= tol,
        max_residual=float(worst),
        grid=f"{count} seeded points, composition vs staged vs source ({source})",
    )


def check_bulk_vs_brane(t_count=121, tol=1e-12, cfg=None):
    """Quotient (T, phi) block stays unit-determinant Lorentzian along the
    composed curve while the source determinant -t changes sign."""
    cfg = cfg or NumericConfig()
    family = HyperbolaFamily(1.0)
    ts = np.linspace(-3.0, 3.0, t_count)
    tau, xi = embed_explicit_grid(ts, family, cfg)
    T = (xi**2 - tau**2) / 4.0
    dets = np.array([np.linalg.det(misner_metric(tv, 2)) for tv in T])
    worst = float(np.abs(dets + 1.0).max())
    source_dets = -ts
    sign_ok = (
        bool(np.all(source_dets[ts > 0] < 0))
        and bool(np.all(source_dets[ts < 0] > 0))
        and bool(np.all(np.abs(source_dets[ts == 0]) == 0))
    )
    return CheckResult(
        name="bulk_lorentzian_brane_signature_change",
        passed=worst <= tol and sign_ok,
        max_residual=worst,
        grid=f"t in [-3, 3] x{t_count}, composed with shift 1",
    )


def check_region_scan(source="explicit", t_range=(-3.0, 3.0), count=61, cfg=None):
    """Composed-embedding region membership along a t-range."""
    cfg = cfg or NumericConfig()
    ts = np.linspace(t_range[0], t_range[1], count)
    first_bad = None
    for t in ts:
        try:
            compose_embedding(ChartPoint(t, [0.0]), source, None, cfg)
        except RegionError:
            first_bad = t
            break
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
        check_inversion_roundtrip(inv_count, cfg=cfg),
        check_asymptotics_small(cfg=cfg),
        check_asymptotics_large_negative(cfg=cfg),
        check_quotient_isometry(quot_count, cfg=cfg),
        check_boost_identification(),
        check_misner_roundtrip(quot_count),
        check_tangency(cfg=cfg),
        check_orbit_injectivity(bases, cfg=cfg),
        check_composed_injectivity(cfg=cfg),
        check_functoriality(functorial, source="explicit", cfg=cfg),
        check_functoriality(functorial, source="psi_toy", cfg=cfg),
        check_bulk_vs_brane(cfg=cfg),
        check_region_scan("explicit", cfg=cfg),
    ]
    return results
