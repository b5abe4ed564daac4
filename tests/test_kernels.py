"""Arc-length kernels against independent oracles.

The closed form (Carlson's R_D), the series used near theta = 0 and the
vectorised inversion are checked against a uniform Simpson rule and
against mpmath at 30+ digits: quadrature of the arc integrand for I, and
a Newton iteration on that quadrature for theta(t).  The series tables
are re-derived with sympy, the inversion's step count from its
convergence bound, and the fixed steps against the bracketed Newton
iteration run to convergence.
"""

from math import comb

import mpmath as mp
import numpy as np
import pytest

from helpers import simpson_substituted_arc

from sigembed import _kernels as kernels

EPS = float(np.finfo(float).eps)
MP_DPS = 40


def mp_arc(theta):
    """I(theta) by mpmath quadrature in y (see the _kernels docstring),
    split geometrically towards y = 0 where the integrand grows as y^-2."""
    with mp.workdps(MP_DPS):
        th = mp.mpf(theta)
        if th == 0:
            return mp.mpf(0)
        s2 = mp.sqrt(2)
        y = 1 - s2 * th if th > 0 else 1 / (1 - s2 * th)
        pts = [y]
        while 4 * pts[-1] < 1:
            pts.append(4 * pts[-1])
        pts.append(mp.mpf(1))
        val = mp.quad(lambda v: mp.sqrt((1 - v**2) * (1 + v**2)) / v**2, pts) / s2
        return val if th > 0 else -val


def mp_theta(t, start):
    """Root of I(theta) = (2/3)|t|^(3/2) sgn(t) by Newton in mpmath."""
    with mp.workdps(MP_DPS):
        target = mp.mpf(2) / 3 * abs(mp.mpf(t)) ** mp.mpf(1.5) * mp.sign(mp.mpf(t))
        th = mp.mpf(start)
        for _ in range(6):
            slope = mp.sqrt(abs(4 / (mp.sqrt(2) - 2 * th) ** 4 - 1))
            th -= (mp_arc(th) - target) / slope
        return th


# 0.705 is the closest pole approach a uniform 200k-panel Simpson rule can
# still resolve; the mpmath oracle below goes much closer.
@pytest.mark.parametrize("theta", [0.0, 0.1, -0.5, 0.69, -50.0, 0.705, -666.8])
def test_numpy_backend_against_oracle(theta):
    values, status = kernels.arc_integral_batch(np.array([theta]))
    assert status[0] == 0
    oracle = simpson_substituted_arc(theta, n=200_001)
    assert values[0] == pytest.approx(oracle, abs=1e-9, rel=1e-9)


def test_carlson_rd_against_mpmath():
    ys = np.linspace(0.0, 1.0, 41)
    values = kernels.carlson_rd(ys * ys)
    for y, value in zip(ys, values):
        with mp.workdps(30):
            y2 = mp.mpf(y) ** 2
            ref = mp.elliprd(1 - y2, 1 + y2, 1)
        assert abs(value - ref) <= 4.0 * EPS * ref


SEAM = kernels.ARC_SEAM


@pytest.mark.parametrize("theta", [
    1e-8, -1e-8, 1e-4, -1e-4,
    np.nextafter(SEAM, 0.0), SEAM, -np.nextafter(SEAM, 0.0), -SEAM,
    0.1, 0.69, 0.7071, -1.0, -666.8, -1e4,
])
def test_arc_integral_against_mpmath(theta):
    value = kernels.arc_integral_batch(np.array([theta]))[0][0]
    ref = mp_arc(theta)
    # rounding theta itself moves I by |theta I'(theta)/I(theta)| ulps
    slope = mp.sqrt(abs(4 / (mp.sqrt(2) - 2 * mp.mpf(theta)) ** 4 - 1))
    condition = float(abs(theta * slope / ref))
    assert abs(value - ref) <= max(1e-13, 64.0 * EPS * condition) * abs(ref)


T_SEAM = kernels.THETA_SEAM


@pytest.mark.parametrize("t", [
    1e-3, -1e-3, 0.05, -0.05,
    np.nextafter(T_SEAM, 0.0), T_SEAM, -np.nextafter(T_SEAM, 0.0), -T_SEAM,
    3.0, -3.0, 100.0, -100.0, 5000.0,
])
def test_theta_root_against_mpmath(t):
    thetas, status = kernels.theta_root_batch(np.array([t]))
    assert status[0] == 0
    ref = mp_theta(t, thetas[0])
    assert abs(thetas[0] - ref) <= 1e-13 * abs(ref)


def test_series_tables_match_sympy_derivation():
    import sympy as sp
    from sympy.polys.ring_series import rs_pow, rs_series_reversion
    from sympy.polys.rings import ring

    # With u = sqrt2 theta: I = u |u|^(1/2) C(u) / sqrt2, where
    # sum b_m u^m = sqrt(((1 - u)^-4 - 1)/u) and c_m = b_m / (m + 3/2), and
    # t = 2^(1/3) v with v = u (3 C(u)/4)^(2/3).
    n_arc = len(kernels._ARC_SERIES)
    n_inv = len(kernels._THETA_SERIES)
    _, u, v = ring("u, v", sp.QQ)
    h = sum(comb(m + 4, 3) * u**m for m in range(n_arc))
    b = 2 * rs_pow(h / 4, sp.Rational(1, 2), u, n_arc)
    c = [b.coeff(u**m) / sp.Rational(2 * m + 3, 2) for m in range(n_arc)]
    c_series = sum(cm * u**m for m, cm in enumerate(c))
    v_of_u = u * rs_pow(c_series * sp.Rational(3, 4), sp.Rational(2, 3), u, n_arc)
    u_of_v = rs_series_reversion(v_of_u, u, n_inv + 1, v)
    d = [sp.QQ.to_sympy(u_of_v.coeff(v**k)) for k in range(1, n_inv + 1)]
    with mp.workdps(30):
        arc = [float(mp.mpf(cm.p) / cm.q * mp.mpf(2) ** (mp.mpf(1) / 4 + mp.mpf(m) / 2))
               for m, cm in enumerate(c)]
        inv = [float(mp.mpf(dk.p) / dk.q / (mp.sqrt(2) * mp.cbrt(2) ** (k + 1)))
               for k, dk in enumerate(d)]
    np.testing.assert_array_max_ulp(np.array(kernels._ARC_SERIES), np.array(arc), 1)
    np.testing.assert_array_max_ulp(np.array(kernels._THETA_SERIES), np.array(inv), 1)
    assert kernels._THETA_SERIES[0] == kernels.SEED_SLOPE
    with mp.workdps(30):
        two_j1 = 2 * mp.quad(lambda x: x**2 / mp.sqrt(1 - x**4), [0, 1])
    assert kernels._TWO_J1 == float(two_j1)


def test_batch_wrappers_match_scalar():
    ts = np.array([-7.0, -0.2, 0.0, 0.4, 12.0])
    thetas, status = kernels.theta_root_batch(ts)
    assert (status == 0).all()
    for t, th in zip(ts, thetas):
        single, st = kernels.theta_root_batch(np.array([t]))
        assert st.tolist() == [0]
        assert single[0] == th
    values, status = kernels.arc_integral_batch(thetas)
    assert (status == 0).all()
    for th, v in zip(thetas, values):
        single, st = kernels.arc_integral_batch(np.array([th]))
        assert st.tolist() == [0]
        assert single[0] == v


def test_arc_status_marks_pole_and_non_finite():
    thetas = np.array([0.3, kernels.THETA_POLE, 1.0, np.nan, -np.inf])
    values, status = kernels.arc_integral_batch(thetas)
    assert status.tolist() == [0, 1, 1, 1, 1]
    assert np.isfinite(values[0]) and np.isnan(values[1:]).all()


def bracketed_theta_far(ts):
    """theta for |t| >= THETA_SEAM by Newton on K from the middle of the
    bracket [1 + T, 2 + T], safeguarded by bisection and run until a step
    moves z by at most 64 eps, relative: the reference for the fixed steps."""
    target = kernels.SQRT2 * (2.0 / 3.0) * np.abs(ts) * np.sqrt(np.abs(ts))
    lo = 1.0 + target
    hi = 2.0 + target
    z = 0.5 * (lo + hi)
    active = np.ones(ts.shape, dtype=bool)
    for _ in range(200):
        k, slope = kernels._k_and_slope(1.0 / z)
        resid = k - target
        lo = np.where(resid < 0.0, z, lo)
        hi = np.where(resid > 0.0, z, hi)
        z_new = z - resid / slope
        z_new = np.where((z_new >= lo) & (z_new <= hi), z_new, 0.5 * (lo + hi))
        converged = np.abs(z_new - z) <= 64.0 * EPS * z_new
        z = np.where(active, z_new, z)
        active &= ~converged
        if not active.any():
            break
    assert not active.any()
    return np.where(ts > 0.0, (1.0 - 1.0 / z) / kernels.SQRT2,
                    (1.0 - z) / kernels.SQRT2)


def test_fixed_steps_equal_iterate_to_convergence():
    # Large |t| puts the root within an ulp of the bracket's asymptote side,
    # and can put the rounded start z0 = T + 2 J(1) left of it.
    ts = np.concatenate([np.linspace(-30.0, 30.0, 6001), np.linspace(-1e4, 1e4, 2001),
                         -np.logspace(4, 12, 81), np.logspace(4, 8, 41)])
    ts = ts[np.abs(ts) >= T_SEAM]
    fixed = kernels.theta_root_batch(ts)[0]
    np.testing.assert_allclose(fixed, bracketed_theta_far(ts), rtol=1e-14, atol=0.0)


def mp_k(z):
    """K(z) = z sqrt(1 - z^-4) - 2 J(1) + 2 J(1/z) at the working precision,
    with J(y) = (y^3/3) R_D(1 - y^2, 1 + y^2, 1)."""
    y = 1 / z
    two_j = [2 * v**3 / 3 * mp.elliprd(1 - v**2, 1 + v**2, 1) for v in (mp.mpf(1), y)]
    return z * mp.sqrt(1 - y**4) - two_j[0] + two_j[1]


# At the seam z* is smallest, so K' = sqrt(1 - z^-4) is smallest there and
# the bound largest; at |t| >= 1e12 the rounded start sits left of z*.
@pytest.mark.parametrize("t", [T_SEAM, -T_SEAM, 3.0, -100.0, 1e12, -1e12, 1e15, -1e15])
def test_newton_step_count_meets_its_bound(t):
    # The kernel solves K(z) = T from z0 = T + 2 J(1), both as it rounds them.
    target = kernels.SQRT2 * (2.0 / 3.0) * abs(t) * np.sqrt(abs(t))
    z0 = target + kernels._TWO_J1
    with mp.workdps(MP_DPS):
        z_star = mp.mpf(z0)
        for _ in range(8):  # Newton from the right, in mpmath
            z_star -= (mp_k(z_star) - mp.mpf(target)) / mp.sqrt(1 - z_star**-4)
        e0 = abs(mp.mpf(z0) - z_star)
        z_lo = min(mp.mpf(z0), z_star)
        # e_(k+1) <= C e_k^2 with C = K''/(2 K') at the interval's low end,
        # where K'' is largest and K' smallest; a start left of z* lands
        # right of it after one step, and the bound carries on from there
        c = 1 / (z_lo**5 - z_lo)
        assert c * e0 < 1
        rel = [e0 / (z_star - 1)]  # theta moves by at most e / (z* - 1), relative
        e = e0
        for _ in range(kernels._NEWTON_STEPS):
            e = c * e * e
            rel.append(e / (z_star - 1))
        theta_star = (1 - 1 / z_star if t > 0 else 1 - z_star) / mp.sqrt(2)
    assert rel[-1] <= EPS / 4
    if abs(t) == T_SEAM:  # one step fewer is not enough where the bound is largest
        assert rel[-2] > EPS
    theta = kernels.theta_root_batch(np.array([t]))[0][0]
    assert abs(theta - theta_star) <= 1e-14 * abs(theta_star)
