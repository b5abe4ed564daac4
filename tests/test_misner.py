import mpmath as mp
import numpy as np
import pytest

from helpers import fd_quotient_jacobian
from sigembed import (ChartPoint, MinkowskiEvent, MisnerEvent, RegionError,
                      compose_embedding, from_misner, misner_metric,
                      quotient_isometry_residual, to_misner)
from sigembed.misner import (GENERATOR_RAPIDITY, PHI_SIGN, TWO_PI, boost_tau_y1,
                             quotient_isometry_residual_grid, quotient_jacobian,
                             require_region)
from sigembed.verify import sample_region_events

E = np.e
PI = np.pi


def test_boost_generator_values():
    tau, y1 = boost_tau_y1(0.0, 2.0, GENERATOR_RAPIDITY)
    np.testing.assert_allclose(
        [tau, y1], [2 * np.sinh(PI), 2 * np.cosh(PI)], rtol=1e-15
    )
    # numeric anchor for the generator action
    assert tau == pytest.approx(23.0975, abs=1e-4)
    assert y1 == pytest.approx(23.1839, abs=1e-3)


def test_boost_identity_element():
    np.testing.assert_array_equal(boost_tau_y1(1.3, 0.4, 0.0), (1.3, 0.4))


def test_boost_preserves_quadratic_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        tau = rng.uniform(-5, 5)
        y1 = rng.uniform(-5, 5)
        s = rng.uniform(-2, 2)
        b_tau, b_y1 = boost_tau_y1(tau, y1, s)
        assert -b_tau**2 + b_y1**2 == pytest.approx(-tau**2 + y1**2, abs=1e-12)


def test_in_region_examples():
    inside = MinkowskiEvent(0.0, [1.0])
    assert require_region(inside.tau, inside.y[0]) == 1.0
    # the origin is excluded: the half-space is strict
    for e in (MinkowskiEvent(1.0, [0.0]), MinkowskiEvent(0.0, [0.0])):
        with pytest.raises(RegionError):
            require_region(e.tau, e.y[0])


def test_to_misner_values():
    m = to_misner(MinkowskiEvent(0.0, [2.0]))
    assert m.T == 1.0
    assert m.phi == 0.0
    assert m.phi_raw == 0.0

    # With the angular sign fixed by the quotient-metric pullback
    # (phi = -2 ln(u/2)), the event (0, 2e) carries phi_raw = -2.
    m = to_misner(MinkowskiEvent(0.0, [2.0 * E]))
    assert m.T == pytest.approx(E**2, rel=1e-15)
    assert m.phi_raw == pytest.approx(-2.0, abs=1e-15)
    assert m.phi == pytest.approx(TWO_PI - 2.0, abs=1e-14)
    assert m.branch == -1


def test_to_misner_horizon_limit():
    # approaching the half-space boundary u -> 0+ the unwrapped angle of
    # this representative runs away (to +inf under the pullback-fixed sign)
    small = to_misner(MinkowskiEvent(0.0, [1e-14]))
    smaller = to_misner(MinkowskiEvent(0.0, [1e-300]))
    assert smaller.phi_raw > small.phi_raw > 60.0


def test_to_misner_region_error_carries_pair():
    with pytest.raises(RegionError) as err:
        to_misner(MinkowskiEvent(1.0, [0.0]))
    assert err.value.tau == 1.0
    assert err.value.y1 == 0.0


def test_from_misner_branches():
    base = MisnerEvent(T=1.0, phi=0.0, spectators=[], phi_raw=0.0)
    np.testing.assert_allclose(from_misner(base, 0).coords(), [0.0, 2.0],
                               atol=1e-15)
    # branch 1 equals the generator applied to branch 0
    np.testing.assert_allclose(
        from_misner(base, 1).coords(),
        [2 * np.sinh(PI), 2 * np.cosh(PI)], rtol=1e-13,
    )
    np.testing.assert_allclose(
        from_misner(base, -1).coords(),
        [-2 * np.sinh(PI), 2 * np.cosh(PI)], rtol=1e-13,
    )


def test_roundtrip_random_events():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        tau = rng.uniform(-3, 3)
        u = rng.uniform(0.3, 6.0)
        spect = rng.uniform(-2, 2, size=1)
        e = MinkowskiEvent(tau, np.concatenate(([tau + u], spect)))
        m = to_misner(e)
        back = from_misner(m, m.branch)
        np.testing.assert_allclose(back.coords(), e.coords(), atol=1e-12)
        again = to_misner(back)
        assert again.T == pytest.approx(m.T, abs=1e-12)
        assert again.phi == pytest.approx(m.phi, abs=1e-12)


def test_misner_metric_blocks():
    np.testing.assert_array_equal(misner_metric(0.0), [[0.0, -1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(misner_metric(1.0), [[0.0, -1.0], [-1.0, -1.0]])
    g = misner_metric(2.5, 4)
    np.testing.assert_array_equal(g[2:, 2:], np.eye(2))
    for T in np.linspace(-5, 5, 11):
        assert np.linalg.det(misner_metric(T)) == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("T", [0.0, -2.5, np.linspace(-5.0, 5.0, 7).reshape(7, 1)])
def test_misner_metric_bitwise_equal_to_entrywise_build(T, dim):
    T = np.asarray(T, dtype=float)
    ref = np.empty(T.shape + (dim, dim))
    for i in range(dim):
        for j in range(dim):
            ref[..., i, j] = float(i == j and i >= 2) - float(i + j == 1)
    ref[..., 1, 1] = -T
    assert misner_metric(T, dim).tobytes() == ref.tobytes()


def test_quotient_isometry_residual_examples():
    assert quotient_isometry_residual(MinkowskiEvent(0.0, [2.0])) <= 1e-8
    assert quotient_isometry_residual(MinkowskiEvent(-1.0, [3.0])) <= 1e-8
    with pytest.raises(RegionError):
        quotient_isometry_residual(MinkowskiEvent(1.0, [0.0]))


def test_quotient_isometry_random_scan():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(300):
        tau = rng.uniform(-3, 3)
        u = rng.uniform(0.3, 6.0)
        spect = rng.uniform(-2, 2, size=1)
        e = MinkowskiEvent(tau, np.concatenate(([tau + u], spect)))
        worst = max(worst, quotient_isometry_residual(e))
    assert worst <= 1e-6


def test_quotient_jacobian_matches_fd_oracle():
    # the battery's own sample, at the quotient_isometry tolerance
    events = sample_region_events(1000)
    err = np.abs(quotient_jacobian(events) - fd_quotient_jacobian(events)).max()
    assert err <= 1e-6


def _mp_quotient_jacobian(event):
    """Jacobian of (T, phi_raw, spectators) at one event, each entry an
    mpmath derivative at 40 digits of the chart formulas."""
    n = len(event)
    x = [mp.mpf(float(c)) for c in event]

    def component(i):
        if i == 0:
            return lambda *c: (c[1] ** 2 - c[0] ** 2) / 4
        if i == 1:
            return lambda *c: PHI_SIGN * mp.log((c[1] - c[0]) / 2)
        return lambda *c: c[i]

    with mp.workdps(40):
        return [[mp.diff(component(i), x, tuple(int(k == j) for k in range(n)))
                 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("tau", [-100.0, 0.0, 100.0])
@pytest.mark.parametrize("log_u", [-5.0, 0.0, 5.0])
def test_quotient_jacobian_against_mpmath(log_u, tau, n):
    event = np.array([tau, tau + np.exp(log_u), 0.5, -1.25, 2.0][:n])
    jac = quotient_jacobian(event[None])[0]
    ref = _mp_quotient_jacobian(event)
    for i in range(n):
        for j in range(n):
            assert abs(jac[i, j] - ref[i][j]) <= 1e-14 * abs(ref[i][j]) + 1e-30, (i, j)


def test_quotient_isometry_wide_domain():
    """The exact pullback holds to 1e-10 over log u in [-5, 5], where a
    finite-difference Jacobian misses by about 1e-3 (g_phiphi = -T amplifies
    its error).  At |tau| <= 100 the exact pullback still loses about 2e-8
    absolute to cancellation in T (dphi)^2; light-cone coordinates would
    remove it."""
    rng = np.random.default_rng(53)
    # columns tau, log u and one spectator, drawn row by row
    events = rng.uniform([-3.0, -5.0, -2.0], [3.0, 5.0, 2.0], size=(2000, 3))
    events[:, 1] = events[:, 0] + np.exp(events[:, 1])
    assert quotient_isometry_residual_grid(events).max() <= 1e-10


def test_boost_shifts_phi_raw_by_one_period():
    e = MinkowskiEvent(0.3, [1.7, 0.5])
    m0 = to_misner(e)
    tau, y1 = boost_tau_y1(e.tau, float(e.y[0]), GENERATOR_RAPIDITY)
    m1 = to_misner(MinkowskiEvent(tau, [y1, *e.y[1:]]))
    assert m1.phi_raw - m0.phi_raw == pytest.approx(TWO_PI, abs=1e-12)
    assert m1.T == pytest.approx(m0.T, abs=1e-12)
    # quotient data agree after canonicalisation
    assert m1.phi == pytest.approx(m0.phi, abs=1e-12)
    assert m1.branch == m0.branch + 1


def test_compose_explicit_shift_one():
    m = compose_embedding(ChartPoint(0.0, [0.0]), "explicit")
    assert m.T == pytest.approx(0.0, abs=1e-15)
    assert m.phi == pytest.approx(np.log(2.0), abs=1e-14)


def test_compose_psi_toy():
    m = compose_embedding(ChartPoint(0.0, [0.0]), "psi_toy")
    assert m.T == pytest.approx(-1.0 / 9.0, abs=1e-15)
    assert m.phi == pytest.approx(2.0 * np.log(3.0), abs=1e-14)


def test_compose_psi_region_error():
    # y1 - tau = t + (2/3)(1+t)^(3/2) < 0 for t = -0.9
    with pytest.raises(RegionError) as err:
        compose_embedding(ChartPoint(-0.9, [0.0]), "psi_toy")
    assert err.value.y1 == pytest.approx(-0.9)


def test_compose_explicit_family_default_keeps_region():
    for t in np.linspace(-3, 3, 13):
        m = compose_embedding(ChartPoint(t, [0.4]), "explicit")
        assert np.isfinite(m.T)


def test_misner_event_validation():
    with pytest.raises(ValueError):
        MisnerEvent(T=1.0, phi=-0.1, spectators=[], phi_raw=-0.1)
    with pytest.raises(ValueError):
        MisnerEvent(T=1.0, phi=TWO_PI, spectators=[], phi_raw=TWO_PI)
    m = MisnerEvent(T=1.0, phi=1.0, spectators=[2.0], phi_raw=1.0 + 2 * TWO_PI)
    assert m.branch == 2


def test_quotient_isometry_higher_dimension():
    # spectators beyond one: the quotient block is still a local isometry
    e = MinkowskiEvent(0.4, [2.1, -0.8, 1.6, 0.2])
    assert quotient_isometry_residual(e) <= 1e-8


def test_compose_psi_higher_dimension():
    m = compose_embedding(ChartPoint(0.0, [1.0, 2.0, 3.0]), "psi_toy")
    assert m.T == pytest.approx(-1.0 / 9.0, abs=1e-15)
    np.testing.assert_array_equal(m.spectators, [1.0, 2.0, 3.0])
