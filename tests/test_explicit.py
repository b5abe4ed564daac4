import numpy as np
import pytest

from helpers import simpson_raw_arc, simpson_substituted_arc

from sigembed import (ChartPoint, DivergenceError, DomainError,
                      HyperbolaFamily, PoleError, THETA_POLE, arc_integral,
                      asymptotic_theta, embed_explicit, embed_explicit_grid,
                      explicit_embedding_map, hyperbola_xi, isometry_residual,
                      ode_residual, t_of_theta, theta_of_t, theta_of_t_grid,
                      toy_model)
from sigembed.explicit import EMBED_TIME_SIGN

# Frozen from the kink-removing composite-Simpson oracle at 10^6 panels
# (machine-limited; see helpers.simpson_substituted_arc).
ARC_AT_0P1 = 0.05632108147125026
ARC_AT_MINUS_2 = -1.861995003208105


def test_hyperbola_xi_values():
    assert hyperbola_xi(0.0) == 0.0
    assert hyperbola_xi(1.0 / (2.0 * np.sqrt(2.0))) == pytest.approx(
        np.sqrt(2.0) / 2.0, abs=1e-14
    )
    # denominator -> 0+ as theta approaches the pole from below
    assert hyperbola_xi(THETA_POLE - 1e-9) > 1e8


def test_hyperbola_pole_error():
    with pytest.raises(PoleError):
        hyperbola_xi(THETA_POLE)
    # the pole moves with the translated curve
    fam = HyperbolaFamily(1.0)
    with pytest.raises(PoleError):
        hyperbola_xi(THETA_POLE - fam.offset + 1e-15, fam)
    assert np.isfinite(hyperbola_xi(THETA_POLE - fam.offset - 1e-6, fam))


def test_hyperbola_shift_is_translation():
    fam = HyperbolaFamily(1.0)
    thetas = np.linspace(-2.0, 0.2, 20)
    for th in thetas:
        assert hyperbola_xi(th - fam.offset, fam) == pytest.approx(
            hyperbola_xi(th) + fam.offset, abs=1e-12
        )


def test_arc_integral_zero_and_sign():
    assert arc_integral(0.0) == 0.0
    assert arc_integral(0.3) > 0.0
    assert arc_integral(-0.3) < 0.0


def test_arc_integral_against_oracles():
    value = arc_integral(0.1)
    assert value == pytest.approx(ARC_AT_0P1, abs=1e-12)
    # blunt raw-integrand Simpson at 10^6 panels carries the sqrt-kink error
    assert value == pytest.approx(simpson_raw_arc(0.1), abs=1e-8)
    assert arc_integral(-2.0) == pytest.approx(ARC_AT_MINUS_2, abs=1e-12)
    assert arc_integral(-2.0) == pytest.approx(simpson_raw_arc(-2.0), abs=1e-7)


def test_arc_integral_small_theta_asymptotic():
    amp = 4.0 * 2.0**0.25 / 3.0
    for theta in [1e-2, 1e-3, 1e-4, -1e-3]:
        lead = amp * abs(theta) ** 1.5 * np.sign(theta)
        # next order enters at relative O(theta)
        assert arc_integral(theta) == pytest.approx(lead, rel=1.5 * abs(theta))


def test_arc_integral_divergence_error():
    with pytest.raises(DivergenceError):
        arc_integral(THETA_POLE)
    with pytest.raises(DivergenceError):
        arc_integral(1.0)


def test_t_of_theta_roundtrip():
    for t in [-5.0, -1.0, -0.1, 0.1, 1.0, 5.0]:
        assert t_of_theta(theta_of_t(t)) == pytest.approx(t, abs=1e-10)
    assert t_of_theta(0.0) == 0.0


def test_t_of_theta_tiny_theta():
    # t = 2^(5/6) theta (1 + O(theta)) near 0; the closed form must neither
    # lose digits to I ~ theta^(3/2) nor underflow to 0
    for theta in [1e-215, -1e-215, 1e-216, -1e-216, 1e-300]:
        assert t_of_theta(theta) == pytest.approx(2.0 ** (5.0 / 6.0) * theta,
                                                  rel=1e-13, abs=0.0)


def test_t_of_theta_large_negative_consistency():
    # far down the branch the integrand is ~1, so I(theta) ~ theta
    theta = -500.0
    t = t_of_theta(theta)
    assert t == pytest.approx(-(1.5 * abs(theta)) ** (2.0 / 3.0), rel=1e-3)


def test_theta_of_t_fixed_points_and_monotonicity():
    assert theta_of_t(0.0) == 0.0
    ts = np.linspace(-30, 30, 401)
    thetas = theta_of_t_grid(ts)
    assert (np.diff(thetas) > 0).all()
    assert (thetas < THETA_POLE).all()


def test_theta_of_t_small_asymptotic():
    for t in [1e-3, -1e-3, 1e-4, -1e-4, 1e-5, -1e-5]:
        small, _ = asymptotic_theta(t)
        assert abs(theta_of_t(t) - small) / abs(t) <= 1e-2


def test_theta_of_t_large_negative():
    _, large = asymptotic_theta(-100.0)
    assert large == pytest.approx(-2000.0 / 3.0, abs=1e-9)
    assert abs(theta_of_t(-100.0) - large) / abs(large) <= 1e-2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    from sigembed import _kernels

    ts = np.array([-2.0, 0.0, bad, 3.0])
    with pytest.raises(ValueError):
        theta_of_t_grid(ts)
    with pytest.raises(ValueError):
        _kernels.theta_root_batch(ts)
    with pytest.raises(ValueError):
        theta_of_t(bad)
    with pytest.raises(ValueError):
        arc_integral(bad)


def test_theta_of_t_overflow_is_domain_error():
    # the largest |t| the inversion takes; beyond it the Newton variable overflows
    t_max = 3.3127948887274683e205
    for sign in (1.0, -1.0):
        assert np.isfinite(theta_of_t(sign * t_max))
        with pytest.raises(DomainError):
            theta_of_t_grid([0.0, sign * np.nextafter(t_max, np.inf)])


def test_asymptotic_theta_closed_forms():
    small, large = asymptotic_theta(1e-4)
    assert small == pytest.approx(1e-4 / 2.0 ** (5.0 / 6.0), rel=1e-15)
    assert asymptotic_theta(0.0) == (0.0, 0.0)
    _, large = asymptotic_theta(-100.0)
    assert large == pytest.approx(-666.6666666666666, abs=1e-9)


def test_embed_explicit_through_origin():
    e = embed_explicit(ChartPoint(0.0, [3.0]))
    np.testing.assert_allclose(e.coords(), [0.0, 0.0, 3.0], atol=1e-15)


def test_embed_explicit_shifted():
    fam = HyperbolaFamily(1.0)
    e = embed_explicit(ChartPoint(0.0, [3.0]), fam)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(e.coords(), [-s, s, 3.0], atol=1e-15)
    assert e.tau + float(e.y[0]) == pytest.approx(0.0, abs=1e-15)
    assert float(e.y[0]) - e.tau > 0.0  # strictly inside the half-space


@pytest.mark.parametrize("t", [0.0, 1.0, -0.5])
def test_ode_residual_examples(t, cfg):
    assert ode_residual(t, HyperbolaFamily(0.0), cfg) <= 1e-6


def test_family_covariance(cfg):
    # translating the family shifts the image rigidly and leaves the
    # first-order identity untouched
    fam = HyperbolaFamily(2.5)
    off = fam.offset
    for t in [-4.0, -0.3, 0.6, 3.0]:
        base = embed_explicit(ChartPoint(t, [0.9]), HyperbolaFamily(0.0))
        moved = embed_explicit(ChartPoint(t, [0.9]), fam)
        np.testing.assert_allclose(
            moved.coords() - base.coords(), [-off, off, 0.0], atol=1e-12
        )
        assert ode_residual(t, fam, cfg) <= 1e-6


def test_explicit_map_isometry_small_grid(cfg):
    model = toy_model(2)
    map_ = explicit_embedding_map(2, HyperbolaFamily(0.0))
    for t in np.linspace(-9.7, 9.7, 21):
        r = isometry_residual(map_, model, ChartPoint(t, [1.1]),
                              "finite_difference", cfg)
        assert r <= 1e-5
        r_an = isometry_residual(map_, model, ChartPoint(t, [1.1]),
                                 "analytic", cfg)
        assert r_an <= 1e-10


def test_explicit_map_time_roundtrip_and_membership():
    family = HyperbolaFamily(1.0)
    map_ = explicit_embedding_map(2, family)
    for t in [-3.0, 0.0, 0.7]:
        e = map_.value_eval(ChartPoint(t, [0.4]))
        back = EMBED_TIME_SIGN * t_of_theta(e.tau + family.offset)
        assert back == pytest.approx(t, abs=1e-9)
        assert abs(map_.on_image_residual(e.batch())[0]) <= 1e-12
    off_image = type(e)(e.tau, e.y + np.array([0.5, 0.0]))
    assert abs(map_.on_image_residual(off_image.batch())[0]) > 0.1


def test_embed_explicit_grid_matches_pointwise():
    fam = HyperbolaFamily(1.0)
    ts = np.linspace(-3, 3, 11)
    tau, xi = embed_explicit_grid(ts, fam)
    for t, a, b in zip(ts, tau, xi):
        e = embed_explicit(ChartPoint(t, [0.0]), fam)
        assert a == pytest.approx(e.tau, abs=1e-12)
        assert b == pytest.approx(float(e.y[0]), abs=1e-12)


def test_family_validation():
    with pytest.raises(ValueError):
        HyperbolaFamily(-0.5)
    with pytest.raises(ValueError):
        HyperbolaFamily(np.inf)


def test_explicit_isometry_grid_analytic_fallback(cfg):
    # the grid sweep takes the explicit map's analytic Jacobian on arrays
    from sigembed import isometry_residual_grid

    model = toy_model(2)
    map_ = explicit_embedding_map(2, HyperbolaFamily(0.0))
    coords = np.column_stack([np.linspace(-2, 2, 9), np.full(9, 0.3)])
    assert isometry_residual_grid(map_, model, coords, "analytic", cfg) <= 1e-10
