import numpy as np
import pytest

from helpers import simpson_raw_arc, simpson_substituted_arc

from sigembed import (ChartPoint, DomainError, HyperbolaFamily, THETA_POLE,
                      asymptotic_theta, embed_explicit_grid, explicit_embedding_map,
                      hyperbola_xi, isometry_residual_grid, ode_residual_grid,
                      t_of_theta, theta_of_t, theta_of_t_grid, toy_model)
from sigembed._kernels import arc_integral_batch
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


def arc_integral(thetas):
    """I(theta) over an array of theta (nan at or beyond the pole)."""
    return arc_integral_batch(np.asarray(thetas, dtype=float))[0]


def test_hyperbola_pole_error():
    with pytest.raises(DomainError, match="at or beyond the branch pole"):
        hyperbola_xi(THETA_POLE)
    # the pole moves with the translated curve
    fam = HyperbolaFamily(1.0)
    with pytest.raises(DomainError, match="at or beyond the branch pole"):
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
    zero, positive, negative = arc_integral([0.0, 0.3, -0.3])
    assert zero == 0.0
    assert positive > 0.0
    assert negative < 0.0


def test_arc_integral_against_oracles():
    value, far = arc_integral([0.1, -2.0])
    assert value == pytest.approx(ARC_AT_0P1, abs=1e-12)
    # blunt raw-integrand Simpson at 10^6 panels carries the sqrt-kink error
    assert value == pytest.approx(simpson_raw_arc(0.1), abs=1e-8)
    assert far == pytest.approx(ARC_AT_MINUS_2, abs=1e-12)
    assert far == pytest.approx(simpson_raw_arc(-2.0), abs=1e-7)


def test_arc_integral_small_theta_asymptotic():
    amp = 4.0 * 2.0**0.25 / 3.0
    thetas = [1e-2, 1e-3, 1e-4, -1e-3]
    for theta, value in zip(thetas, arc_integral(thetas)):
        lead = amp * abs(theta) ** 1.5 * np.sign(theta)
        # next order enters at relative O(theta)
        assert value == pytest.approx(lead, rel=1.5 * abs(theta))


def test_arc_integral_divergence_error():
    with pytest.raises(DomainError, match="arc integral diverges"):
        t_of_theta(THETA_POLE)
    with pytest.raises(DomainError, match="arc integral diverges"):
        t_of_theta(1.0)
    assert np.isnan(arc_integral([THETA_POLE, 1.0])).all()


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
        t_of_theta(bad)


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
    e = explicit_embedding_map(2).value(np.array([[0.0, 3.0]]))[0]
    np.testing.assert_allclose(e, [0.0, 0.0, 3.0], atol=1e-15)


def test_embed_explicit_shifted():
    fam = HyperbolaFamily(1.0)
    tau, y1, y2 = explicit_embedding_map(2, fam).value(np.array([[0.0, 3.0]]))[0]
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose([tau, y1, y2], [-s, s, 3.0], atol=1e-15)
    assert tau + y1 == pytest.approx(0.0, abs=1e-15)
    assert y1 - tau > 0.0  # strictly inside the half-space


@pytest.mark.parametrize("t", [0.0, 1.0, -0.5])
def test_ode_residual_examples(t):
    assert ode_residual_grid(np.array([t]), HyperbolaFamily(0.0))[0] <= 1e-6


def test_family_covariance():
    # translating the family shifts the image rigidly and leaves the
    # first-order identity untouched
    fam = HyperbolaFamily(2.5)
    off = fam.offset
    ts = np.array([-4.0, -0.3, 0.6, 3.0])
    coords = np.column_stack([ts, np.full(ts.size, 0.9)])
    base = explicit_embedding_map(2, HyperbolaFamily(0.0)).value(coords)
    moved = explicit_embedding_map(2, fam).value(coords)
    np.testing.assert_allclose(moved - base, np.tile([-off, off, 0.0], (ts.size, 1)),
                               atol=1e-12)
    assert (ode_residual_grid(ts, fam) <= 1e-6).all()


def test_explicit_map_isometry_small_grid():
    model = toy_model(2)
    map_ = explicit_embedding_map(2, HyperbolaFamily(0.0))
    coords = np.column_stack([np.linspace(-9.7, 9.7, 21), np.full(21, 1.1)])
    assert isometry_residual_grid(map_, model, coords, "finite_difference") <= 1e-5
    assert isometry_residual_grid(map_, model, coords, "analytic") <= 1e-10


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
    map_ = explicit_embedding_map(2, fam)
    for t, a, b in zip(ts, tau, xi):
        e = map_.value_eval(ChartPoint(t, [0.0]))
        assert a == pytest.approx(e.tau, abs=1e-12)
        assert b == pytest.approx(float(e.y[0]), abs=1e-12)


def test_family_validation():
    with pytest.raises(ValueError):
        HyperbolaFamily(-0.5)
    with pytest.raises(ValueError):
        HyperbolaFamily(np.inf)


def test_explicit_isometry_grid_analytic_fallback():
    # the grid sweep takes the explicit map's analytic Jacobian on arrays
    model = toy_model(2)
    map_ = explicit_embedding_map(2, HyperbolaFamily(0.0))
    coords = np.column_stack([np.linspace(-2, 2, 9), np.full(9, 0.3)])
    assert isometry_residual_grid(map_, model, coords, "analytic") <= 1e-10
