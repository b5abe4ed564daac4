import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigembed import (ChartPoint, DomainError, EvaluationError,
                      ImmersionError, PreconditionError, isometry_residual,
                      isometry_residual_grid, map_jacobian, psi_toy,
                      psi_toy_map, pullback, temporal_f, toy_model)
from sigembed.minkowski import (EmbeddingMap, MinkowskiEvent, _pullback_gram,
                                pullback_grid)
from sigembed.verify import perturbed_psi_map


def test_temporal_f_values():
    assert temporal_f(0.0) == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert temporal_f(3.0) == pytest.approx(-16.0 / 3.0, abs=1e-14)
    # one-sided limit toward the domain boundary
    assert temporal_f(-1.0 + 1e-12) == pytest.approx(0.0, abs=1e-15)
    assert temporal_f(-1.0 + 1e-12) < 0.0


def test_temporal_f_domain_error():
    with pytest.raises(DomainError):
        temporal_f(-1.0)
    with pytest.raises(DomainError):
        temporal_f(-2.0)


def test_temporal_f_strictly_decreasing():
    ts = np.linspace(-0.999, 10, 300)
    vals = [temporal_f(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_psi_toy_values():
    np.testing.assert_allclose(
        psi_toy(ChartPoint(0.0, [5.0])).coords(), [-2.0 / 3.0, 0.0, 5.0], atol=1e-15
    )
    np.testing.assert_allclose(
        psi_toy(ChartPoint(3.0, [0.0])).coords(), [-16.0 / 3.0, 3.0, 0.0], atol=1e-14
    )
    np.testing.assert_allclose(
        psi_toy(ChartPoint(0.0, [1.0, 2.0])).coords(),
        [-2.0 / 3.0, 0.0, 1.0, 2.0], atol=1e-15,
    )


def test_psi_toy_injective_on_grid():
    m = psi_toy_map(2)
    ts = np.linspace(-0.9, 3, 25)
    xs = np.linspace(-2, 2, 25)
    tt, xx = np.meshgrid(ts, xs)
    coords = np.column_stack([tt.ravel(), xx.ravel()])
    images = m.value(coords)
    assert np.unique(images, axis=0).shape[0] == images.shape[0]


@pytest.mark.parametrize("t,expected", [
    (1.0, [[-1.0, 0.0], [0.0, 1.0]]),
    (0.0, [[0.0, 0.0], [0.0, 1.0]]),
    (-0.5, [[0.5, 0.0], [0.0, 1.0]]),
])
def test_pullback_matches_source_metric(t, expected, cfg):
    map_ = psi_toy_map(2)
    model = toy_model(2)
    p = ChartPoint(t, [0.7])
    np.testing.assert_allclose(pullback(map_, model, p, "analytic"), expected,
                               atol=1e-14)
    np.testing.assert_allclose(
        pullback(map_, model, p, "finite_difference", cfg), expected, atol=1e-6
    )


def test_pullback_modes_agree(cfg):
    map_ = psi_toy_map(3)
    model = toy_model(3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = ChartPoint(rng.uniform(-0.9, 5), rng.uniform(-3, 3, size=2))
        a = pullback(map_, model, p, "analytic")
        f = pullback(map_, model, p, "finite_difference", cfg)
        assert np.abs(a - f).max() <= 10 * cfg.fd_step


def test_pullback_rank_deficiency_reported():
    # collapse the embedding along x so the Jacobian loses a column
    def value(coords):
        return np.column_stack([coords[:, 0], coords[:, 0], np.zeros(len(coords))])

    degenerate = EmbeddingMap(2, 3, value)
    with pytest.raises(ImmersionError) as err:
        pullback(degenerate, None, ChartPoint(1.0, [0.0]),
                 "finite_difference")
    assert err.value.rank == 1
    # the grid sweep makes the same rank test
    with pytest.raises(ImmersionError) as err:
        isometry_residual_grid(degenerate, toy_model(2),
                               [[1.0, 0.0], [2.0, 0.5]], "finite_difference")
    assert err.value.rank == 1


def svd_rank(jac):
    """Reference: singular values above 1e-10 of the largest."""
    sv = np.linalg.svd(jac, compute_uv=False)
    return np.sum(sv > 1e-10 * sv[:, :1], axis=1)


def jacobian_map(jacs):
    """Map on rows 0..m-1 (coordinate t = row index) with given Jacobians."""
    return EmbeddingMap(2, 3, value=lambda c: np.zeros((len(c), 3)),
                        jacobian=lambda c: jacs[c[:, 0].astype(int)])


def rotated_jacobian(ratio, seed=4):
    # sigma_min / sigma_max = ratio, with no entry exactly zero
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    return (u[:, :2] * [2.0, 2.0 * ratio]) @ v.T


@pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-9, 1e-11, 0.0])
def test_pullback_rank_matches_svd_reference(ratio):
    jacs = rotated_jacobian(ratio)[None]
    coords = np.zeros((1, 2))
    rank = int(svd_rank(jacs)[0])
    if rank == 2:
        eta = np.diag([-1.0, 1.0, 1.0])
        back = pullback(jacobian_map(jacs), None, ChartPoint(0.0, [0.0]))
        np.testing.assert_allclose(back, jacs[0].T @ eta @ jacs[0], rtol=1e-14)
        assert ratio >= 1e-9
    else:
        with pytest.raises(ImmersionError) as err:
            isometry_residual_grid(jacobian_map(jacs), None, coords)
        assert err.value.rank == rank == 1
        assert ratio <= 1e-11


@pytest.mark.parametrize("k", [0, 17, 49])
@pytest.mark.parametrize("ratio", [1e-11, 0.0])
def test_pullback_names_the_only_deficient_row(k, ratio):
    # full-rank rows of every conditioning the Gram screen and the SVD
    # fallback see, and one deficient row k
    jacs = np.stack([rotated_jacobian(r, seed=i) for i, r in
                     enumerate(np.tile([1.0, 1e-3, 1e-6, 1e-9, 0.3], 10))])
    jacs[k] = rotated_jacobian(ratio, seed=100 + k)
    ranks = svd_rank(jacs)
    assert np.flatnonzero(ranks < 2).tolist() == [k]
    coords = np.column_stack([np.arange(50.0), np.linspace(-1.0, 1.0, 50)])
    with pytest.raises(ImmersionError) as err:
        pullback_grid(jacobian_map(jacs), None, coords)
    assert err.value.rank == ranks[k]
    assert str(err.value) == (
        f"embedding Jacobian has rank {ranks[k]} < 2 at {coords[k]}")


def test_pullback_names_non_finite_jacobian_point():
    # sqrt(t - 1) is nan for t < 1, so the difference quotients are too
    m = EmbeddingMap(2, 3, lambda c: np.column_stack([np.sqrt(c[:, 0] - 1), c]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationError) as err:
            pullback(m, None, ChartPoint(0.5, [0.0]), "finite_difference")
        assert str(err.value) == "non-finite embedding Jacobian at [0.5 0. ]"
        coords = np.array([[2.0, 0.0], [3.0, 1.0], [0.25, -1.0], [0.5, 0.0]])
        with pytest.raises(EvaluationError, match=r"at \[ 0.25 -1.  \]"):
            pullback_grid(m, None, coords, "finite_difference")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), m=st.integers(1, 8))
def test_pullback_gram_matches_einsum_and_screen_is_sound(data, n, m):
    big_n = data.draw(st.integers(n, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # random or near-axis columns (as the psi and explicit maps give), scaled
    # apart across the 1e-4 conditioning edge; some nearly dependent, some
    # entries exactly zero, the overall magnitude on a log scale
    jac = rng.normal(size=(m, big_n, n)) * 10.0 ** rng.uniform(-8, 0, size=(m, 1, 1))
    jac[:, :n, :] += np.eye(n) * (rng.random((m, 1, 1)) < 0.5)
    jac *= 10.0 ** rng.uniform(-6, 0, size=(m, 1, n))
    near = rng.random(m) < 0.2
    jac[near, :, -1] = (jac[near, :, 0] * rng.normal()
                        + 10.0 ** rng.uniform(-14, -2) * jac[near, :, -1])
    jac[rng.random(jac.shape) < 0.1] = 0.0
    jac *= 10.0 ** data.draw(st.integers(-100, 100))
    eta = np.ones(big_n)
    eta[0] = -1.0
    back, certified = _pullback_gram(jac)
    want = np.einsum("mia,i,mib->mab", jac, eta, jac)
    assert back.shape == want.shape and back.tobytes() == want.tobytes()  # bitwise
    sv = np.linalg.svd(jac[certified], compute_uv=False)
    assert (sv[:, -1] > 1e-4 * sv[:, 0]).all()


def test_pullback_requires_analytic_jacobian_when_asked():
    m = EmbeddingMap(2, 3, lambda c: np.column_stack([c[:, 0], c[:, 0], c[:, 1]]))
    with pytest.raises(PreconditionError):
        pullback(m, None, ChartPoint(1.0, [0.0]), "analytic")


def test_psi_jacobian_full_rank_near_boundary():
    map_ = psi_toy_map(2)
    for t in [-0.999999, -0.9, 0.0, 10.0]:
        jac = map_jacobian(map_, ChartPoint(t, [0.0]))
        assert np.linalg.matrix_rank(jac) == 2


def test_isometry_residual_grid_and_pointwise_agree(cfg):
    map_ = psi_toy_map(2)
    model = toy_model(2)
    ts = np.linspace(-0.99, 10, 40)
    xs = np.linspace(-5, 5, 10)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    coords = np.column_stack([tt.ravel(), xx.ravel()])
    grid_worst = isometry_residual_grid(map_, model, coords, "finite_difference", cfg)
    point_worst = max(
        isometry_residual(map_, model, ChartPoint.from_coords(c),
                          "finite_difference", cfg)
        for c in coords[:: 40]
    )
    assert grid_worst <= 1e-6
    assert point_worst <= grid_worst + 1e-12
    # a model of another dimension is refused, not broadcast
    with pytest.raises(PreconditionError):
        isometry_residual_grid(map_, toy_model(3), coords, "finite_difference", cfg)


def test_perturbed_map_residual_detects_non_isometry():
    model = toy_model(2)
    bad = perturbed_psi_map(2, scale=1.01)
    res = isometry_residual(bad, model, ChartPoint(1.0, [0.0]), "analytic")
    # residual = |(scale^2 - 1)(1 + t)| at the tt entry
    assert res == pytest.approx((1.01**2 - 1.0) * 2.0, rel=1e-10)
    assert res == pytest.approx(0.0402, abs=1e-4)


def test_fd_jacobian_of_psi_matches_analytic(cfg):
    map_ = psi_toy_map(2)
    p = ChartPoint(2.0, [1.5])
    np.testing.assert_allclose(
        map_jacobian(map_, p, "finite_difference", cfg), map_jacobian(map_, p),
        atol=1e-8
    )


def test_minkowski_event_validation():
    with pytest.raises(ValueError):
        MinkowskiEvent(np.nan, [0.0])
    e = MinkowskiEvent(1.0, [2.0, 3.0])
    assert e.dim == 3
    np.testing.assert_array_equal(e.coords(), [1.0, 2.0, 3.0])
