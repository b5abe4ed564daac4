import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sigembed import (ChartPoint, EvaluationError, MetricModel,
                      PreconditionError, SignatureClass, classify_signature_grid,
                      eval_metric_grid, isometry_residual_grid, lc_regularity_grid,
                      metric_derivatives_grid, psi_toy_map,
                      radical_transversality_grid, slice_metric_grid, toy_model)
from sigembed.config import FD_STEP


def test_eval_metric_canonical_values():
    m = toy_model(2)
    np.testing.assert_array_equal(
        eval_metric_grid(m, [[3.0, 7.0], [0.0, 0.0]]),
        [[[-3.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]],
    )
    m3 = toy_model(3)
    np.testing.assert_array_equal(
        eval_metric_grid(m3, [[-4.0, 1.0, 1.0]]), [np.diag([4.0, 1.0, 1.0])]
    )


def test_eval_metric_rejects_non_finite_with_index():
    def components(coords):
        g = np.broadcast_to(np.eye(2), (len(coords), 2, 2)).copy()
        g[:, 0, 1] = g[:, 1, 0] = np.nan
        return g

    m = MetricModel(2, components)
    with pytest.raises(EvaluationError) as err:
        eval_metric_grid(m, [[0.0, 0.0]])
    assert err.value.index == (0, 1)
    # the grid classifier validates the same way
    with pytest.raises(EvaluationError) as err:
        classify_signature_grid(m, [[0.0, 0.0], [1.0, 0.0]])
    assert err.value.index == (0, 1)


def test_eval_metric_rejects_asymmetric():
    m = MetricModel(2, lambda c: np.array([[[1.0, 0.5], [0.0, 1.0]]] * len(c)))
    with pytest.raises(EvaluationError) as err:
        eval_metric_grid(m, [[0.0, 0.0]])
    assert err.value.index == (0, 1)

    def components(coords):
        # g_12 - g_21 = 1e-9 on rows with t > 0, scaled by max|g| = max(1, |t|)
        g = np.broadcast_to(np.eye(3), (len(coords), 3, 3)).copy()
        g[:, 0, 0] = -coords[:, 0]
        g[coords[:, 0] > 0.0, 1, 2] += 1e-9
        return g

    m3 = MetricModel(3, components)
    # within 1e-12 of the largest component at t = 1e4: accepted
    eval_metric_grid(m3, [[1e4, 0.0, 0.0]])
    with pytest.raises(EvaluationError, match=r"at point \[ 2\.  3\. -4\.\]") as err:
        classify_signature_grid(m3, [[-1.0, 0.0, 0.0], [2.0, 3.0, -4.0]])
    assert err.value.index == (1, 2)


@pytest.mark.parametrize("n,entry", [(2, (0, 1)), (3, (2, 0)), (4, (0, 3))])
def test_time_space_components_rejected(n, entry):
    def components(coords):
        g = np.broadcast_to(np.eye(n), (len(coords), n, n)).copy()
        g[:, 0, 0] = -1.0
        cross = coords[:, 0] > 1.0
        g[cross, entry[0], entry[1]] = g[cross, entry[1], entry[0]] = 0.3
        return g

    m = MetricModel(n, components)
    coords = np.zeros((3, n))
    coords[:, 0] = [0.5, 1.5, 2.5]
    index = (0, max(entry))
    with pytest.raises(EvaluationError, match=r"at point \[1\.5") as err:
        classify_signature_grid(m, coords)
    assert err.value.index == index
    with pytest.raises(EvaluationError) as err:
        eval_metric_grid(m, coords[1:2])
    assert err.value.index == index
    if n == 2:
        with pytest.raises(EvaluationError) as err:
            isometry_residual_grid(psi_toy_map(2), m, coords, "analytic")
        assert err.value.index == index


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_signature_by_sign_of_t(n):
    m = toy_model(n)
    coords = np.column_stack([[-1.0, 0.0, 2.0]] + [np.full(3, 0.5)] * (n - 1))
    classes, neg, zero, pos = classify_signature_grid(m, coords)
    assert [SignatureClass(int(c)) for c in classes] == [
        SignatureClass.RIEMANNIAN, SignatureClass.DEGENERATE, SignatureClass.LORENTZIAN]
    assert (neg[0], zero[0], pos[0]) == (0, 0, n)
    assert zero[1] == 1
    assert (neg[2], zero[2], pos[2]) == (1, 0, n - 1)


def test_classify_zero_band_is_relative():
    m = toy_model(2)
    # |t| below the relative band counts as degenerate, above it does not
    classes = classify_signature_grid(m, [[5e-11, 0.0], [1e-9, 0.0]], tol=1e-10)[0]
    assert list(classes) == [SignatureClass.DEGENERATE, SignatureClass.LORENTZIAN]


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_classify_rejects_tol_outside_positive_reals(tol):
    # nan and inf bands used to classify every point as degenerate
    m = toy_model(2)
    with pytest.raises(PreconditionError, match="tol"):
        classify_signature_grid(m, np.array([[1.0, 0.0]]), tol)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_radical_and_lc_reject_tol_outside_positive_reals(tol):
    # nan and inf read every point as non-transverse and every null
    # direction as irregular, (1, 0.3) off the locus included
    m = toy_model(2)
    with pytest.raises(PreconditionError, match="tol"):
        radical_transversality_grid(m, np.array([[0.0, 0.3], [1.0, 0.3]]), tol)
    with pytest.raises(PreconditionError, match="tol"):
        lc_regularity_grid(m, np.array([[0.0, 0.3]]), np.array([[1.0, 0.0]]), tol)


def test_classify_rejects_two_time_directions():
    m = MetricModel(2, lambda c: np.array([np.diag([-1.0, -1.0])] * len(c)))
    with pytest.raises(PreconditionError):
        classify_signature_grid(m, [[0.0, 0.0]])


def test_classify_grid_matches_pointwise():
    m = toy_model(3)
    coords = np.column_stack([
        np.linspace(-2, 2, 41), np.full(41, 0.3), np.full(41, -1.2),
    ])
    classes, neg, zero, pos = classify_signature_grid(m, coords)
    for c, row in zip(classes, coords):
        assert c == classify_signature_grid(m, row[None])[0][0]
    assert (neg + zero + pos == 3).all()


def full_matrix_signature(g, tol):
    """Reference: eigenvalues of the whole matrix, counted by reductions."""
    eig = np.linalg.eigvalsh(g)
    band = tol * np.abs(eig).max(axis=1, keepdims=True)
    neg = (eig < -band).sum(axis=1)
    zero = (np.abs(eig) <= band).sum(axis=1)
    pos = (eig > band).sum(axis=1)
    classes = np.where(zero >= 1, SignatureClass.DEGENERATE,
                       np.where(neg == 0, SignatureClass.RIEMANNIAN,
                                SignatureClass.LORENTZIAN))
    return classes, neg, zero, pos, (zero == 0) & (neg >= 2)


# eigenvalue magnitudes: mostly of order one, some on a log scale down to
# 1e-12 (inside and outside the zero band), some exactly 0
_ratios = st.integers(0, 7).flatmap(lambda kind: (
    st.just(0.0) if kind == 0
    else st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e) if kind == 1
    else st.floats(0.1, 1.0)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), m=st.integers(1, 6),
       tol=st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_block_classes_match_full_matrix(data, n, m, tol):
    # each row: g_tt and a spatial block with drawn eigenvalues lam, exactly
    # diagonal (read off directly), rotated, or for n = 4 rotated in its
    # first two axes only (both through eigvalsh)
    rows = st.lists(_ratios, min_size=n, max_size=n)
    signs = st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)
    lam = (np.array(data.draw(st.lists(rows, min_size=m, max_size=m)))
           * np.array(data.draw(st.lists(signs, min_size=m, max_size=m)))
           * data.draw(st.sampled_from([1e-90, 1e-3, 1.0, 1e5, 1e90])))
    lam[np.abs(lam).max(axis=1) == 0.0, 0] = 1.0
    # |lam| / max|lam| stays 1e-6 of tol and 1e-12 (far above eigvalsh
    # rounding) away from the band edge tol
    rel = np.abs(lam) / np.abs(lam).max(axis=1, keepdims=True)
    assume(np.all(np.abs(rel - tol) > max(1e-6 * tol, 1e-12)))
    kind = np.array(data.draw(st.lists(st.sampled_from(["diagonal", "rotated", "partial"]),
                                       min_size=m, max_size=m)))
    diagonal = kind == "diagonal"
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    g = np.zeros((m, n, n))
    g[:, 0, 0] = lam[:, 0]
    for k in range(m):
        if diagonal[k]:
            g[k, 1:, 1:] = np.diag(lam[k, 1:])
            continue
        q = np.eye(n - 1)
        axes = 2 if kind[k] == "partial" and n == 4 else n - 1
        q[:axes, :axes] = np.linalg.qr(rng.normal(size=(axes, axes)))[0]
        block = (q * lam[k, 1:]) @ q.T
        g[k, 1:, 1:] = 0.5 * (block + block.T)
    # the coordinate t picks the row
    model = MetricModel(n, lambda c: g[c[:, 0].astype(int)].copy())
    coords = np.zeros((m, n))
    coords[:, 0] = np.arange(m)
    _, positive_definite = slice_metric_grid(model, coords)
    np.testing.assert_array_equal(positive_definite,
                                  np.linalg.eigvalsh(g[:, 1:, 1:])[:, 0] > 0.0)
    classes, neg, zero, pos, two_times = full_matrix_signature(g, tol)
    if two_times.any():
        with pytest.raises(PreconditionError, match="negative eigenvalues"):
            classify_signature_grid(model, coords, tol)
    keep = ~two_times
    got = classify_signature_grid(model, coords[keep], tol)
    assert list(got[0]) == list(classes[keep])
    for have, want in zip(got[1:], (neg, zero, pos)):
        np.testing.assert_array_equal(have, want[keep])
    for k in np.flatnonzero(keep):
        got = classify_signature_grid(model, coords[k:k + 1], tol)
        assert (got[0][0], got[1][0], got[2][0], got[3][0]) == (
            classes[k], neg[k], zero[k], pos[k])


def test_toy_determinant_is_minus_t():
    m = toy_model(4)
    rng = np.random.default_rng(0)
    coords = np.array([[rng.uniform(-5, 5), *rng.uniform(-5, 5, size=3)]
                       for _ in range(50)])
    dets = np.linalg.det(eval_metric_grid(m, coords))
    np.testing.assert_allclose(dets, -coords[:, 0], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_radical_transversality_on_locus(n):
    m = toy_model(n)
    det, grad, transverse = radical_transversality_grid(m, [[0.0] + [1.0] * (n - 1)])
    assert det[0] == 0.0
    np.testing.assert_allclose(grad[0], [-1.0] + [0.0] * (n - 1), atol=1e-14)
    assert transverse[0]


def test_radical_transversality_off_locus_vacuous():
    m = toy_model(2)
    det, _, transverse = radical_transversality_grid(m, [[5.0, 0.0]])
    assert det[0] == pytest.approx(-5.0)
    assert transverse[0]


def test_gradient_fd_matches_analytic():
    m = toy_model(3)
    m_fd = dataclasses.replace(m, derivatives=None)
    rng = np.random.default_rng(1)
    coords = np.array([[rng.uniform(-2, 2), *rng.uniform(-2, 2, size=2)]
                       for _ in range(20)])
    _, grad_a, _ = radical_transversality_grid(m, coords)
    _, grad_fd, _ = radical_transversality_grid(m_fd, coords)
    np.testing.assert_allclose(grad_fd, grad_a, atol=10 * FD_STEP**2)


def test_metric_derivatives_fd_fallback():
    m = toy_model(2)
    m_fd = dataclasses.replace(m, derivatives=None)
    coords = [[1.3, 0.4]]
    np.testing.assert_allclose(
        metric_derivatives_grid(m_fd, coords), metric_derivatives_grid(m, coords),
        atol=10 * FD_STEP**2,
    )


def test_lc_regularity_examples():
    m = toy_model(2)
    # on the locus the radical direction is null and the base derivative
    # of the quadratic form is -tau^2
    # (first row); off the locus: null vector of the Lorentzian region,
    # fiber part nonzero (second row)
    assert lc_regularity_grid(m, [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 1.0]]).all()


def test_lc_regularity_rejects_non_null():
    m = toy_model(2)
    with pytest.raises(PreconditionError):
        lc_regularity_grid(m, [[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(PreconditionError):
        lc_regularity_grid(m, [[0.0, 0.0]], [[0.0, 0.0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lc_regularity_randomized_scan(n):
    m = toy_model(n)
    rng = np.random.default_rng(2)
    coords, directions = np.zeros((2, 100, n))
    for k in range(100):
        coords[k, 1:] = rng.uniform(-5, 5, size=n - 1)
        directions[k, 0] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    assert lc_regularity_grid(m, coords, directions).all()
    # null directions in the Lorentzian region: -t a^2 + |w|^2 = 0
    for k in range(100):
        t = rng.uniform(0.1, 5.0)
        coords[k] = [t, *rng.uniform(-5, 5, size=n - 1)]
        w = rng.normal(size=n - 1)
        w /= np.linalg.norm(w)
        a = rng.uniform(0.5, 2.0)
        directions[k] = np.concatenate(([a], np.sqrt(t) * a * w))
    assert lc_regularity_grid(m, coords, directions, tol=1e-9).all()


def test_slice_metric_identity_and_user_blocks():
    m = toy_model(3)
    block, pd = slice_metric_grid(m, [[2.5, 0.0, 0.0]])
    np.testing.assert_array_equal(block, [np.eye(2)])
    assert pd.all()

    user = MetricModel(
        3,
        lambda c: np.array([np.diag([-t, 1 + t**2, 1.0]) for t in c[:, 0]]),
    )
    block, pd = slice_metric_grid(user, [[2.0, 0.0, 0.0]])
    np.testing.assert_allclose(block, [np.diag([5.0, 1.0])])
    assert pd.all()

    bad = MetricModel(2, lambda c: np.array([np.diag([-t, -1.0]) for t in c[:, 0]]))
    _, pd = slice_metric_grid(bad, [[1.0, 0.0]])
    assert not pd.any()


def test_chart_point_validation():
    with pytest.raises(ValueError):
        ChartPoint(np.inf, [0.0])
    with pytest.raises(ValueError):
        ChartPoint(0.0, [])
    p = ChartPoint(1.0, [2.0, 3.0])
    assert p.n == 3
    np.testing.assert_array_equal(p.coords(), [1.0, 2.0, 3.0])
