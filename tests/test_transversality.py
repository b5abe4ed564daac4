import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import boosted_frame_map, synthetic_tangent_map

from sigembed import (CapabilityError, ChartPoint, HyperbolaFamily,
                      MinkowskiEvent, PreconditionError, RegionError,
                      orbit_intersection_count, orbit_intersection_count_grid,
                      psi_toy, psi_toy_map,
                      tangency_residual, toy_tangency_poly)
from sigembed.misner import boost_tau_y1, source_embedding_map
from sigembed import transversality
from sigembed.transversality import _killing
from sigembed.verify import PSI_REGION_T_MIN


def test_killing_values():
    np.testing.assert_array_equal(
        _killing(MinkowskiEvent(0.0, [2.0, 0.0]).batch())[0], [2.0, 0.0, 0.0]
    )
    np.testing.assert_array_equal(
        _killing(MinkowskiEvent(1.0, [1.0, 0.0]).batch())[0], [1.0, 1.0, 0.0]
    )
    np.testing.assert_array_equal(
        _killing(MinkowskiEvent(0.0, [0.0, 0.0]).batch())[0], [0.0, 0.0, 0.0]
    )


def test_killing_generates_boost(cfg):
    # d/ds of the boost of e by rapidity s, at s = 0, is the Killing vector
    e = MinkowskiEvent(1.2, [-0.7, 3.0])
    h = cfg.fd_step
    up = boost_tau_y1(e.tau, float(e.y[0]), h)
    dn = boost_tau_y1(e.tau, float(e.y[0]), -h)
    fd = (np.array([up[0], up[1], 3.0]) - np.array([dn[0], dn[1], 3.0])) / (2 * h)
    np.testing.assert_allclose(fd, _killing(e.batch())[0], atol=1e-9)


def test_tangency_residual_positive_for_psi():
    map_ = psi_toy_map(2)
    for t in np.linspace(-0.99, 10, 60):
        assert tangency_residual(map_, ChartPoint(t, [0.5])) > 0.44


def test_tangency_residual_origin_error():
    # an embedding whose image hits the boost fixed point
    def value(coords):
        return np.column_stack([coords[:, 0], coords[:, 0], coords[:, 1]])

    from sigembed.minkowski import EmbeddingMap

    map_ = EmbeddingMap(2, 3, value,
                        lambda c: np.array([[[1.0, 0], [1.0, 0], [0, 1.0]]] * len(c)))
    with pytest.raises(PreconditionError):
        tangency_residual(map_, ChartPoint(0.0, [0.0]))


def test_tangency_residual_synthetic_tangent_map():
    sm = synthetic_tangent_map()
    for t, x in [(0.5, 0.3), (-1.0, -0.8), (2.0, 1.2)]:
        assert tangency_residual(sm, ChartPoint(t, [x])) <= 1e-10


def test_tangency_rank_hypothesis_warning():
    # all spatial tangents along the first spatial axis: the test cannot
    # certify transversality and must say so
    def value(coords):
        return np.column_stack([coords[:, 0], coords[:, 1], np.zeros(len(coords))])

    def jacobian(coords):
        return np.array([[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]] * len(coords))

    from sigembed.minkowski import EmbeddingMap

    map_ = EmbeddingMap(2, 3, value, jacobian)
    with pytest.warns(UserWarning, match="first spatial axis"):
        tangency_residual(map_, ChartPoint(1.0, [2.0]))


def test_toy_tangency_poly():
    assert toy_tangency_poly(0.0) == (2.0, -15.0)
    value, disc = toy_tangency_poly(-0.25)
    assert value == pytest.approx(1.875, abs=1e-15)
    assert disc == -15.0
    ts = np.linspace(-50, 50, 1001)
    values, disc = toy_tangency_poly(ts)
    assert values.shape == ts.shape and disc == -15.0
    assert values.min() >= 1.875


def test_poly_and_residual_agree_in_sign():
    # the closed-form obstruction never vanishes, so neither may the
    # least-squares residual
    map_ = psi_toy_map(2)
    for t in np.linspace(-0.9, 8, 40):
        value, _ = toy_tangency_poly(t)
        assert value > 0
        assert tangency_residual(map_, ChartPoint(t, [1.0])) > 0


def test_ls_residual_sign_preserved_under_boost():
    # the euclidean least-squares magnitude is frame dependent (it decays
    # as the frame ultra-boosts), but strict positivity -- the
    # transversality verdict -- is not
    map_ = psi_toy_map(2)
    p = ChartPoint(1.3, [0.4])
    for s in [-2.0, -1.0, 0.7, 2.0]:
        assert tangency_residual(boosted_frame_map(map_, s), p) > 1e-4


def test_orbit_profile_synthetic_tangent():
    # negative control: the orbit runs inside the image, so every scan
    # node is on it and the count cannot be the single crossing
    sm = synthetic_tangent_map()
    base = sm.value_eval(ChartPoint(0.5, [0.3]))
    count = orbit_intersection_count(sm, base, (-3, 3), 301)
    assert count != 1
    assert count == 301


def test_orbit_count_examples():
    map_ = psi_toy_map(2)
    rng = np.random.default_rng(8)
    bases = [psi_toy(ChartPoint(rng.uniform(PSI_REGION_T_MIN + 1e-3, 10.0),
                                [rng.uniform(-5, 5)])).coords() for _ in range(10)]
    assert (orbit_intersection_count_grid(map_, bases, (-20, 20), 2001) == 1).all()
    # a base off the image crosses nothing
    assert orbit_intersection_count(
        map_, MinkowskiEvent(0.0, [2.0, 0.0]), (-20, 20), 2001
    ) == 0


def test_orbit_count_explicit():
    map_ = source_embedding_map("explicit", 2, HyperbolaFamily(1.0))
    bases = map_.value(np.array([[t, 0.3] for t in [-5.0, -0.2, 0.0, 1.7]]))
    assert (orbit_intersection_count_grid(map_, bases, (-20, 20), 2001) == 1).all()


def test_orbit_requires_capability():
    from sigembed.minkowski import EmbeddingMap

    bare = EmbeddingMap(2, 3, lambda c: np.column_stack([c[:, 0], c[:, 0] + 1.0,
                                                         c[:, 1]]))
    with pytest.raises(CapabilityError):
        orbit_intersection_count(bare, MinkowskiEvent(0.0, [1.0, 0.0]),
                                 (-1, 1), 11)
    with pytest.raises(CapabilityError):
        orbit_intersection_count_grid(bare, [[0.0, 1.0, 0.0]], (-1, 1), 11)


def test_orbit_count_needs_only_the_residual():
    # scans read on_image_residual alone; a map without a Jacobian counts
    map_ = dataclasses.replace(psi_toy_map(2), jacobian=None)
    assert orbit_intersection_count(map_, psi_toy(ChartPoint(1.0, [0.5]))) == 1


def test_orbit_base_outside_region():
    map_ = psi_toy_map(2)
    with pytest.raises(RegionError):
        orbit_intersection_count(map_, MinkowskiEvent(1.0, [0.0, 0.0]), (-1, 1), 11)
    # the error names the first base outside the half-space
    bases = [[0.0, 2.0, 0.0], [0.5, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    with pytest.raises(RegionError) as info:
        orbit_intersection_count_grid(map_, bases, (-1, 1), 11)
    assert info.value.index == 2 and (info.value.tau, info.value.y1) == (1.0, 1.0)


@pytest.mark.parametrize("samples", [0, 1])
def test_orbit_count_rejects_fewer_than_two_samples(samples):
    map_ = psi_toy_map(2)
    base = psi_toy(ChartPoint(1.0, [0.5]))
    with pytest.raises(PreconditionError, match="samples must be >= 2"):
        orbit_intersection_count(map_, base, (-10, 10), samples)
    with pytest.raises(PreconditionError, match="samples must be >= 2"):
        orbit_intersection_count_grid(map_, base.batch(), (-10, 10), samples)


def _boosted(event, s):
    tau, y1 = boost_tau_y1(event.tau, float(event.y[0]), s)
    return MinkowskiEvent(tau, np.concatenate(([y1], event.y[1:])))


@pytest.mark.parametrize("s_range", [(20.0, -20.0), (5.0, 5.0), (np.nan, 20.0),
                                     (-20.0, np.nan), (-np.inf, 20.0), (-20.0, np.inf)])
def test_orbit_count_rejects_bad_s_range(s_range):
    # a reversed window stopped the bisection after one step and counted 0
    map_ = psi_toy_map(2)
    base = _boosted(psi_toy(ChartPoint(1.0, [0.5])), 0.0137)
    with pytest.raises(PreconditionError, match="s_range"):
        orbit_intersection_count(map_, base, s_range, 2001)
    with pytest.raises(PreconditionError, match="s_range"):
        orbit_intersection_count_grid(map_, base.batch(), s_range, 2001)


@pytest.mark.parametrize("source", ["psi_toy", "explicit"])
def test_orbit_count_bisects_off_grid_crossing(source, monkeypatch):
    # boosting an image point by an off-grid rapidity puts the crossing at
    # s = -0.0137, between two scan nodes, so only the bisection finds it
    map_ = source_embedding_map(source, 2, HyperbolaFamily(1.0))
    base = _boosted(map_.value_eval(ChartPoint(1.0, [0.5])), 0.0137)
    calls = []
    residual_at = transversality._residual_at

    def spy(map_, base, s):
        calls.append(s)
        return residual_at(map_, base, s)

    monkeypatch.setattr(transversality, "_residual_at", spy)
    assert orbit_intersection_count(map_, base, (-20.0, 20.0), 2001) == 1
    assert len(calls) > 2 and abs(calls[-1] + 0.0137) < 1e-12
    assert orbit_intersection_count(map_, base, (1.0, 20.0), 2001) == 0
    assert orbit_intersection_count(map_, base, (-20.0, -1.0), 2001) == 0


def _per_base_count(map_, base, s_range, samples):
    """The scan one base at a time: on-node roots and every bisected sign
    change, merged within half a grid step."""
    s_grid = np.linspace(s_range[0], s_range[1], samples)
    r = map_.on_image_residual(transversality._orbit_events(base[None], s_grid)[0])
    r, tol = r.tolist(), transversality.MEMBERSHIP_TOL
    roots = [s for s, v in zip(s_grid, r) if abs(v) <= tol]
    for i in range(samples - 1):
        a, b = r[i], r[i + 1]
        if (all(tol < abs(v) < math.inf for v in (a, b)) and (a < 0.0) != (b < 0.0)):
            s = transversality._refine_root(map_, base, s_grid[i], s_grid[i + 1], a)
            if s is not None and abs(transversality._residual_at(map_, base, s)) <= tol:
                roots.append(s)
    merged = []
    for s in sorted(roots):
        if not merged or s - merged[-1] > 0.5 * (s_grid[1] - s_grid[0]):
            merged.append(s)
    return len(merged)


@settings(max_examples=15, deadline=None)
@given(source=st.sampled_from(["psi_toy", "explicit"]),
       points=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-5.0, 5.0),
                                 st.floats(-3.0, 3.0)), min_size=1, max_size=5),
       s_range=st.sampled_from([(-20.0, 20.0), (1.0, 20.0), (-20.0, -1.0), (-2.0, 3.0)]),
       samples=st.sampled_from([2, 101, 2001]))
def test_orbit_count_grid_matches_per_base_scan(source, points, s_range, samples):
    # image points boosted by an off-grid rapidity s0 cross at s = -s0, off
    # the nodes and possibly outside the window; two bases off the image
    map_ = source_embedding_map(source, 2, HyperbolaFamily(1.0))
    t_lo = PSI_REGION_T_MIN + 1e-3 if source == "psi_toy" else -10.0
    chart = np.array([[t_lo + u * (10.0 - t_lo), x] for u, x, _ in points])
    bases = [_boosted(MinkowskiEvent.from_coords(e), s0).coords()
             for e, (_, _, s0) in zip(map_.value(chart), points)]
    bases = np.array(bases + [[0.0, 2.0, 0.0], [-1.0, 4.0, 1.5]])
    counts = orbit_intersection_count_grid(map_, bases, s_range, samples)
    assert counts.tolist() == [_per_base_count(map_, b, s_range, samples) for b in bases]
    assert counts.tolist() == [orbit_intersection_count(
        map_, MinkowskiEvent.from_coords(b), s_range, samples) for b in bases]
