import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigembed import config, misner, verify
from sigembed.config import FD_STEP, fd_steps
from sigembed.verify import PSI_REGION_T_MIN, _duplicate_rows, _off_kink_points, run_all


@pytest.mark.parametrize("fd_step", [FD_STEP, 0.5])
@pytest.mark.parametrize("t_lo", [-3.0, PSI_REGION_T_MIN + 0.05])
@pytest.mark.parametrize("count", [25, 100])
def test_off_kink_points_match_per_draw_loop(count, t_lo, fd_step, monkeypatch):
    # fd_step 0.5 rejects every |t| < 1, so the chunked sampler must draw
    # more than one chunk and skip rows in the middle of the stream
    monkeypatch.setattr(config, "FD_STEP", fd_step)
    rng = np.random.default_rng(41)
    points, drawn = [], 0
    while len(points) < count:
        p = np.array([rng.uniform(t_lo, 3.0), rng.uniform(-5.0, 5.0)])
        drawn += 1
        if abs(p[0]) >= 2.0 * fd_steps(p)[0]:
            points.append(p)
    if fd_step == 0.5:
        assert drawn > count
    sampled = _off_kink_points(np.random.default_rng(41), count, t_lo)
    np.testing.assert_array_equal(sampled, np.array(points))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 30), k=st.integers(1, 4))
def test_duplicate_rows_match_unique(data, m, k):
    # few distinct values, so rows repeat; planted copies flip the sign of
    # their zeros, which must still count as duplicates
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e300])
    rows = np.array(data.draw(st.lists(st.lists(values, min_size=k, max_size=k),
                                       min_size=m, max_size=m)))
    planted = rows[data.draw(st.lists(st.integers(0, m - 1), max_size=5))]
    planted[planted == 0.0] *= -1.0
    rows = np.vstack([rows, planted])
    rows = rows[np.random.default_rng(data.draw(st.integers(0, 99))).permutation(len(rows))]
    assert _duplicate_rows(rows) == rows.shape[0] - np.unique(rows, axis=0).shape[0]


def test_quick_battery_makes_no_per_matrix_lapack_calls(monkeypatch):
    # eigvalsh, svd and pinv solve one small matrix per LAPACK call; the
    # canonical battery reads its spatial blocks and Gram screens without
    # them.  pinv calls numpy's internal svd, which the svd spy cannot see.
    stacks = []
    for name in ("eigvalsh", "svd", "pinv"):
        def spy(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            if np.size(a):
                stacks.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    results = run_all(quick=True)
    assert all(r.passed for r in results)
    # tangency_floor's pseudo-inverses: one (500, 3, 2) stack, 500 SVDs; a
    # closed-form tangency residual (ROADMAP item 2) would remove them
    assert stacks == [("pinv", (500, 3, 2))]


@pytest.fixture(scope="module")
def full_battery():
    return [r.as_dict() for r in run_all(quick=False)]


@pytest.mark.parametrize("block_rows", [4001, 10**9])
def test_full_battery_is_block_invariant(block_rows, full_battery, monkeypatch):
    # 4001 rows scan one orbit per block and split the signature and
    # isometry sweeps raggedly; 10**9 runs each sweep as one block
    monkeypatch.setattr(verify, "_BLOCK_ROWS", block_rows)
    assert [r.as_dict() for r in run_all(quick=False)] == full_battery


def _scale_T(quotient_map_coords):
    def scaled(events):
        quotient = quotient_map_coords(events)
        quotient[..., 0] *= 1.001
        return quotient
    return scaled


def _flip_dT_dtau(quotient_jacobian):
    def flipped(events):
        jac = quotient_jacobian(events)
        jac[:, 0, 0] *= -1.0
        return jac
    return flipped


_FUNCTORIALITY = {"pullback_functoriality_explicit", "pullback_functoriality_psi_toy"}
_FLIPPED_JACOBIAN = _flip_dT_dtau(misner.quotient_jacobian)


@pytest.mark.parametrize("patches, killed", [
    ([(misner, "PHI_SIGN", 2.0)],
     {"quotient_isometry", "boost_identification"} | _FUNCTORIALITY),
    ([(verify, "quotient_map_coords", _scale_T(verify.quotient_map_coords))],
     {"misner_roundtrip"} | _FUNCTORIALITY),
    # quotient_isometry reads the Jacobian through misner, the
    # functoriality checks' route b through verify
    ([(misner, "quotient_jacobian", _FLIPPED_JACOBIAN)], {"quotient_isometry"}),
    ([(misner, "quotient_jacobian", _FLIPPED_JACOBIAN),
      (verify, "quotient_jacobian", _FLIPPED_JACOBIAN)],
     {"quotient_isometry"} | _FUNCTORIALITY),
], ids=["phi_sign_plus_2", "T_scaled_1.001", "dT_dtau_flipped_in_misner",
        "dT_dtau_flipped_everywhere"])
def test_quotient_defects_fail_exactly_their_checks(patches, killed, monkeypatch):
    # seeded defects of the quotient layer, each patched where the battery
    # reads the name; the full battery must fail these checks and no other
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    assert {r.name for r in run_all(quick=False) if not r.passed} == killed
