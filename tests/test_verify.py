import numpy as np
import pytest

from sigembed.config import DEFAULT_FD_STEP, NumericConfig, fd_steps
from sigembed.verify import PSI_REGION_T_MIN, _off_kink_points


@pytest.mark.parametrize("fd_step", [DEFAULT_FD_STEP, 0.5])
@pytest.mark.parametrize("t_lo", [-3.0, PSI_REGION_T_MIN + 0.05])
@pytest.mark.parametrize("count", [25, 100])
def test_off_kink_points_match_per_draw_loop(count, t_lo, fd_step):
    # fd_step 0.5 rejects every |t| < 1, so the chunked sampler must draw
    # more than one chunk and skip rows in the middle of the stream
    cfg = NumericConfig(fd_step=fd_step)
    rng = np.random.default_rng(41)
    points, drawn = [], 0
    while len(points) < count:
        p = np.array([rng.uniform(t_lo, 3.0), rng.uniform(-5.0, 5.0)])
        drawn += 1
        if abs(p[0]) >= 2.0 * fd_steps(p, cfg.fd_step)[0]:
            points.append(p)
    if fd_step == 0.5:
        assert drawn > count
    sampled = _off_kink_points(np.random.default_rng(41), count, t_lo, cfg)
    np.testing.assert_array_equal(sampled, np.array(points))
