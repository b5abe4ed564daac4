"""The finite-difference step and the shared central-difference stencil."""

import numpy as np

from .errors import NumericalError

# Optimal central-difference step for first derivatives, scaled per
# coordinate as FD_STEP * max(1, |x|).
FD_STEP = float(np.cbrt(np.finfo(float).eps))


def fd_steps(coords):
    """Per-coordinate central-difference steps FD_STEP * max(1, |x|) of an
    array of points, one per row; NumericalError names the first row that
    is not finite."""
    coords = np.asarray(coords, dtype=float)
    finite = np.isfinite(coords).reshape(len(coords), -1).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"finite-difference step at non-finite coordinates {coords[~finite][0]}")
    return FD_STEP * np.maximum(1.0, np.abs(coords))


def central_diff(func, coords, steps):
    """Central differences of ``func`` at each row of an (m, n) coordinate
    array, with (m, n) steps from ``fd_steps``.

    ``func`` must be row-wise, mapping (M, n) coordinates to (M, ...)
    values with row i depending on row i alone.  It is called once, on
    the (2n m, n) stencil of m-row blocks shifted by +e_0, -e_0, +e_1,
    -e_1, ..., so an error naming its first offending row names the point
    a loop over the coordinates would meet first (a flat index counts the
    stacked rows).  The result is (m, ..., n), its last axis indexing the
    differentiated coordinate.
    """
    m, n = coords.shape
    stencil = np.repeat(coords[None], 2 * n, axis=0).reshape(n, 2, m, n)
    k = np.arange(n)
    stencil[k, 0, :, k] += steps.T
    stencil[k, 1, :, k] -= steps.T
    values = np.asarray(func(stencil.reshape(2 * n * m, n)))
    values = values.reshape((n, 2, m) + values.shape[1:])
    width = (2.0 * steps.T).reshape((n, m) + (1,) * (values.ndim - 3))
    diff = (values[:, 0] - values[:, 1]) / width
    return np.ascontiguousarray(diff.transpose(tuple(range(1, diff.ndim)) + (0,)))
