"""Numeric settings of the finite-difference layers."""

from dataclasses import dataclass

import numpy as np

# Optimal central-difference step for first derivatives, scaled per
# coordinate as fd_step * max(1, |x|).
DEFAULT_FD_STEP = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class NumericConfig:
    """Base step of the finite-difference Jacobians and derivatives."""

    fd_step: float = DEFAULT_FD_STEP

    def __post_init__(self):
        if not (self.fd_step > 0.0 and np.isfinite(self.fd_step)):
            raise ValueError(f"fd_step must be positive and finite, got {self.fd_step}")


def fd_steps(coords, base_step):
    """Per-coordinate central-difference steps, scaled by magnitude."""
    coords = np.asarray(coords, dtype=float)
    steps = base_step * np.maximum(1.0, np.abs(coords))
    if not np.isfinite(steps).all() or (steps <= 0.0).any():
        from .errors import NumericalError

        raise NumericalError(f"finite-difference step underflow/overflow: {steps}")
    return steps


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
