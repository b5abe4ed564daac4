"""Numeric settings shared by the root-finding and FD layers."""

import os
from dataclasses import dataclass, replace

import numpy as np

# Optimal central-difference step for first derivatives, scaled per
# coordinate as fd_step * max(1, |x|).
DEFAULT_FD_STEP = float(np.cbrt(np.finfo(float).eps))

# Environment variable that overrides the default root_tol.
TOL_ENV_VAR = "SIGEMBED_TOL"


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and iteration budgets for the numerical kernels."""

    root_tol: float = 1e-12
    max_iterations: int = 200
    fd_step: float = DEFAULT_FD_STEP

    def __post_init__(self):
        for name in ("root_tol", "fd_step"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")

    @classmethod
    def from_env(cls):
        """Default config, honouring the SIGEMBED_TOL override when set."""
        cfg = cls()
        raw = os.environ.get(TOL_ENV_VAR)
        if raw is None:
            return cfg
        try:
            tol = float(raw)
        except ValueError as exc:
            raise ValueError(f"{TOL_ENV_VAR} must be a float, got {raw!r}") from exc
        return replace(cfg, root_tol=tol)


def fd_steps(coords, base_step):
    """Per-coordinate central-difference steps, scaled by magnitude."""
    coords = np.asarray(coords, dtype=float)
    steps = base_step * np.maximum(1.0, np.abs(coords))
    if not np.all(np.isfinite(steps)) or np.any(steps <= 0.0):
        from .errors import NumericalError

        raise NumericalError(f"finite-difference step underflow/overflow: {steps}")
    return steps


def central_diff(func, coords, steps):
    """Central differences of ``func`` at each row of an (m, n) coordinate
    array, with (m, n) steps from ``fd_steps``.

    ``func`` maps (m, n) coordinates to (m, ...) values; the result is
    (m, ..., n), its last axis indexing the differentiated coordinate.
    """
    columns = []
    for k in range(coords.shape[1]):
        up = coords.copy()
        dn = coords.copy()
        up[:, k] += steps[:, k]
        dn[:, k] -= steps[:, k]
        diff = np.asarray(func(up)) - np.asarray(func(dn))
        width = (2.0 * steps[:, k]).reshape((-1,) + (1,) * (diff.ndim - 1))
        columns.append(diff / width)
    return np.stack(columns, axis=-1)
