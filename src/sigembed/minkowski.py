"""Embeddings into flat Minkowski space and pullback verification.

The workhorse map sends (t, x) to (f(t), t, x) with temporal function
f(t) = -(2/3)(1 + t)^(3/2), defined for t > -1.  Isometry is certified by
pulling the flat metric eta = diag(-1, +1, ..., +1) back through the
embedding Jacobian and comparing against the source metric.

Maps evaluate (m, n) coordinate arrays, and each operation has one
implementation on such a grid.
"""

from dataclasses import dataclass

import numpy as np

from .config import central_diff, fd_steps
from .errors import DomainError, EvaluationError, ImmersionError, PreconditionError
from .metric import eval_metric_grid

# Rank cutoff for the immersion check, relative to the largest singular value.
_RANK_RTOL = 1e-10

# Gram screen: with Gershgorin radii R_a = sum_{b != a} |G_ab| of G = J^T J,
# min (G_aa - R_a) > _GRAM_MARGIN * max (G_aa + R_a) bounds lambda_min /
# lambda_max from below and certifies full rank without an SVD.  Rounding in G
# and the radii moves both sides by a few (N + n) eps lambda_max (~1e-14), so
# a certified row has sigma_min / sigma_max >= ~1e-4, far above _RANK_RTOL.
_GRAM_MARGIN = 1e-8


@dataclass(frozen=True)
class MinkowskiEvent:
    """Event (tau, y^1, ..., y^{N-1}) in flat space with metric
    diag(-1, +1, ..., +1)."""

    tau: float
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        if not np.isfinite(self.tau) or not np.all(np.isfinite(self.y)):
            raise ValueError(f"event has non-finite coordinates: {self}")

    @property
    def dim(self):
        return 1 + self.y.size

    def coords(self):
        return np.concatenate(([self.tau], self.y))

    def batch(self):
        """The coordinates as a batch of one, shape (1, N)."""
        return self.coords()[None, :]

    @classmethod
    def from_coords(cls, coords):
        coords = np.asarray(coords, dtype=float)
        return cls(coords[0], coords[1:])


def minkowski_eta(dim):
    eta = np.eye(dim)
    eta[0, 0] = -1.0
    return eta


@dataclass(frozen=True)
class EmbeddingMap:
    """A map from chart coordinates into Minkowski space, on arrays.

    ``value`` maps (m, n) coordinates to (m, N) event coordinates, row by
    row, and raises DomainError outside the embedding domain.  ``jacobian``
    maps (m, n) coordinates to the analytic (m, N, n) Jacobians when
    available; finite differences of ``value`` are used otherwise.  The
    optional ``on_image_residual`` maps (m, N) events to (m,) values that
    vanish exactly on the image, nan where undefined; orbit-intersection
    scans need it.
    """

    source_dim: int
    target_dim: int
    value: object
    jacobian: object = None
    on_image_residual: object = None

    def __post_init__(self):
        if self.source_dim < 2:
            raise ValueError(f"source dimension must be >= 2, got {self.source_dim}")
        if self.target_dim < self.source_dim:
            raise ValueError(
                f"target dimension {self.target_dim} < source dimension "
                f"{self.source_dim}: not an embedding"
            )

    def value_eval(self, p):
        """Image of one chart point, as a MinkowskiEvent."""
        return MinkowskiEvent.from_coords(self.value(p.batch())[0])


def _psi_time(t):
    t = np.asarray(t, dtype=float)
    outside = ~(t > -1.0)
    if outside.any():
        raise DomainError(f"temporal function requires t > -1, got t = {t[outside][0]}")
    return t


def temporal_f(t):
    """Temporal component f(t) = -(2/3)(1 + t)^(3/2), for scalar or array
    t > -1; strictly decreasing."""
    return -(2.0 / 3.0) * (1.0 + _psi_time(t)) ** 1.5


def psi_toy_map(n=2):
    """EmbeddingMap of the canonical-model embedding (t, x) -> (f(t), t, x)
    for an n-dimensional source, target dimension n + 1."""

    def value(coords):
        out = np.empty((coords.shape[0], n + 1))
        out[:, 0] = temporal_f(coords[:, 0])
        out[:, 1:] = coords
        return out

    def jacobian(coords):
        jac = np.zeros((coords.shape[0], n + 1, n))
        jac[:, 0, 0] = -np.sqrt(1.0 + _psi_time(coords[:, 0]))
        jac[:, 1, 0] = 1.0
        jac[:, 2:, 1:] = np.eye(n - 1)
        return jac

    def on_image_residual(events):
        y1 = events[:, 1]
        residual = np.full(y1.shape, np.nan)
        inside = y1 > -1.0
        residual[inside] = events[inside, 0] - temporal_f(y1[inside])
        return residual

    return EmbeddingMap(
        source_dim=n,
        target_dim=n + 1,
        value=value,
        jacobian=jacobian,
        on_image_residual=on_image_residual,
    )


def jacobian_grid(map_, coords, mode="analytic"):
    """(m, N, n) Jacobians over an (m, n) coordinate array in the requested
    mode ('analytic' or 'finite_difference')."""
    coords = np.asarray(coords, dtype=float)
    if mode == "analytic":
        if map_.jacobian is None:
            raise PreconditionError(
                "map carries no analytic Jacobian; use mode='finite_difference'"
            )
        return np.asarray(map_.jacobian(coords), dtype=float)
    if mode == "finite_difference":
        return central_diff(map_.value, coords, fd_steps(coords))
    raise ValueError(f"unknown Jacobian mode {mode!r}")


def _pullback_gram(jac):
    # J^T eta J and the Gram screen of (m, N, n) Jacobians, component-major: entry
    # (a, b) sums m-vectors over J's rows i from zeros, bitwise a row loop's sum
    m, big_n, n = jac.shape
    cols = np.ascontiguousarray(jac.transpose(1, 2, 0))
    back, abs_gram = np.empty((m, n, n)), np.empty((n, n, m))
    for a, b in zip(*np.triu_indices(n)):
        gram, entry = np.zeros((2, m))
        for i in range(big_n):
            outer = cols[i, a] * cols[i, b]
            gram += outer
            entry += -outer if i == 0 else outer
        back[:, a, b] = back[:, b, a] = entry
        abs_gram[a, b] = abs_gram[b, a] = np.abs(gram)
    # Gershgorin radii sum_b |G_ab| - G_aa, summed in b's order
    diag = abs_gram[range(n), range(n)]
    radius = sum(abs_gram.transpose(1, 0, 2)[1:], abs_gram[:, 0]) - diag
    low, high = np.minimum.reduce(diag - radius), np.maximum.reduce(diag + radius)
    return back, low > _GRAM_MARGIN * high


def pullback_grid(map_, model, coords, mode="analytic"):
    """Pullbacks J^T eta J of the flat metric over an (m, n) coordinate
    array, as (m, n, n).

    ``model`` (or None) must match the map's source dimension.  Raises
    DomainError outside the embedding domain, EvaluationError at the first
    point with a non-finite Jacobian and ImmersionError (carrying the
    observed rank) at the first column-rank deficient one.
    """
    if model is not None and model.dimension != map_.source_dim:
        raise PreconditionError(
            f"model dimension {model.dimension} does not match map source "
            f"dimension {map_.source_dim}"
        )
    coords = np.asarray(coords, dtype=float)
    jac = jacobian_grid(map_, coords, mode)
    if not np.isfinite(jac).all():
        finite = np.isfinite(jac).all(axis=(1, 2))
        raise EvaluationError(f"non-finite embedding Jacobian at {coords[~finite][0]}")
    back, certified = _pullback_gram(jac)
    # rows off the Gram screen take the SVD rank test
    rows = np.flatnonzero(~certified)
    sv = np.linalg.svd(jac[rows], compute_uv=False)
    rank = np.sum(sv > _RANK_RTOL * sv[:, :1], axis=1)
    deficient = np.flatnonzero(rank < map_.source_dim)
    if deficient.size:
        i, k = deficient[0], rows[deficient[0]]
        raise ImmersionError(f"embedding Jacobian has rank {rank[i]} < "
                             f"{map_.source_dim} at {coords[k]}", rank=int(rank[i]))
    return back


def isometry_residual_grid(map_, model, coords, mode="analytic"):
    """Max-norm mismatch between the pulled-back flat metric and the model
    metric over an (m, n) coordinate grid; zero exactly when the embedding
    is isometric there."""
    back = pullback_grid(map_, model, coords, mode)
    return float(np.abs(back - eval_metric_grid(model, coords)).max())
