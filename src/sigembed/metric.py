"""Signature-type-changing metrics in radical-adapted coordinates.

A model metric has the block form  g = g_tt(t, x) dt^2 + g_ij(t, x) dx^i dx^j
with a Riemannian spatial block; the canonical model g = -t dt^2 + sum_i
(dx^i)^2 is degenerate exactly on t = 0.  Evaluation enforces the block form
(a nonzero time-space component raises EvaluationError), so the eigenvalues
are g_tt and those of the spatial block: its diagonal when that block is
diagonal, the eigen-solver's otherwise.
This module certifies pointwise structure: eigenvalue signature class, the
degeneracy locus and its transverse radical, light-cone regularity of the
quadratic form, and positive definiteness of the spatial slices.

Every operation is batch-first: its ``*_grid`` form takes an (m, n) array
of chart coordinates, t first.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .config import central_diff, fd_steps
from .errors import EvaluationError, NumericalError, PreconditionError


@dataclass(frozen=True)
class ChartPoint:
    """Point (t, x^1, ..., x^{n-1}) in a radical-adapted chart."""

    t: float
    spatial: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(
            self, "spatial", np.atleast_1d(np.asarray(self.spatial, dtype=float))
        )
        if self.spatial.ndim != 1 or self.spatial.size < 1:
            raise ValueError("spatial part must be a vector with n - 1 >= 1 entries")
        if not np.isfinite(self.t) or not np.all(np.isfinite(self.spatial)):
            raise ValueError(f"chart point has non-finite coordinates: {self}")

    @property
    def n(self):
        return 1 + self.spatial.size

    def coords(self):
        """All coordinates as one array, t first."""
        return np.concatenate(([self.t], self.spatial))

    def batch(self):
        """The coordinates as a batch of one, shape (1, n)."""
        return self.coords()[None, :]


class SignatureClass(enum.IntEnum):
    """Signature class as a sign code; for the canonical model it is sign(t)."""

    RIEMANNIAN = -1
    DEGENERATE = 0
    LORENTZIAN = 1


@dataclass(frozen=True)
class MetricModel:
    """Array evaluators for a metric in radical-adapted coordinates.

    ``components`` maps an (m, n) coordinate array to the (m, n, n)
    symmetric metric matrices in block form: g_tt ``[:, 0, 0]``, the spatial
    block ``[:, 1:, 1:]``, and time-space components that are exactly zero
    (evaluation raises EvaluationError otherwise).  A diagonal spatial block
    is classified without an eigen-solver.  ``derivatives``, when supplied,
    returns the coordinate derivatives as an (m, n, n, n) array indexed
    [point, kappa, mu, nu]; otherwise central finite differences are used
    wherever derivatives are needed.  Both evaluators must be pure and
    row-wise (row i of the output depends on row i of the coordinates alone).
    """

    dimension: int
    components: object
    derivatives: object = None

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")


def toy_model(n=2):
    """Canonical model g = -t dt^2 + sum (dx^i)^2 on R^n, with analytic
    derivatives."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")

    def components(coords):
        g = np.zeros((coords.shape[0], n, n))
        g[:, range(1, n), range(1, n)] = 1.0
        g[:, 0, 0] = -coords[:, 0]
        return g

    def derivatives(coords):
        dg = np.zeros((coords.shape[0], n, n, n))
        dg[:, 0, 0, 0] = -1.0  # d g_tt / dt
        return dg

    return MetricModel(dimension=n, components=components, derivatives=derivatives)


def eval_metric_grid(model, coords):
    """Metric components over an (m, n) coordinate array, validated to be
    finite, block-diagonal (zero time-space components) and symmetric."""
    coords = np.asarray(coords, dtype=float)
    n = model.dimension
    if coords.ndim != 2 or coords.shape[1] != n:
        raise PreconditionError(
            f"point dimension {coords.shape[-1]} does not match model dimension {n}"
        )
    g = np.asarray(model.components(coords), dtype=float)
    if g.shape != (coords.shape[0], n, n):
        raise EvaluationError(
            f"component evaluator returned shape {g.shape}, "
            f"expected {(coords.shape[0], n, n)}"
        )
    finite = np.isfinite(g)
    if not finite.all():
        k, i, j = (int(v) for v in np.argwhere(~finite)[0])
        raise EvaluationError(
            f"non-finite metric component at index {(i, j)} at point {coords[k]}",
            index=(i, j),
        )
    cross = (g[:, 0, 1:] != 0.0) | (g[:, 1:, 0] != 0.0)
    if cross.any():
        k, j = np.argwhere(cross)[0] + (0, 1)
        raise EvaluationError(
            f"nonzero time-space metric component at index {(0, int(j))} at "
            f"point {coords[k]}; models must be block-diagonal", index=(0, int(j)))
    # spatial pairs; the scale max(1, max|g|) only on the rows that differ
    for i in range(1, n):
        for j in range(i + 1, n):
            rows = np.flatnonzero(g[:, i, j] != g[:, j, i])
            scale = np.maximum(1.0, np.abs(g[rows]).max(axis=(1, 2), initial=0.0))
            bad = rows[np.abs(g[rows, i, j] - g[rows, j, i]) > 1e-12 * scale]
            if bad.size:
                raise EvaluationError(f"asymmetric metric component at index {(i, j)} "
                                      f"at point {coords[bad[0]]}", index=(i, j))
    return g


def _spatial_eigenvalues(block):
    # unordered (m, k) eigenvalues of (m, k, k) blocks; eigvalsh only where coupled
    eig = np.diagonal(block, axis1=1, axis2=2).copy()
    coupled = block[:, ~np.eye(block.shape[-1], dtype=bool)].any(axis=1)
    if coupled.any():
        try:
            eig[coupled] = np.linalg.eigvalsh(block[coupled])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigen-solver failed: {exc}") from exc
    return eig


def _require_tol(tol):
    if not 0 < tol < np.inf:
        raise PreconditionError(f"tol must be positive and finite, got {tol}")


def classify_signature_grid(model, coords, tol=1e-10):
    """Eigenvalue signature classes over an (m, n) coordinate array.

    Eigenvalues within ``tol`` (relative to the largest magnitude at the
    point) of zero count as zero; degeneracy is a legitimate class, not an
    error.  Returns (classes, negative, zero, positive) arrays; classes
    are int8 SignatureClass codes: -1 Riemannian, 0 degenerate, +1
    Lorentzian.
    """
    _require_tol(tol)
    coords = np.asarray(coords, dtype=float)
    g = eval_metric_grid(model, coords)
    # block form: eigenvalues g_tt and the spatial block's, one row each
    eig = np.stack([g[:, 0, 0], *_spatial_eigenvalues(g[:, 1:, 1:]).T])
    band = tol * np.abs(eig).max(axis=0)
    neg = (eig < -band).sum(axis=0)
    pos = (eig > band).sum(axis=0)
    zero = eig.shape[0] - neg - pos
    two_times = (zero == 0) & (neg >= 2)
    if two_times.any():
        k = int(np.argmax(two_times))
        raise PreconditionError(
            f"metric has {neg[k]} negative eigenvalues at {coords[k]}; "
            "only Riemannian-to-Lorentzian transverse type change is supported"
        )
    # past the guard neg <= 1 wherever zero == 0
    codes = np.where(zero > 0, 0, 2 * neg - 1).astype(np.int8)
    return codes, neg, zero, pos


def _adjugate(a):
    # Cofactor transpose of each matrix; stays finite where it is singular.
    n = a.shape[-1]
    adj = np.empty_like(a)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=1), j, axis=2)
            adj[:, j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


def metric_derivatives_grid(model, coords):
    """d g_{mu nu} / d x^kappa over an (m, n) coordinate array, as
    (m, n, n, n) indexed [point, kappa, mu, nu].

    Analytic when the model supplies derivatives, otherwise central
    differences with per-coordinate steps.
    """
    coords = np.asarray(coords, dtype=float)
    n = model.dimension
    if model.derivatives is not None:
        dg = np.asarray(model.derivatives(coords), dtype=float)
        if dg.shape != (coords.shape[0], n, n, n):
            raise EvaluationError(
                f"derivative evaluator returned shape {dg.shape}, "
                f"expected {(coords.shape[0], n, n, n)}"
            )
        return dg
    dg = central_diff(lambda c: eval_metric_grid(model, c), coords, fd_steps(coords))
    return np.moveaxis(dg, -1, 1)


def radical_transversality_grid(model, coords, tol=1e-10):
    """(det, grad_det, is_transverse) of the metric determinant over an
    (m, n) coordinate array.

    ``is_transverse`` is vacuously true off the degeneracy locus; on it
    (|det| <= tol) the determinant gradient must not vanish.
    """
    _require_tol(tol)
    coords = np.asarray(coords, dtype=float)
    g = eval_metric_grid(model, coords)
    det = np.linalg.det(g)
    if model.derivatives is not None:
        # Jacobi's formula d(det)/dx^k = tr(adj(g) dg_k); adjugate stays
        # finite on the degenerate locus where det * inv(g) would not.
        dg = metric_derivatives_grid(model, coords)
        grad = np.einsum("mij,mkji->mk", _adjugate(g), dg)
    else:
        grad = central_diff(lambda c: np.linalg.det(eval_metric_grid(model, c)),
                            coords, fd_steps(coords))
    is_transverse = (np.abs(det) > tol) | (np.linalg.norm(grad, axis=1) > tol)
    return det, grad, is_transverse


def lc_regularity_grid(model, coords, directions, tol=1e-9):
    """Flags over (m, n) points and (m, n) null directions v: True where
    the full differential of the quadratic form G(p, v) = v^T g v is
    nonzero.

    The differential has a fiber part 2 g(p) v and a base part
    (d_kappa g_{mu nu}) v^mu v^nu; the caller must supply nonzero v with
    |G(p, v)| <= tol.
    """
    _require_tol(tol)
    coords = np.asarray(coords, dtype=float)
    v = np.asarray(directions, dtype=float)
    if v.shape != (coords.shape[0], model.dimension):
        raise PreconditionError(
            f"directions have shape {v.shape}, expected "
            f"{(coords.shape[0], model.dimension)}"
        )
    if not np.any(v != 0.0, axis=1).all():
        raise PreconditionError("direction v must be nonzero")
    g = eval_metric_grid(model, coords)
    gv = np.einsum("mij,mj->mi", g, v)
    value = np.abs(np.einsum("mi,mi->m", v, gv))
    if (value > tol).any():
        raise PreconditionError(
            f"v is not null within tolerance: |G(p, v)| = {value.max():.3e} > {tol:.3e}"
        )
    dg = metric_derivatives_grid(model, coords)
    base = np.einsum("mkij,mi,mj->mk", dg, v, v)
    differential = np.concatenate([base, 2.0 * gv], axis=1)
    return np.linalg.norm(differential, axis=1) > tol


def slice_metric_grid(model, coords):
    """Spatial blocks over an (m, n) coordinate array and their
    positive-definite flags."""
    block = eval_metric_grid(model, coords)[:, 1:, 1:]
    return block, _spatial_eigenvalues(block).min(axis=1) > 0.0
