"""Fully global embedding built from a translated rotated hyperbola.

The curve xi = sqrt(2) theta / (sqrt(2) - 2 theta) (one smooth branch,
theta < 1/sqrt(2)) is swept out by arc-length matching: ``theta_of_t``
solves the implicit relation

    I(theta) = (2/3) |t|^(3/2) sgn(t),

with I the singular arc integral, evaluated in closed form in ``_kernels``;
it is strictly increasing with theta(0) = 0.  The embedding itself must
traverse the curve with the opposite time orientation,
theta_emb(t) = theta_of_t(-t):
the factor 4/(sqrt2 - 2 theta)^4 - 1 shares the sign of theta on this
branch, so only that orientation makes the induced line element
-theta'^2 + xi'^2 equal -t, i.e. makes the map an isometry of
-t dt^2 + sum (dx^i)^2.  The choice is pinned by the pullback tests, not
by convention.  Translating the curve by d * (-1, +1)/sqrt(2) yields the
full solution family; the spatial coordinates ride along unchanged.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import SEED_SLOPE, SQRT2, THETA_POLE
from .config import NumericConfig
from .errors import DivergenceError, PoleError
from .minkowski import EmbeddingMap


@dataclass(frozen=True)
class HyperbolaFamily:
    """Solution-family member: translation distance along (-1, +1)/sqrt(2).

    shift = 0 is the curve through the origin; shift > 0 keeps the image
    strictly inside the half-space y1 - tau > 0 and off the origin.
    """

    shift: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "shift", float(self.shift))
        if not (self.shift >= 0.0 and np.isfinite(self.shift)):
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")

    @property
    def offset(self):
        """Translation applied to (theta, xi): (-offset, +offset)."""
        return self.shift / SQRT2


def hyperbola_xi(theta, family=HyperbolaFamily()):
    """xi coordinate of the family member above scalar or array theta.

    The branch has a pole where the base parameter theta + shift/sqrt(2)
    reaches 1/sqrt(2).
    """
    theta = np.asarray(theta, dtype=float)
    theta0 = theta + family.offset
    beyond = theta0 >= THETA_POLE
    if beyond.any():
        raise PoleError(
            f"theta = {theta[beyond][0]} is at or beyond the branch pole "
            f"(base parameter {theta0[beyond][0]} >= {THETA_POLE})"
        )
    return SQRT2 * theta0 / (SQRT2 - 2.0 * theta0) + family.offset


def _arc_domain(theta):
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if theta >= THETA_POLE:
        raise DivergenceError(
            f"arc integral diverges for theta >= 1/sqrt(2); got theta = {theta}"
        )
    return theta


def arc_integral(theta):
    """I(theta) = integral_0^theta sqrt(|4/(sqrt2 - 2 s)^4 - 1|) ds.

    Negative for theta < 0; diverges as theta -> 1/sqrt(2) from below.
    """
    values, _ = _kernels.arc_integral_batch(np.array([_arc_domain(theta)]))
    return float(values[0])


def t_of_theta_grid(thetas):
    """Source time t with (2/3)|t|^(3/2) sgn(t) = I(theta) over a 1-d
    array; nan where theta is non-finite or at or beyond the pole.

    Below the arc seam, where I = theta |theta|^(1/2) S(theta) by the
    series, t = theta (1.5 S(theta))^(2/3), so no power of theta underflows.
    """
    thetas = np.asarray(thetas, dtype=float)
    values, _ = _kernels.arc_integral_batch(thetas)
    ts = np.sign(values) * (1.5 * np.abs(values)) ** (2.0 / 3.0)
    near = np.abs(thetas) < _kernels.ARC_SEAM
    ts[near] = thetas[near] * (1.5 * _kernels.arc_series(thetas[near])) ** (2.0 / 3.0)
    return ts


def t_of_theta(theta):
    """Source time t with (2/3)|t|^(3/2) sgn(t) = I(theta)."""
    return float(t_of_theta_grid(np.array([_arc_domain(theta)]))[0])


def theta_of_t(t):
    """Unique theta < 1/sqrt(2) with I(theta) = (2/3)|t|^(3/2) sgn(t).

    Strictly increasing in t; a batch of one through theta_of_t_grid.
    """
    return float(theta_of_t_grid([float(t)])[0])


def theta_of_t_grid(ts):
    """theta_of_t over an array of t values, by the series below the seam
    and a fixed count of Newton steps beyond it (see ``_kernels``);
    ValueError for non-finite t, DomainError for |t| beyond about
    3.3128e205, where the inversion overflows."""
    return _kernels.theta_root_batch(np.asarray(ts, dtype=float))[0]


def asymptotic_theta(t):
    """Closed-form approximations (small regime, large-negative regime),
    for scalar or array t."""
    return t * SEED_SLOPE, (2.0 / 3.0) * abs(t) ** 1.5 * np.sign(t)


# Orientation of the curve parameter relative to source time, fixed by the
# isometry requirement (see module docstring).
EMBED_TIME_SIGN = -1.0


def embed_explicit_grid(ts, family=HyperbolaFamily()):
    """(theta, xi) arrays of the translated curve over a t-grid:
    (theta_emb - d/sqrt2, xi + d/sqrt2) with theta_emb(t) = theta_of_t(-t),
    defined for every finite t."""
    thetas0 = theta_of_t_grid(EMBED_TIME_SIGN * np.asarray(ts, dtype=float))
    tau = thetas0 - family.offset
    return tau, hyperbola_xi(tau, family)


def embed_explicit(p, family=HyperbolaFamily()):
    """Global embedding of a chart point; the spatial coordinates ride
    along unchanged."""
    return explicit_embedding_map(p.n, family).value_eval(p)


def explicit_embedding_map(n=2, family=HyperbolaFamily()):
    """EmbeddingMap of the global construction (target dim n + 1)."""

    def value(coords):
        out = np.empty((coords.shape[0], n + 1))
        out[:, 0], out[:, 1] = embed_explicit_grid(coords[:, 0], family)
        out[:, 2:] = coords[:, 1:]
        return out

    def jacobian(coords):
        # From the arc-length matching, |d theta_emb/dt| = |t|^(1/2) / F(theta)
        # with F the arc integrand; the magnitude of the t = 0 limit is
        # 1/2^(5/6).
        ts = coords[:, 0]
        theta0 = theta_of_t_grid(EMBED_TIME_SIGN * ts)
        u = SQRT2 - 2.0 * theta0
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = np.sqrt(np.abs(ts)) / np.sqrt(np.abs(4.0 / u**4 - 1.0))
        dtheta = EMBED_TIME_SIGN * np.where(ts == 0.0, SEED_SLOPE, speed)
        jac = np.zeros((coords.shape[0], n + 1, n))
        jac[:, 0, 0] = dtheta
        jac[:, 1, 0] = 2.0 / u**2 * dtheta  # d xi / d theta is translation invariant
        jac[:, 2:, 1:] = np.eye(n - 1)
        return jac

    def on_image_residual(events):
        residual = np.full(events.shape[0], np.nan)
        below = events[:, 0] + family.offset < THETA_POLE
        residual[below] = events[below, 1] - hyperbola_xi(events[below, 0], family)
        return residual

    return EmbeddingMap(
        source_dim=n,
        target_dim=n + 1,
        value=value,
        jacobian=jacobian,
        on_image_residual=on_image_residual,
    )


def ode_residual_grid(ts, family=HyperbolaFamily(), cfg=None):
    """|-theta'(t)^2 + xi'(t)^2 + t| over an array of t, by central
    differences of embed_explicit_grid on a (2, m) stencil; the defining
    first-order isometry identity."""
    cfg = cfg or NumericConfig()
    ts = np.asarray(ts, dtype=float)
    h = cfg.fd_step * np.maximum(1.0, np.abs(ts))
    # keep the stencil off the |t| kink at 0
    h = np.where((ts != 0.0) & (np.abs(ts) < 2.0 * h), 0.5 * np.abs(ts), h)
    theta, xi = embed_explicit_grid(np.stack([ts - h, ts + h]), family)
    dtheta = (theta[1] - theta[0]) / (2.0 * h)
    dxi = (xi[1] - xi[0]) / (2.0 * h)
    return np.abs(-(dtheta**2) + dxi**2 + ts)


def ode_residual(t, family=HyperbolaFamily(), cfg=None):
    """ode_residual_grid at one t."""
    return float(ode_residual_grid(np.array([float(t)]), family, cfg)[0])
