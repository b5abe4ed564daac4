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
from .errors import ConvergenceError, DivergenceError, PoleError
from .minkowski import EmbeddingMap, MinkowskiEvent


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
    """xi coordinate of the family member above the given theta.

    The branch has a pole where the base parameter theta + shift/sqrt(2)
    reaches 1/sqrt(2).
    """
    theta0 = float(theta) + family.offset
    if theta0 >= THETA_POLE:
        raise PoleError(
            f"theta = {theta} is at or beyond the branch pole "
            f"(base parameter {theta0} >= {THETA_POLE})"
        )
    return SQRT2 * theta0 / (SQRT2 - 2.0 * theta0) + family.offset


def hyperbola_xi_prime(theta, family=HyperbolaFamily()):
    """d xi / d theta along the family member (translation invariant)."""
    theta0 = float(theta) + family.offset
    if theta0 >= THETA_POLE:
        raise PoleError(f"theta = {theta} is at or beyond the branch pole")
    return 2.0 / (SQRT2 - 2.0 * theta0) ** 2


def arc_integral(theta, cfg=None):
    """I(theta) = integral_0^theta sqrt(|4/(sqrt2 - 2 s)^4 - 1|) ds.

    Negative for theta < 0; diverges as theta -> 1/sqrt(2) from below.
    """
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if theta >= THETA_POLE:
        raise DivergenceError(
            f"arc integral diverges for theta >= 1/sqrt(2); got theta = {theta}"
        )
    values, _ = _kernels.arc_integral_batch(np.array([theta]), cfg)
    return float(values[0])


def t_of_theta(theta, cfg=None):
    """Source time t with (2/3)|t|^(3/2) sgn(t) = I(theta)."""
    value = arc_integral(theta, cfg)
    return float(np.sign(value) * (1.5 * abs(value)) ** (2.0 / 3.0))


def theta_of_t(t, cfg=None):
    """Unique theta < 1/sqrt(2) with I(theta) = (2/3)|t|^(3/2) sgn(t).

    Strictly increasing in t; a batch of one through theta_of_t_grid.
    """
    return float(theta_of_t_grid([float(t)], cfg)[0])


def theta_of_t_grid(ts, cfg=None):
    """theta_of_t over an array of t values; ValueError for non-finite t,
    ConvergenceError where the Newton iteration exhausts max_iterations."""
    cfg = cfg or NumericConfig()
    ts = np.asarray(ts, dtype=float)
    thetas, status = _kernels.theta_root_batch(ts, cfg)
    if np.any(status != 0):
        bad = float(ts[status != 0][0])
        raise ConvergenceError(f"theta inversion did not converge for t = {bad}")
    return thetas


def asymptotic_theta(t):
    """Closed-form approximations (small regime, large-negative regime)."""
    t = float(t)
    return t * SEED_SLOPE, (2.0 / 3.0) * abs(t) ** 1.5 * np.sign(t)


# Orientation of the curve parameter relative to source time, fixed by the
# isometry requirement (see module docstring).
EMBED_TIME_SIGN = -1.0


def embed_explicit(p, family=HyperbolaFamily(), cfg=None):
    """Global embedding (theta_emb - d/sqrt2, xi + d/sqrt2, x^1, ...) of a
    chart point, theta_emb(t) = theta_of_t(-t); defined for every finite t."""
    theta0 = theta_of_t(EMBED_TIME_SIGN * p.t, cfg)
    tau = theta0 - family.offset
    xi = hyperbola_xi(tau, family)
    return MinkowskiEvent(tau, np.concatenate(([xi], p.spatial)))


def embed_explicit_grid(ts, family=HyperbolaFamily(), cfg=None):
    """(theta, xi) arrays of the translated curve over a t-grid; spatial
    coordinates ride along unchanged."""
    thetas0 = theta_of_t_grid(EMBED_TIME_SIGN * np.asarray(ts, dtype=float), cfg)
    if np.any(thetas0 >= THETA_POLE):
        raise PoleError("grid reaches the branch pole")
    tau = thetas0 - family.offset
    xi = SQRT2 * thetas0 / (SQRT2 - 2.0 * thetas0) + family.offset
    return tau, xi


def explicit_jacobian_columns(t, family=HyperbolaFamily(), cfg=None):
    """(d theta_emb/dt, d xi/dt) along the embedded curve.

    From the arc-length matching, |d theta_emb/dt| = |t|^(1/2) / F(theta)
    with F the arc integrand; the magnitude of the t = 0 limit is 1/2^(5/6).
    """
    t = float(t)
    if t == 0.0:
        dtheta = EMBED_TIME_SIGN * SEED_SLOPE
        theta0 = 0.0
    else:
        theta0 = theta_of_t(EMBED_TIME_SIGN * t, cfg)
        u = SQRT2 - 2.0 * theta0
        integrand = np.sqrt(abs(4.0 / u**4 - 1.0))
        dtheta = EMBED_TIME_SIGN * np.sqrt(abs(t)) / integrand
    dxi = hyperbola_xi_prime(theta0 - family.offset, family) * dtheta
    return dtheta, dxi


def explicit_embedding_map(n=2, family=HyperbolaFamily(), cfg=None):
    """EmbeddingMap wrapper for the global construction (target dim n + 1)."""
    cfg = cfg or NumericConfig()

    def value_eval(p):
        return embed_explicit(p, family, cfg)

    def jacobian_eval(p):
        dtheta, dxi = explicit_jacobian_columns(p.t, family, cfg)
        jac = np.zeros((n + 1, n))
        jac[0, 0] = dtheta
        jac[1, 0] = dxi
        jac[2:, 1:] = np.eye(n - 1)
        return jac

    def event_time(e):
        theta0 = e.tau + family.offset
        if theta0 >= THETA_POLE:
            return np.nan
        return EMBED_TIME_SIGN * t_of_theta(theta0, cfg)

    def on_image_residual(e):
        theta0 = e.tau + family.offset
        if theta0 >= THETA_POLE:
            return np.nan
        return float(e.y[0]) - hyperbola_xi(e.tau, family)

    def value_batch(coords):
        coords = np.asarray(coords, dtype=float)
        tau, xi = embed_explicit_grid(coords[:, 0], family, cfg)
        out = np.empty((coords.shape[0], n + 1))
        out[:, 0] = tau
        out[:, 1] = xi
        out[:, 2:] = coords[:, 1:]
        return out

    return EmbeddingMap(
        source_dim=n,
        target_dim=n + 1,
        value_eval=value_eval,
        jacobian_eval=jacobian_eval,
        domain_check=None,
        event_time=event_time,
        on_image_residual=on_image_residual,
        value_batch=value_batch,
    )


def ode_residual(t, family=HyperbolaFamily(), cfg=None):
    """|-theta'(t)^2 + xi'(t)^2 + t| by central differences on the first two
    embedded components; the defining first-order isometry identity."""
    t = float(t)
    cfg = cfg or NumericConfig()
    h = cfg.fd_step * max(1.0, abs(t))
    if t != 0.0 and abs(t) < 2.0 * h:
        h = 0.5 * abs(t)  # keep the stencil off the |t| kink at 0
    thetas = theta_of_t_grid(EMBED_TIME_SIGN * np.array([t - h, t + h]), cfg)
    dtheta = (thetas[1] - thetas[0]) / (2.0 * h)
    xi_vals = [hyperbola_xi(th - family.offset, family) for th in thetas]
    dxi = (xi_vals[1] - xi_vals[0]) / (2.0 * h)
    return float(abs(-(dtheta**2) + dxi**2 + t))
