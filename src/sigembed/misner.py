"""Boost group, quotient coordinates and composed embeddings.

The half-space R = {y1 - tau > 0} of Minkowski space is quotiented by the
discrete boost group generated by a hyperbolic rotation of rapidity pi in
the (tau, y1) plane.  Quotient coordinates are

    T = ((y1)^2 - tau^2)/4,    phi = -2 ln((y1 - tau)/2)   (mod 2 pi),

and the quotient metric is g = -2 dT dphi - T dphi^2 + sum (dy^i)^2.
Boosting by rapidity s scales u = y1 - tau by e^(-s), hence shifts the
unwrapped phi by +2 s; the generator therefore shifts phi by one full
period +2 pi, which is exactly the identification the quotient makes.

The quotient map, its exact Jacobian and its checks run on (m, N) event
arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, RegionError
from .minkowski import MinkowskiEvent, minkowski_eta, psi_toy_map
from .explicit import HyperbolaFamily, explicit_embedding_map

TWO_PI = 2.0 * math.pi

# Rapidity of the generator of the boost group; it shifts phi_raw by TWO_PI.
GENERATOR_RAPIDITY = math.pi

# Sign of the angular coordinate, fixed against the metric above by the
# quotient-isometry oracle: with g_Tphi = -1, only phi = -2 ln(u/2) pulls
# the quotient metric back to diag(-1, +1, ...).
PHI_SIGN = -2.0


@dataclass(frozen=True)
class MisnerEvent:
    """Quotient point (T, phi, y^2, ...) with phi canonical in [0, 2 pi).

    ``phi_raw`` keeps the unwrapped angle of the representative that
    produced the event; ``branch`` is the sheet index, so that
    phi_raw = phi + 2 pi branch.  Orbits with T > 0 are closed timelike
    curves; T < 0 gives hyperbolic orbits.
    """

    T: float
    phi: float
    spectators: np.ndarray
    phi_raw: float

    def __post_init__(self):
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "phi_raw", float(self.phi_raw))
        spect = np.asarray(self.spectators, dtype=float).reshape(-1)
        object.__setattr__(self, "spectators", spect)
        if not np.isfinite(self.T) or not np.all(np.isfinite(spect)):
            raise ValueError(f"quotient point has non-finite coordinates: {self}")
        if not (0.0 <= self.phi < TWO_PI):
            raise ValueError(f"phi must be canonical in [0, 2 pi), got {self.phi}")

    @property
    def branch(self):
        return int(round((self.phi_raw - self.phi) / TWO_PI))


def boost_tau_y1(tau, y1, s):
    """Hyperbolic rotation of rapidity s in the (tau, y1) plane."""
    ch = np.cosh(s)
    sh = np.sinh(s)
    return tau * ch + y1 * sh, tau * sh + y1 * ch


def require_region(tau, y1):
    """u = y1 - tau for scalar or array (tau, y1) inside the
    quotient-admissible half-space u > 0; RegionError (carrying the pair
    and its flat index) at the first pair outside it."""
    u = np.subtract(y1, tau, dtype=float)
    if not (u > 0.0).all():
        k = int(np.argmax(np.ravel(~(u > 0.0))))
        bad_tau, bad_y1 = (float(np.broadcast_to(a, np.shape(u)).flat[k])
                           for a in (tau, y1))
        raise RegionError(
            f"event outside the half-space y1 - tau > 0: "
            f"tau = {bad_tau}, y1 = {bad_y1}",
            tau=bad_tau, y1=bad_y1, index=k,
        )
    return u


def quotient_map_coords(events):
    """(T, phi_raw, spectators) of (..., N) event coordinates
    (tau, y1, spectators); the chart form of the quotient map."""
    events = np.asarray(events, dtype=float)
    tau = events[..., 0]
    y1 = events[..., 1]
    u = require_region(tau, y1)
    out = np.empty_like(events)
    out[..., 0] = (y1 * y1 - tau * tau) / 4.0
    out[..., 1] = PHI_SIGN * np.log(u / 2.0)
    out[..., 2:] = events[..., 2:]
    return out


def canonical_phi(phi_raw):
    """phi_raw reduced to the half-open range [0, 2 pi)."""
    phi = np.mod(phi_raw, TWO_PI)
    return np.where(phi >= TWO_PI, phi - TWO_PI, phi)  # guard against rounding


def to_misner(e):
    """Quotient coordinates of an event in the half-space.

    Returns a MisnerEvent carrying both the canonical phi and the
    unwrapped phi_raw of the given representative.
    """
    q = quotient_map_coords(e.coords())
    return MisnerEvent(T=q[0], phi=canonical_phi(q[1]), spectators=q[2:],
                       phi_raw=q[1])


def representative_coords(quotient):
    """Event coordinates (tau, y1, spectators) of (..., N) quotient chart
    coordinates (T, phi_raw, spectators): the representative on the sheet
    that phi_raw names, with u = y1 - tau > 0 by construction for every T.
    Inverse of quotient_map_coords."""
    quotient = np.asarray(quotient, dtype=float)
    u = 2.0 * np.exp(quotient[..., 1] / PHI_SIGN)
    v = 4.0 * quotient[..., 0] / u
    events = quotient.copy()
    events[..., 0] = 0.5 * (v - u)
    events[..., 1] = 0.5 * (v + u)
    return events


def from_misner(m, branch=0):
    """Representative Minkowski event of a quotient point on a chosen sheet.

    The covering is infinite-sheeted, so the branch index is explicit:
    the representative satisfies phi_raw = phi + 2 pi branch.
    """
    quotient = np.concatenate(([m.T, m.phi + TWO_PI * branch], m.spectators))
    return MinkowskiEvent.from_coords(representative_coords(quotient))


def misner_metric(T, dim=2):
    """Quotient metric at coordinate time T (scalar, or array for a stack),
    in (T, phi, y^2, ...) order."""
    if dim < 2:
        raise PreconditionError(f"dimension must be >= 2, got {dim}")
    T = np.asarray(T, dtype=float)
    g = np.zeros(T.shape + (dim, dim))
    g[..., 2:, 2:] = np.eye(dim - 2)
    g[..., 0, 1] = g[..., 1, 0] = -1.0
    g[..., 1, 1] = -T
    return g


def quotient_jacobian(events):
    """(m, N, N) exact Jacobians of the quotient map at (m, N) events."""
    events = np.asarray(events, dtype=float)
    dphi = PHI_SIGN / require_region(events[:, 0], events[:, 1])  # dphi = PHI_SIGN du/u
    jac = np.zeros(events.shape + events.shape[1:])
    jac[:, 2:, 2:] = np.eye(events.shape[1] - 2)
    jac[:, 0, 0], jac[:, 0, 1] = -0.5 * events[:, 0], 0.5 * events[:, 1]
    jac[:, 1, 0], jac[:, 1, 1] = -dphi, dphi
    return jac


def quotient_isometry_residual_grid(events):
    """Max-norm mismatch, per event of an (m, N) array, between the flat
    metric and the quotient metric pulled back through quotient_jacobian;
    zero where the quotient map is a local isometry."""
    events = np.asarray(events, dtype=float)
    jac = quotient_jacobian(events)
    T = (events[:, 1] ** 2 - events[:, 0] ** 2) / 4.0
    back = np.swapaxes(jac, 1, 2) @ misner_metric(T, events.shape[1]) @ jac
    return np.abs(back - minkowski_eta(events.shape[1])).max(axis=(1, 2))


def quotient_isometry_residual(e):
    """quotient_isometry_residual_grid at one event."""
    return float(quotient_isometry_residual_grid(e.batch())[0])


def source_embedding_map(source, n=2, family=None):
    """Embedding selected by name: 'psi_toy' or 'explicit'.

    The explicit family defaults to shift 1 here so composed images stay
    strictly inside the half-space and off the origin.
    """
    if source == "psi_toy":
        return psi_toy_map(n)
    if source == "explicit":
        family = family if family is not None else HyperbolaFamily(shift=1.0)
        return explicit_embedding_map(n, family)
    raise ValueError(f"unknown source embedding {source!r}")
