"""Shared fixtures: brute-force oracles and synthetic embedding maps."""

import dataclasses

import numpy as np

from sigembed import EmbeddingMap
from sigembed.config import central_diff, fd_steps
from sigembed.misner import boost_tau_y1, quotient_map_coords

SQRT2 = float(np.sqrt(2.0))


def simpson_raw_arc(theta, n=1_000_001):
    """Composite-Simpson arc integral on the raw integrand.

    Independent of the package's closed form: uniform panels, no
    substitution, no adaptivity.  Accuracy is limited to ~N^-1.5 by the
    sqrt kink at 0.
    """
    if theta == 0.0:
        return 0.0
    s = np.linspace(0.0, theta, n)
    u = SQRT2 - 2.0 * s
    f = np.sqrt(np.abs(4.0 / u**4 - 1.0))
    h = theta / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.dot(w, f) * h / 3.0)


def simpson_substituted_arc(theta, n=1_000_001):
    """Composite-Simpson arc integral after the kink-removing s = sgn w^2
    substitution; smooth integrand, so accuracy is machine-limited."""
    if theta == 0.0:
        return 0.0
    sign = 1.0 if theta > 0.0 else -1.0
    w_max = np.sqrt(abs(theta))
    w = np.linspace(0.0, w_max, n)
    s = sign * w * w
    u = SQRT2 - 2.0 * s
    f = 2.0 * w * np.sqrt(np.abs(4.0 / u**4 - 1.0))
    h = w_max / (n - 1)
    wt = np.ones(n)
    wt[1:-1:2] = 4.0
    wt[2:-1:2] = 2.0
    return sign * float(np.dot(wt, f) * h / 3.0)


def synthetic_tangent_map(slope=0.1, radius=2.0):
    """Map whose constant-time curves are boost orbits.

    sigma(t, x) = (r(t) sinh x, r(t) cosh x, t) with r(t) = radius + slope t:
    the Killing vector equals d sigma / d x exactly, so the image is
    everywhere tangent to the orbit foliation (regression fixture for the
    tangency tests), and each orbit stays inside the image.
    """

    def r_of(t):
        return radius + slope * t

    def value(coords):
        t, x = coords[:, 0], coords[:, 1]
        r = r_of(t)
        return np.column_stack([r * np.sinh(x), r * np.cosh(x), t])

    def jacobian(coords):
        t, x = coords[:, 0], coords[:, 1]
        r = r_of(t)
        return np.stack([
            np.column_stack([slope * np.sinh(x), r * np.cosh(x)]),
            np.column_stack([slope * np.cosh(x), r * np.sinh(x)]),
            np.column_stack([np.ones_like(t), np.zeros_like(t)]),
        ], axis=1)

    def on_image_residual(events):
        return events[:, 1] ** 2 - events[:, 0] ** 2 - r_of(events[:, 2]) ** 2

    return EmbeddingMap(
        source_dim=2,
        target_dim=3,
        value=value,
        jacobian=jacobian,
        on_image_residual=on_image_residual,
    )


def boosted_frame_map(map_, rapidity):
    """The same embedding expressed in a boosted ambient frame."""
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)

    def value(coords):
        out = map_.value(coords)
        out[:, 0], out[:, 1] = boost_tau_y1(out[:, 0], out[:, 1], rapidity)
        return out

    def jacobian(coords):
        jac = map_.jacobian(coords)
        jac[:, 0], jac[:, 1] = (jac[:, 0] * ch + jac[:, 1] * sh,
                                jac[:, 0] * sh + jac[:, 1] * ch)
        return jac

    return dataclasses.replace(map_, value=value, jacobian=jacobian)


def fd_quotient_jacobian(events):
    """Central-difference Jacobians of the quotient map over (m, N) events,
    each step capped at u/4 so that the stencil stays inside the half-space;
    the oracle of the exact misner.quotient_jacobian."""
    events = np.asarray(events, dtype=float)
    u = events[:, 1] - events[:, 0]
    steps = np.minimum(fd_steps(events), 0.25 * u[:, None])
    return central_diff(quotient_map_coords, events, steps)
