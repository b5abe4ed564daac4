"""Shared fixtures: brute-force oracles and synthetic embedding maps."""

import dataclasses

import numpy as np

from sigembed import EmbeddingMap, MinkowskiEvent
from sigembed.misner import boost_tau_y1

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
    tangency tests), and each orbit stays inside the image with constant
    preimage time.
    """

    def r_of(t):
        return radius + slope * t

    def value_eval(p):
        r = r_of(p.t)
        x = p.spatial[0]
        return MinkowskiEvent(r * np.sinh(x), [r * np.cosh(x), p.t])

    def jacobian_eval(p):
        r = r_of(p.t)
        x = p.spatial[0]
        return np.array([
            [slope * np.sinh(x), r * np.cosh(x)],
            [slope * np.cosh(x), r * np.sinh(x)],
            [1.0, 0.0],
        ])

    def event_time(e):
        return float(e.y[1])

    def on_image_residual(e):
        return float(e.y[0]) ** 2 - e.tau**2 - r_of(float(e.y[1])) ** 2

    return EmbeddingMap(
        source_dim=2,
        target_dim=3,
        value_eval=value_eval,
        jacobian_eval=jacobian_eval,
        event_time=event_time,
        on_image_residual=on_image_residual,
    )


def boosted_frame_map(map_, rapidity):
    """The same embedding expressed in a boosted ambient frame."""

    def value_eval(p):
        e = map_.value_eval(p)
        tau, y1 = boost_tau_y1(e.tau, float(e.y[0]), rapidity)
        y = e.y.copy()
        y[0] = y1
        return MinkowskiEvent(tau, y)

    def jacobian_eval(p):
        jac = map_.jacobian_eval(p).copy()
        ch, sh = np.cosh(rapidity), np.sinh(rapidity)
        row_tau = jac[0] * ch + jac[1] * sh
        row_y1 = jac[0] * sh + jac[1] * ch
        jac[0], jac[1] = row_tau, row_y1
        return jac

    return dataclasses.replace(
        map_, value_eval=value_eval, jacobian_eval=jacobian_eval,
        value_batch=None, jacobian_batch=None,
    )
