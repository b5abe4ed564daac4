"""Orbit transversality and intersection counting.

The boost group's Killing field K = y1 d_tau + tau d_y1 spans the orbit
tangents; an embedded image is transverse to the orbit foliation where K
never lies in the span of the embedding Jacobian.  For the canonical-model
embedding the tangency obstruction reduces to the quadratic 2 t^2 + t + 2,
whose negative discriminant rules tangency out for every real t.  Orbit
intersections with an image are located by sign-change isolation of the
image-membership residual along the boost parameter, for k orbits at once
on one rapidity grid; the one-orbit scan is a batch of one.
"""

import warnings

import numpy as np

from .errors import CapabilityError, DomainError, PreconditionError
from .minkowski import jacobian_grid
from .misner import boost_tau_y1, require_region

# An orbit point counts as on-image when the membership residual refines
# below this absolute tolerance; rejects pole-crossing pseudo-roots.
MEMBERSHIP_TOL = 1e-9


def _killing(events):
    """Boost generator at (m, N) events: tau-component y1, y1-component
    tau, zero on spectators.  Vanishes only at the fixed point tau = y1 = 0."""
    k = np.zeros_like(events)
    k[:, 0] = events[:, 1]
    k[:, 1] = events[:, 0]
    return k


def tangency_residual_grid(map_, coords, mode="analytic", cfg=None):
    """Normalised least-squares defect of fitting the Killing vector into
    the image tangent space, over an (m, n) coordinate array; strictly
    positive iff K is not tangent there, i.e. the image is transverse to
    the orbit."""
    coords = np.asarray(coords, dtype=float)
    try:
        events = map_.value(coords)
    except DomainError as exc:
        raise PreconditionError(f"point outside the embedding domain: {exc}") from exc
    k = _killing(events)
    k_norm = np.linalg.norm(k, axis=1)
    if (k_norm == 0.0).any():
        raise PreconditionError(
            "orbit degenerates at the boost fixed point (tau = y1 = 0); "
            "tangency is undefined there"
        )
    jac = jacobian_grid(map_, coords, mode, cfg)
    # Spatial tangents must not all align with the first spatial axis,
    # otherwise a positive residual does not certify transversality.
    if jac.shape[1] > 2:
        spectator = np.abs(jac[:, 2:, :]).max(axis=(1, 2))
        if (spectator <= 1e-14 * np.maximum(1.0, np.abs(jac).max(axis=(1, 2)))).any():
            warnings.warn(
                "all spatial tangent vectors lie along the first spatial axis; "
                "the tangency test cannot certify transversality here",
                stacklevel=2,
            )
    # least squares through the pseudo-inverse, with lstsq's default cutoff
    rcond = np.finfo(float).eps * max(jac.shape[1:])
    coef = np.linalg.pinv(jac, rcond) @ k[:, :, None]
    return np.linalg.norm(k - (jac @ coef)[:, :, 0], axis=1) / k_norm


def tangency_residual(map_, p, mode="analytic", cfg=None):
    """tangency_residual_grid at one chart point."""
    return float(tangency_residual_grid(map_, p.batch(), mode, cfg)[0])


def toy_tangency_poly(t):
    """(2 t^2 + t + 2, discriminant -15): the closed-form obstruction whose
    vanishing would make the boost generator tangent to the canonical-model
    image; the negative discriminant means it never vanishes.  t may be a
    scalar or an array."""
    return 2.0 * t * t + t + 2.0, -15.0


def _orbit_events(bases, s):
    """Events boost(base, s) of (k, N) bases at rapidities s, as (k, len(s), N)."""
    tau, y1 = boost_tau_y1(bases[:, :1], bases[:, 1:2], s)
    spect = np.broadcast_to(bases[:, None, 2:], tau.shape + (bases.shape[1] - 2,))
    return np.concatenate([tau[..., None], y1[..., None], spect], axis=-1)


def _residual_at(map_, base, s):
    return float(map_.on_image_residual(_orbit_events(base[None], np.array([s]))[0])[0])


def _refine_root(map_, base, s_lo, s_hi, r_lo, iters=100):
    for _ in range(iters):
        s_mid = 0.5 * (s_lo + s_hi)
        r_mid = _residual_at(map_, base, s_mid)
        if not np.isfinite(r_mid):
            return None
        if r_mid == 0.0:
            return s_mid
        if (r_mid < 0.0) == (r_lo < 0.0):
            s_lo, r_lo = s_mid, r_mid
        else:
            s_hi = s_mid
        if s_hi - s_lo <= 1e-14 * max(1.0, abs(s_hi)):
            break
    return 0.5 * (s_lo + s_hi)


def orbit_intersection_count_grid(map_, bases, s_range=(-20.0, 20.0), samples=2001):
    """(k,) numbers of isolated boost parameters at which the orbits through
    the rows of the (k, N) event array ``bases`` lie on the embedded image,
    from one scan of ``samples`` >= 2 rapidities over a finite ``s_range`` =
    (lo, hi), lo < hi; only rows with a residual sign change are bisected.
    The bases must lie in the half-space y1 - tau > 0, which orbits preserve
    (RegionError names the first one outside); the map must expose an
    ``on_image_residual`` evaluator.
    """
    samples = int(samples)
    if samples < 2:
        raise PreconditionError(f"samples must be >= 2, got {samples}")
    lo, hi = float(s_range[0]), float(s_range[1])
    if not (lo < hi and np.isfinite([lo, hi]).all()):
        raise PreconditionError(f"s_range must be finite with lo < hi, got {s_range}")
    if map_.on_image_residual is None:
        raise CapabilityError("orbit scans need the map's on_image_residual")
    bases = np.asarray(bases, dtype=float)
    require_region(bases[:, 0], bases[:, 1])
    s_grid = np.linspace(lo, hi, samples)
    events = _orbit_events(bases, s_grid).reshape(-1, bases.shape[1])
    residuals = np.asarray(map_.on_image_residual(events), dtype=float)
    residuals = residuals.reshape(-1, samples)
    on_node = np.abs(residuals) <= MEMBERSHIP_TOL
    # sign changes between finite nodes not already collected as roots
    off_node = np.isfinite(residuals) & ~on_node
    sign_change = np.diff(residuals < 0.0, axis=1) & off_node[:, :-1] & off_node[:, 1:]
    # without a sign change the on-node samples are the roots, ds apart
    counts = np.count_nonzero(on_node, axis=1)
    for k in np.flatnonzero(sign_change.any(axis=1)):
        roots = list(s_grid[on_node[k]])
        for i in np.flatnonzero(sign_change[k]):
            s = _refine_root(map_, bases[k], s_grid[i], s_grid[i + 1],
                             residuals[k, i])
            # pole crossings refine to a sign change with a large residual
            if s is not None and abs(_residual_at(map_, bases[k], s)) <= MEMBERSHIP_TOL:
                roots.append(s)
        merged = []
        for s in sorted(roots):
            if not merged or s - merged[-1] > 0.5 * (s_grid[1] - s_grid[0]):
                merged.append(s)
        counts[k] = len(merged)
    return counts


def orbit_intersection_count(map_, base, s_range=(-20.0, 20.0), samples=2001):
    """orbit_intersection_count_grid for one MinkowskiEvent ``base``."""
    return int(orbit_intersection_count_grid(map_, base.batch(), s_range, samples)[0])
