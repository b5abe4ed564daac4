"""Arc length of the embedding curve and its inversion, in closed form.

The arc-length integral

    I(theta) = integral_0^theta sqrt(|4/(sqrt(2) - 2 s)^4 - 1|) ds

has a square-root kink at s = 0 and a non-integrable pole at
s = 1/sqrt(2).  With y = 1 - sqrt2 theta for theta >= 0 and
y = 1/(1 - sqrt2 theta) for theta < 0, both branches become
I(theta) = sgn(theta) K(y) / sqrt2 with y in (0, 1] and

    K(y) = sqrt(1 - y^4)/y - 2 J(1) + 2 J(y),
    J(y) = integral_0^y v^2/sqrt(1 - v^4) dv = (y^3/3) R_D(1 - y^2, 1 + y^2, 1),

R_D being Carlson's symmetric elliptic integral of the second kind
(Carlson 1995, Numer. Algorithms 10:13; DLMF 19.36).  Near theta = 0 the
terms of K cancel, so |theta| < ARC_SEAM uses the convergent series
I = theta |theta|^(1/2) sum a_m theta^m instead.

The inversion I(theta) = (2/3)|t|^(3/2) sgn(t) uses the reverted series
theta = t sum e_k t^k for |t| < THETA_SEAM.  Beyond it, both signs of t
solve the same equation K(z) = T, T = sqrt2 |I|, for z = 1/y, where K is
increasing and convex: dK/dz = sqrt(1 - z^-4) (the arc integrand, up to
the change of variable) and d2K/dz2 = 2 z^-5 / sqrt(1 - z^-4) > 0.  As
K(z) - z falls from -1 towards -2 J(1), the start z0 = T + 2 J(1) lies
right of the root z*, and Newton started right of the root of an
increasing convex function decreases monotonically onto it (Ortega &
Rheinboldt 1970).  Its error e_k = z_k - z* obeys e_(k+1) <= C e_k^2 with

    C = max K'' / (2 min K') = K''(z*) / (2 K'(z*)) = 1 / (z*^5 - z*),

so C e_k <= (C e_0)^(2^k), and theta moves by at most e_k / (z* - 1),
relative.  The bound is largest at the seam, where z* = 1.2186 is
smallest: C e_0 = 0.066, and _NEWTON_STEPS = 4 steps leave 9.4e-19 (3
leave 2.5e-9).  For huge T, z0 as rounded can sit left of z*; one step
from the left lands right of z* with an error C e_0^2, far below an ulp,
and the argument resumes.  So one fixed step count serves every t up to
where theta overflows; tests/test_kernels.py evaluates the bound from the
seam to |t| = 1e15.

Every function is batch-first; scalar callers pass one-element arrays.
Status codes: 0 ok; 1 non-finite theta or theta at/beyond the pole (arc).
The inversion's status is always 0.
"""

import numpy as np

from .errors import DomainError

SQRT2 = float(np.sqrt(2.0))
THETA_POLE = float(np.sqrt(0.5))
# Slope of the inversion at t = 0: theta ~ t / 2**(5/6).
SEED_SLOPE = float(2.0 ** (-5.0 / 6.0))
# Recorded by perfbench/run.py in its environment block; there is no
# compiled backend any more.
NUMBA_ENABLED = False

# 2 J(1) = pi / (lemniscate constant 2.62205755429211981...).
_TWO_J1 = 1.1981402347355923
_RD_STEPS = 5  # duplication steps; enough for the R_D arguments above
_NEWTON_STEPS = 4  # from the convergence bound above

# Series of I(theta)/(theta |theta|^(1/2)) about 0 (radius 1/sqrt2), used
# below the seam where K loses digits to cancellation.  Derived from
# sqrt(((1 - u)^-4 - 1)/u) = sum b_m u^m, u = sqrt2 theta, as
# a_m = 2^(1/4 + m/2) b_m / (m + 3/2); tests/test_kernels.py re-derives them.
ARC_SEAM = 0.125
_ARC_SERIES = (
    1.5856094866702948, 1.681792830507429, 2.3359425473267734,
    3.328548310379287, 4.739091706164963, 6.723886570407632,
    9.518108704469206, 13.46029625637446, 19.031005567613956,
    26.909118947431324, 38.052777813156865, 53.814958938221245,
    76.10768754876808, 107.63455537149278, 152.21939534173097,
    215.27067845221515, 304.4378195518203, 430.53904252220025,
    608.8735290943739, 861.0772294465377, 1217.7476124118741,
    1722.1558172223433,
)

# Reversion of t(theta) = sgn(I) (3|I|/2)^(2/3) about 0: theta/t as a
# series in t, so that small |t| needs no iteration (and no power of t
# that could underflow).  e_0 is SEED_SLOPE.
THETA_SEAM = 0.25
_THETA_SERIES = (
    0.5612310241546865, -0.22272467953508482, 0.02525381361380527,
    0.015032973861286245, -0.0026342668497888046, -0.003095232025718016,
    0.0004966056609505506, 0.0008346610563100091, -0.00011961355490874829,
    -0.0002564113271760557, 3.306773605689352e-05, 8.515976885441023e-05,
    -9.992202196273486e-06, -2.9798656134891284e-05, 3.21342712891528e-06,
    1.0825039774508067e-05, -1.0821401369720363e-06, -4.045060701250989e-06,
)


def _horner(coeffs, x):
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def arc_series(thetas):
    """S(theta) = I(theta) / (theta |theta|^(1/2)) for |theta| < ARC_SEAM."""
    return _horner(_ARC_SERIES, thetas)


def carlson_rd(y2):
    """R_D(1 - y2, 1 + y2, 1) by Carlson's duplication.

    For these arguments A_0 = 1 and the deviations are (y2, -y2, 0), so of
    the fifth-order tail only E_2 = -X^2 survives.
    """
    xyz = np.stack([1.0 - y2, 1.0 + y2, np.ones_like(y2)])
    total = 0.0
    scale = 1.0
    for _ in range(_RD_STEPS):
        root = np.sqrt(xyz)
        lam = root[0] * (root[1] + root[2]) + root[1] * root[2]
        total = total + scale / (root[2] * (xyz[2] + lam))
        scale *= 0.25
        xyz = 0.25 * (xyz + lam)
    a = (xyz[0] + xyz[1] + 3.0 * xyz[2]) / 5.0
    x2 = (y2 * scale / a) ** 2
    tail = 1.0 + x2 * (3.0 / 14.0 + x2 * (9.0 / 88.0))
    return scale * tail / (a * np.sqrt(a)) + 3.0 * total


def _k_and_slope(y):
    """K(y) and dK/dz = sqrt(1 - y^4), z = 1/y."""
    y2 = y * y
    slope = np.sqrt((1.0 - y2) * (1.0 + y2))
    return slope / y - _TWO_J1 + (2.0 / 3.0) * y * y2 * carlson_rd(y2), slope


def arc_integral_batch(thetas):
    """I(theta) over an array; returns (values, status)."""
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    values = np.full_like(thetas, np.nan)
    status = np.zeros(thetas.shape, dtype=np.int64)
    ok = np.isfinite(thetas) & (thetas < THETA_POLE)
    status[~ok] = 1
    near = ok & (np.abs(thetas) < ARC_SEAM)
    if near.any():
        th = thetas[near]
        values[near] = th * np.sqrt(np.abs(th)) * arc_series(th)
    far = ok & ~near
    if far.any():
        th = thetas[far]
        u = SQRT2 * th
        y = np.where(th > 0.0, 1.0 - u, 1.0 / (1.0 - u))
        values[far] = np.sign(th) * _k_and_slope(y)[0] / SQRT2
    return values, status


def _theta_far(ts):
    """theta for |t| >= THETA_SEAM: fixed Newton steps on K from the right."""
    with np.errstate(all="ignore"):
        target = SQRT2 * (2.0 / 3.0) * np.abs(ts) * np.sqrt(np.abs(ts))
        z = target + _TWO_J1
        for _ in range(_NEWTON_STEPS):
            k, slope = _k_and_slope(1.0 / z)
            z = z - (k - target) / slope
    # only overflow, for |t| above about 3.3128e205, leaves z non-finite
    if not np.isfinite(z).all():
        raise DomainError(f"theta(t) overflows float64 at t = {ts[~np.isfinite(z)][0]}")
    return np.where(ts > 0.0, (1.0 - 1.0 / z) / SQRT2, (1.0 - z) / SQRT2)


def theta_root_batch(ts):
    """Unique theta < 1/sqrt2 with I(theta) = (2/3)|t|^(3/2) sgn(t), over
    an array of t; returns (thetas, status), the status all 0.  Non-finite
    t is a ValueError, |t| beyond about 3.3128e205, where the inversion
    overflows, a DomainError."""
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    finite = np.isfinite(ts)
    if not finite.all():
        raise ValueError(f"t must be finite, got {ts[~finite][0]}")
    thetas = np.empty_like(ts)
    near = np.abs(ts) < THETA_SEAM
    if near.any():
        t = ts[near]
        thetas[near] = t * _horner(_THETA_SERIES, t)
    if not near.all():
        thetas[~near] = _theta_far(ts[~near])
    return thetas, np.zeros(ts.shape, dtype=np.int64)
