"""Acceptance gate: one test per numbered criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them on
success).  Criterion 4's literal cross-sheet round-trip bound is kept as a
strict expected failure: the bound is unattainable in float64 (analysis in
the test's reason string); the enforced variant pins the identification
machinery with a per-sheet conditioning bound instead.
"""

import time

import numpy as np
import pytest

from helpers import synthetic_tangent_map

from sigembed import (HyperbolaFamily, MisnerEvent, from_misner,
                      isometry_residual_grid, orbit_intersection_count_grid,
                      psi_toy_map, tangency_residual_grid, to_misner, toy_model,
                      toy_tangency_poly)
from sigembed.misner import TWO_PI, source_embedding_map
from sigembed.verify import (PSI_REGION_T_MIN, TANGENCY_RESIDUAL_FLOOR,
                             check_asymptotics_large_negative,
                             check_asymptotics_small,
                             check_boost_identification,
                             check_bulk_vs_brane, check_composed_injectivity,
                             check_functoriality, check_inversion_roundtrip,
                             check_lc_regularity, check_misner_roundtrip,
                             check_ode_residual, check_quotient_isometry,
                             check_radical_transversality,
                             check_signature_sweep, _grid_coords)

def _report(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_isometry_of_psi():
    start = time.perf_counter()
    worst = {"analytic": 0.0, "finite_difference": 0.0}
    for n in (2, 3):
        model = toy_model(n)
        map_ = psi_toy_map(n)
        coords = _grid_coords(n, (-0.99, 10.0), (-5.0, 5.0), 200, 50)
        for mode in ("analytic", "finite_difference"):
            worst[mode] = max(
                worst[mode],
                isometry_residual_grid(map_, model, coords, mode),
            )
    elapsed = time.perf_counter() - start
    passed = (worst["analytic"] <= 1e-12 and worst["finite_difference"] <= 1e-6
              and elapsed < 2.0)
    _report(
        1, passed,
        f"psi isometry on 200x50 grids, n=2,3: analytic {worst['analytic']:.2e}"
        f" (<=1e-12), fd {worst['finite_difference']:.2e} (<=1e-6), "
        f"runtime {elapsed:.2f}s (<2s)",
    )


def test_criterion_2_explicit_embedding():
    ode = check_ode_residual(count=1000, t_span=10.0, tol=1e-6)
    inv = check_inversion_roundtrip(count=1001, t_span=100.0, tol=1e-8)
    _report(
        2, ode.passed and inv.passed,
        f"ode residual {ode.max_residual:.2e} (<=1e-6) over 1000 points; "
        f"inversion round-trip {inv.max_residual:.2e} (<=1e-8) over [-100, 100]",
    )


def test_criterion_3_asymptotics():
    small = check_asymptotics_small(magnitudes=(1e-3, 1e-4, 1e-5), tol=1e-2)
    large = check_asymptotics_large_negative(t=-100.0, tol=2e-2)
    _report(
        3, small.passed and large.passed,
        f"small-t deviation {small.max_residual:.2e} (<=1e-2); "
        f"theta(-100) vs -2000/3 relative {large.max_residual:.2e} (<=2e-2)",
    )


def test_criterion_4_misner_quotient():
    quot = check_quotient_isometry(count=1000, tol=1e-6)
    shift = check_boost_identification(count=200, tol=1e-12)
    trip = check_misner_roundtrip(count=1000, tol=1e-12)
    _report(
        4, quot.passed and shift.passed and trip.passed,
        f"quotient isometry {quot.max_residual:.2e} (<=1e-6, 1000 events); "
        f"generator shifts phi_raw by one period, +2pi under the "
        f"pullback-fixed angular sign, and preserves T "
        f"({shift.max_residual:.2e} <= 1e-12); round-trip base sheet "
        f"{trip.max_residual:.2e} (<=1e-12), other sheets at the float64 "
        f"conditioning bound",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "float64 cannot express sheet k = +-3 representatives of O(1)-T "
        "quotient points: the event stores tau, y1 ~ 2T/u while "
        "u = 2 exp(-(phi + 2 pi k)/2) ~ 1e-5, so recovering u loses about "
        "eps * 4|T|/u^2 ~ 1e-5 relative precision and the literal 1e-12 "
        "round-trip bound is unattainable; the enforced variant in "
        "criterion 4 pins the identification with a conditioning-aware "
        "bound per sheet"
    ),
)
def test_criterion_4_roundtrip_literal_bound():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        T = rng.uniform(-5.0, 5.0)
        phi = rng.uniform(0.0, TWO_PI)
        point = MisnerEvent(T=T, phi=phi, spectators=[0.5], phi_raw=phi)
        for k in range(-3, 4):
            m = to_misner(from_misner(point, k))
            d = abs(m.phi - phi)
            worst = max(worst, abs(m.T - T), min(d, TWO_PI - d))
    assert worst <= 1e-12


def test_criterion_5_transversality():
    _, disc = toy_tangency_poly(0.0)
    exact = disc == -15.0
    map_ = psi_toy_map(2)
    ts = np.linspace(-0.99, 10.0, 1000)
    coords = np.column_stack([ts, np.full(ts.size, 0.3)])
    min_res = float(tangency_residual_grid(map_, coords).min())
    synth = float(tangency_residual_grid(
        synthetic_tangent_map(), [(0.5, 0.3), (-1.0, -0.8), (2.0, 1.2)]).max())
    passed = (exact and min_res > 0.0 and min_res > TANGENCY_RESIDUAL_FLOOR
              and synth <= 1e-10)
    _report(
        5, passed,
        f"discriminant exactly -15; min tangency residual {min_res:.4f} > "
        f"regression floor {TANGENCY_RESIDUAL_FLOOR}; synthetic tangent "
        f"fixture residual {synth:.2e} (<=1e-10)",
    )


def test_criterion_6_injectivity():
    rng = np.random.default_rng(43)
    psi_map = psi_toy_map(2)
    exp_map = source_embedding_map("explicit", 2, HyperbolaFamily(1.0))
    bad = 0
    for map_, t_lo in [(psi_map, PSI_REGION_T_MIN + 1e-3), (exp_map, -10.0)]:
        # t then x for each base, in the order of a per-base loop
        chart = [[rng.uniform(t_lo, 10.0), rng.uniform(-5.0, 5.0)] for _ in range(100)]
        counts = orbit_intersection_count_grid(map_, map_.value(np.array(chart)),
                                               (-20, 20), 2001)
        bad += int(np.count_nonzero(counts != 1))
    distinct = check_composed_injectivity(t_count=100, x_count=100)
    _report(
        6, bad == 0 and distinct.passed,
        f"orbit intersection count = 1 for 2x100 on-image bases "
        f"({bad} failures); 10^4 composed images pairwise distinct "
        f"({int(distinct.max_residual)} collisions)",
    )


def test_criterion_7_signature_structure():
    sweeps = [check_signature_sweep(n, count=100_000) for n in (2, 3)]
    lc = check_lc_regularity(dims=(2, 3, 4), samples_per_dim=334)
    radical = check_radical_transversality(dims=(2, 3), samples_per_dim=100)
    passed = all(s.passed for s in sweeps) and lc.passed and radical.passed
    _report(
        7, passed,
        f"signature classes match sign(t) on 10^5-point sweeps (n=2,3); "
        f"light-cone regularity on {lc.grid}; radical transverse along the "
        f"degeneracy locus with fd/analytic gradient agreement "
        f"{radical.max_residual:.2e}",
    )


def test_criterion_8_signature_change_without_signature_change():
    result = check_bulk_vs_brane(t_count=301, tol=1e-12)
    _report(
        8, result.passed,
        f"quotient (T, phi) block determinant -1 within {result.max_residual:.2e}"
        f" (<=1e-12) along the composed curve, t in [-3, 3], while the source "
        f"determinant -t changes sign across t = 0",
    )


def test_criterion_9_pullback_functoriality():
    result = check_functoriality(count=100, tol=1e-5)
    _report(
        9, result.passed,
        f"composition pullback, staged pullback and source metric agree "
        f"three ways within {result.max_residual:.2e} (<=1e-5) at 100 points",
    )
