"""Acceptance gate: ten end-to-end contracts, one test per criterion.

Each test is a complete statement of one promised property at desk
scale (n = 2, grids <= 64 per axis) and prints a one-line summary, so
`pytest -v tests/test_acceptance.py` reads as a pass/fail scorecard.
Tolerances are pinned in the assertions, not in fixtures.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from regfrac.gagliardo import assemble, build_near_table
from regfrac.geometry import Ball, Box, DomainMask, GridSpec, direction_set, make_mask
from regfrac.hardy import equivalence_check, hardy_check, standard_test_functions
from regfrac.rearrange import almgren_lieb_check, symmetric_decreasing_rearrangement
from regfrac.shapeopt import component_reduction, optimize_fixed_measure
from regfrac.special import gamma, hardy_constant, sphere_area, tail_integral
from regfrac.spectral import rayleigh_quotient, smallest_eigenpair

BASELINES = Path(__file__).parent / "baselines"

SIGMAS = (0.6, 0.75, 0.9)


@pytest.fixture(scope="session")
def tables2d(table2):
    """2-d kernel tables for every acceptance sigma (0.75 is shared)."""
    return {0.6: build_near_table(2, 0.6),
            0.75: table2,
            0.9: build_near_table(2, 0.9)}


@pytest.fixture(scope="session")
def ball32_forms(tables2d):
    """One 32x32 centered ball per sigma, shared by criteria 3 and 4."""
    grid = GridSpec(cells=(32, 32), spacing=2.0 / 32, origin=(-1.0, -1.0))
    mask = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.8))
    return {s: assemble(mask, s, table=tables2d[s]) for s in SIGMAS}


def _solve(form, tol=1e-10, seed=0):
    res = smallest_eigenpair(form, tol=tol, seed=seed)
    assert res.converged, f"eigensolve stalled at residual {res.residual:.3e}"
    return res


# --------------------------------------------------------------------------


def test_criterion_01_eigenvalue_scaling_law(tables2d):
    """lambda(t*Omega) = t^(-2*sigma) * lambda(Omega) to 1e-10 relative
    for t in {0.5, 2, 3}, ball and square masks, sigma in {0.6, 0.75,
    0.9}."""
    grid = GridSpec(cells=(20, 20), spacing=0.1, origin=(-1.0, -1.0))
    shapes = {
        "ball": make_mask(grid, Ball(center=(0.0, 0.0), radius=0.8)),
        "square": make_mask(grid, Box(lo=(-0.7, -0.7), hi=(0.7, 0.7))),
    }
    worst = 0.0
    for name, mask in shapes.items():
        for sigma in SIGMAS:
            base = _solve(assemble(mask, sigma, table=tables2d[sigma]))
            for t in (0.5, 2.0, 3.0):
                scaled_mask = DomainMask(grid.scaled(t), mask.active)
                lam = _solve(assemble(scaled_mask, sigma,
                                      table=tables2d[sigma])).eigenvalue
                expected = t ** (-2.0 * sigma) * base.eigenvalue
                rel = abs(lam - expected) / expected
                assert rel <= 1e-10, (name, sigma, t, rel)
                worst = max(worst, rel)
    print(f"criterion 1 PASS: scaling law within {worst:.2e} relative "
          "(bar 1e-10) over 2 shapes x 3 sigmas x 3 factors")


def test_criterion_02_decomposition_identity(ball_form, box_form, table2):
    """full energy - regional energy - 2 sum(m u^2 kappa) = 0 to 1e-12
    relative on 50 random vectors per mask, 3 masks."""
    lgrid = GridSpec(cells=(14, 14), spacing=1.0 / 14, origin=(0.0, 0.0))
    ell = np.ones((14, 14), dtype=bool)
    ell[7:, 7:] = False
    forms = [ball_form, box_form,
             assemble(DomainMask(lgrid, ell), 0.75, table=table2)]
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for form in forms:
        kappa_term = 2.0 * form.mass * form.complement_potential
        for _ in range(50):
            u = rng.standard_normal(form.size)
            full = form.full_energy(u)
            regional = form.energy(u)
            correction = float(np.sum(kappa_term * u * u))
            rel = abs(full - regional - correction) / full
            assert rel <= 1e-12
            worst = max(worst, rel)
    print(f"criterion 2 PASS: decomposition defect <= {worst:.2e} "
          "relative (bar 1e-12) on 150 random vectors / 3 masks")


def test_criterion_03_hardy_suite(ball32_forms, tables2d):
    """Hardy ratio >= 0.9 for the full corpus at 32^2 for each sigma;
    the ratio is invariant under u-scaling (1e-12) and grid-scaling
    (1e-10)."""
    dirs = direction_set(2, 96)
    smallest = np.inf
    for sigma, form in ball32_forms.items():
        for label, u in standard_test_functions(form, seed=0):
            ratio = hardy_check(form, u, dirs, label=label).ratio
            assert ratio >= 0.9, (sigma, label, ratio)
            smallest = min(smallest, ratio)
    # invariances, spot-checked at sigma = 0.75 over the whole corpus
    form = ball32_forms[0.75]
    t = 2.0
    scaled_form = assemble(
        DomainMask(form.mask.grid.scaled(t), form.mask.active), 0.75,
        table=tables2d[0.75])
    u_drift = 0.0
    grid_drift = 0.0
    base_corpus = standard_test_functions(form, seed=0)
    scaled_corpus = standard_test_functions(scaled_form, seed=0)
    for (label, u), (label2, u2) in zip(base_corpus, scaled_corpus):
        assert label == label2
        ratio = hardy_check(form, u, dirs, label=label).ratio
        ratio_scaled_u = hardy_check(form, 3.7 * u, dirs, label=label).ratio
        ratio_scaled_grid = hardy_check(scaled_form, u2, dirs,
                                        label=label).ratio
        u_drift = max(u_drift, abs(ratio_scaled_u - ratio) / ratio)
        grid_drift = max(grid_drift, abs(ratio_scaled_grid - ratio) / ratio)
    assert u_drift <= 1e-12
    assert grid_drift <= 1e-10
    print(f"criterion 3 PASS: corpus ratio >= {smallest:.3f} (bar 0.9) "
          f"over 3 sigmas; u-scaling drift {u_drift:.2e} (bar 1e-12), "
          f"grid-scaling drift {grid_drift:.2e} (bar 1e-10)")


def test_criterion_04_equivalence_bound(ball32_forms):
    """full <= 1.1 * C* * regional on 50 random nonnegative vectors for
    each sigma, with C* the composed Hardy/pseudo-distance constant."""
    worst = 0.0
    for sigma, form in ball32_forms.items():
        rng = np.random.default_rng(int(sigma * 1000))
        for _ in range(50):
            u = rng.uniform(0.0, 1.0, form.size)
            rep = equivalence_check(form, u)
            assert rep.satisfied, (sigma, rep.ratio, rep.composed_bound)
            worst = max(worst, rep.ratio / rep.composed_bound)
    print(f"criterion 4 PASS: full/regional within {worst:.3f} of the "
          "C* bound (slack 1.1) on 150 nonnegative vectors")


def test_criterion_05_almgren_lieb(table2):
    """full(u) >= full(u*) - 1e-8*full(u) on 100 seeded bump mixtures;
    equality to 1e-12 on radial input."""
    cells = 48
    grid = GridSpec(cells=(cells, cells), spacing=3.0 / cells,
                    origin=(-1.5, -1.5))
    form = assemble(make_mask(grid, Ball(center=(0.0, 0.0), radius=0.7)),
                    0.75, table=table2)
    coords = form.mask.interior_coords
    h = grid.spacing

    def mixture(rng):
        # 2-4 bumps with disjoint supports (separation >= width sum)
        want = int(rng.integers(2, 5))
        centers, widths = [], []
        u = np.zeros(len(coords))
        tries = 0
        while len(centers) < want and tries < 200:
            tries += 1
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            c = 0.6 * 0.7 * np.sqrt(rng.uniform()) * d
            w = rng.uniform(2.0 * h, 0.25 * 0.7)
            if all(np.linalg.norm(c - c2) >= w + w2
                   for c2, w2 in zip(centers, widths)):
                centers.append(c)
                widths.append(w)
                u += rng.uniform(0.2, 1.0) * np.exp(
                    -np.sum((coords - c) ** 2, axis=1) / (2.0 * w * w))
        return u

    rng = np.random.default_rng(42)
    min_margin = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i in range(100):
            rep = almgren_lieb_check(form, mixture(rng), f"mixture {i}")
            min_margin = min(min_margin,
                             (rep.full_u - rep.full_star) / rep.full_u)
    assert min_margin >= -1e-8
    radial = np.exp(-np.sum(coords ** 2, axis=1) / (2.0 * 0.2 ** 2))
    rep = almgren_lieb_check(form, radial, "radial")
    radial_defect = abs(rep.full_u - rep.full_star) / rep.full_u
    assert radial_defect <= 1e-12
    print(f"criterion 5 PASS: min mixture margin {min_margin:.3e} "
          f"(bar -1e-8); radial defect {radial_defect:.2e} (bar 1e-12)")


def test_criterion_06_eigen_solver(ball_form):
    """Residual <= 1e-8, bitwise reproducibility across runs, and
    Rayleigh quotients of random vectors >= lambda_1 - 1e-10."""
    first = smallest_eigenpair(ball_form, tol=1e-8, seed=3)
    second = smallest_eigenpair(ball_form, tol=1e-8, seed=3)
    assert first.converged and first.residual <= 1e-8
    assert first.eigenvalue == second.eigenvalue
    assert np.array_equal(first.vector, second.vector)
    assert first.iterations == second.iterations
    rng = np.random.default_rng(99)
    floor = np.inf
    for _ in range(50):
        q = rayleigh_quotient(ball_form, rng.standard_normal(ball_form.size))
        assert q >= first.eigenvalue - 1e-10
        floor = min(floor, q - first.eigenvalue)
    print(f"criterion 6 PASS: residual {first.residual:.2e} (bar 1e-8), "
          f"bitwise-identical rerun, Rayleigh floor +{floor:.2e}")


def test_criterion_07_optimizer_contracts(table2):
    """Volume exactness, non-increasing best-seen energy, the 33^2 ball
    as a fixed point, and component reduction that never increases the
    penalized energy and keeps single-component inputs unchanged."""
    grid = GridSpec(cells=(33, 33), spacing=2.0 / 33, origin=(-1.0, -1.0))
    ball = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = optimize_fixed_measure(ball, 0.75, max_iter=2, seed=0)
    assert state.eigen.converged
    assert state.volume == ball.volume                      # exact volume
    assert state.mask.same_cells(ball)                      # fixed point
    energies = [row[2] for row in state.history]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    # two disjoint balls: reduction keeps one and must not pay energy
    tgrid = GridSpec(cells=(40, 22), spacing=0.1, origin=(-2.0, -1.1))
    active = (make_mask(tgrid, Ball(center=(-1.0, 0.0), radius=0.55)).active
              | make_mask(tgrid, Ball(center=(1.0, 0.0), radius=0.55)).active)
    twins = DomainMask(tgrid, active)
    joint = smallest_eigenpair(assemble(twins, 0.75, table=table2),
                               tol=1e-8, seed=0)
    assert joint.converged
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reduced, report = component_reduction(
            twins, np.abs(joint.vector), 0.75)
    before = joint.eigenvalue + twins.volume
    after = reduced.eigen.eigenvalue + reduced.volume
    assert after <= before + 1e-8 * before
    assert len(report.rows) == 2

    single, _ = component_reduction(ball, np.abs(state.eigen.vector), 0.75)
    assert single.mask.same_cells(ball)
    print(f"criterion 7 PASS: exact volume, monotone history, ball fixed "
          f"point; reduction {before:.4f} -> {after:.4f} (non-increasing), "
          "single component unchanged")


def test_criterion_08_near_field_oracle(table1):
    """1-d assembled energy within 2% of a brute-force double
    quadrature; table coefficients exactly symmetric under the offset
    group (checked in 1-d and 2-d)."""
    grid = GridSpec(cells=(4,), spacing=1.0, origin=(0.0,))
    mask = make_mask(grid, Box(lo=(0.0,), hi=(4.0,)))
    form = assemble(mask, 0.25, table=table1)
    nodes = np.linspace(0.0, 4.0, 5)
    u_nodes = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    energy = form.energy(u_nodes[1:-1])

    # brute force: midpoint double Riemann sum of the piecewise-linear
    # interpolant over both orderings (the singular factor is
    # integrable: the interpolant difference vanishes linearly while
    # the kernel blows up at exponent 1.5)
    fine = 2400
    x = 4.0 * (np.arange(fine) + 0.5) / fine
    ux = np.interp(x, nodes, u_nodes)
    diff = ux[:, None] - ux[None, :]
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, 1.0)
    kernel = dist ** -1.5
    np.fill_diagonal(kernel, 0.0)
    brute = float(np.sum(diff * diff * kernel)) * (4.0 / fine) ** 2
    rel = abs(energy - brute) / brute
    assert rel <= 0.02, rel

    def offset_groups(table):
        groups: dict = {}
        for off, value in table.hat_energies.items():
            canon = tuple(sorted((abs(c) for c in off), reverse=True))
            groups.setdefault(canon, set()).add(value)
        return groups

    for table in (table1, build_near_table(2, 0.75)):
        for canon, values in offset_groups(table).items():
            assert len(values) == 1, (canon, values)   # bitwise equal
        canon_weights: dict = {}
        for off, (_, _, w) in table.pair_weights.items():
            canon = tuple(sorted((abs(c) for c in off), reverse=True))
            key = tuple(np.sort(w))
            assert canon_weights.setdefault(canon, key) == key
    print(f"criterion 8 PASS: 1-d energy vs brute quadrature {rel:.4%} "
          "(bar 2%); offset-group symmetry bitwise in 1-d and 2-d")


def test_criterion_09_special_functions():
    """Gamma recurrence at 1e-12, tail integral closed form and
    R^(-2*sigma) scaling, Hardy constants against an independent
    million-panel quadrature at 1e-8."""
    xs = np.linspace(0.05, 20.0, 400)
    rec = max(abs(gamma(x + 1.0) / (x * gamma(x)) - 1.0) for x in xs)
    assert rec <= 1e-12

    scale_drift = 0.0
    for n in (1, 2, 3):
        for sigma in (0.25, 0.6, 0.75, 0.9):
            for radius in (0.5, 1.0, 2.0):
                value = tail_integral(n, sigma, radius)
                closed = sphere_area(n) * radius ** (-2.0 * sigma) \
                    / (2.0 * sigma)
                assert value == closed                      # closed form
                ratio = tail_integral(n, sigma, 2.0 * radius) / value
                scale_drift = max(scale_drift,
                                  abs(ratio / 2.0 ** (-2.0 * sigma) - 1.0))
    assert scale_drift <= 1e-14        # exact up to one ulp of pow

    # million-panel oracle for integral_0^1 (1 - r^beta)^2 (1-r)^(-1-2s) dr:
    # both endpoints carry fractional powers, so split at r = 1/2 and
    # grade each half (r = a^cA/2 and 1-r = b^cB/2) until the
    # transformed integrands are C^1, then plain midpoint on 2 x 500k
    # panels; prefactor recomputed via math.gamma
    worst = 0.0
    panels = 500_000
    t = (np.arange(panels) + 0.5) / panels
    for n in (1, 2, 3):
        for sigma in SIGMAS:
            beta = (2.0 * sigma - 1.0) / 2.0
            # r in [0, 1/2]: r^beta = (1/2)^beta * a^2 exactly
            c_a = 2.0 / beta
            r = 0.5 * t ** c_a
            bracket = 1.0 - 0.5 ** beta * t ** 2
            low = bracket ** 2 * (1.0 - r) ** (-1.0 - 2.0 * sigma) \
                * 0.5 * c_a * t ** (c_a - 1.0)
            # s = 1-r in (0, 1/2]: s^(1-2*sigma) flattens to t^1
            c_b = 2.0 / (2.0 - 2.0 * sigma)
            s = 0.5 * t ** c_b
            bracket = -np.expm1(beta * np.log1p(-s))
            high = bracket ** 2 * s ** (-1.0 - 2.0 * sigma) \
                * 0.5 * c_b * t ** (c_b - 1.0)
            integral = float(np.sum(low) + np.sum(high)) / panels
            prefactor = (2.0 * math.pi ** ((n - 1) / 2.0)
                         * math.gamma((1.0 + 2.0 * sigma) / 2.0)
                         / math.gamma((n + 2.0 * sigma) / 2.0))
            oracle = prefactor * integral
            value = hardy_constant(n, 2.0, sigma).value
            rel = abs(value - oracle) / oracle
            assert rel <= 1e-8, (n, sigma, rel)
            worst = max(worst, rel)
    print(f"criterion 9 PASS: recurrence {rec:.2e} (bar 1e-12), tail "
          f"closed-form bitwise, scaling drift {scale_drift:.1e}, "
          f"constants vs oracle {worst:.2e} (bar 1e-8)")


def test_criterion_10_end_to_end_regression(tmp_path):
    """`optimize --mode penalized` at 48^2, sigma 0.75, seed 1 finishes
    in under 10 minutes and reproduces the committed baseline
    (lambda, volume, energy) to 1e-6."""
    out = tmp_path / "run"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "regfrac.cli", "optimize", "--mode",
         "penalized", "--n", "2", "--grid", "48", "--sigma", "0.75",
         "--seed", "1", "--out-dir", str(out)],
        capture_output=True, text=True)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 600.0, f"run took {elapsed:.0f}s"
    state = json.loads((out / "state.json").read_text())
    observed = {k: state[k] for k in ("lambda", "volume", "energy")}
    baseline_path = BASELINES / "penalized_48.json"
    baseline = json.loads(baseline_path.read_text())
    drift = max(abs(observed[k] - baseline[k]) / abs(baseline[k])
                for k in observed)
    assert drift <= 1e-6, (observed, baseline)
    print(f"criterion 10 PASS: 48^2 penalized run in {elapsed:.0f}s "
          f"(bar 600s), baseline drift {drift:.2e} (bar 1e-6)")
