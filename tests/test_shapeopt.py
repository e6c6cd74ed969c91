"""Shape descent, convex projection, component reduction, growth tables.

The eigenvalue landscape over pixel masks at these resolutions is flat
around good inits (inactive cells score zero, so threshold updates only
reshuffle tied cells), which makes fixed points and best-seen contracts
the meaningful invariants — not forced descent.
"""
from __future__ import annotations

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import ConvexHull

import regfrac.shapeopt
from regfrac.gagliardo import assemble
from regfrac.geometry import Ball, Box, DomainMask, GridSpec, make_mask
from regfrac.shapeopt import (ShapeState, cell_count, component_reduction,
                              convexify, growth_diagnostics, optimize,
                              optimize_fixed_measure, optimize_penalized,
                              resize_mask)
from regfrac.spectral import EigenResult, rayleigh_quotient, smallest_eigenpair

SIGMA = 0.75


def _quiet_optimize(*args, **kwargs):
    # junk swap candidates can have sign-indefinite near-ground modes;
    # the solver's negativity warning is expected there
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*negativity.*")
        return optimize_fixed_measure(*args, **kwargs)


@pytest.fixture(scope="module")
def ball33_run(table2):
    grid = GridSpec(cells=(33, 33), spacing=2.0 / 33, origin=(-1.0, -1.0))
    init = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.803))
    state = _quiet_optimize(init, SIGMA, max_iter=2, seed=0)
    return init, state


@pytest.fixture(scope="module")
def dueling48(table2):
    """Equal-measure ball and square descents on the same 48^2 grid."""
    grid = GridSpec(cells=(48, 48), spacing=2.0 / 48, origin=(-1.0, -1.0))
    ball = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.5))
    count = int(ball.active.sum())
    side = 0.5 * math.sqrt(math.pi)
    square = resize_mask(make_mask(
        grid, Box(lo=(-side / 2, -side / 2), hi=(side / 2, side / 2))), count)
    st_ball = _quiet_optimize(ball, SIGMA, max_iter=3, seed=0)
    st_square = _quiet_optimize(square, SIGMA, max_iter=3, seed=0)
    return {"ball": (ball, st_ball), "square": (square, st_square)}


@pytest.fixture(scope="module")
def small_ball(table2):
    grid = GridSpec(cells=(20, 20), spacing=0.1, origin=(-1.0, -1.0))
    return grid, make_mask(grid, Ball(center=(0.0, 0.0), radius=0.35))


@pytest.fixture(scope="module")
def twin_balls(table2):
    """Two disjoint equal balls, u glued from their ground states."""
    grid = GridSpec(cells=(48, 48), spacing=1.0 / 16, origin=(-1.5, -1.5))
    mask_a = make_mask(grid, Ball(center=(-0.7, 0.0), radius=0.4))
    mask_b = make_mask(grid, Ball(center=(0.7, 0.0), radius=0.4))
    both = DomainMask(grid, mask_a.active | mask_b.active)
    lookups = {}
    eigs = {}
    for key, part in (("a", mask_a), ("b", mask_b)):
        eig = smallest_eigenpair(assemble(part, SIGMA, table=table2),
                                 tol=1e-9)
        eigs[key] = eig
        vec = np.clip(eig.vector, 0.0, None)
        lookups[key] = {tuple(ix): v
                        for ix, v in zip(part.interior_idx, vec)}
    merged = dict(lookups["a"])
    merged.update(lookups["b"])
    u = np.array([merged.get(tuple(ix), 0.0) for ix in both.interior_idx])
    state, report = component_reduction(both, u, SIGMA)
    return {"grid": grid, "a": mask_a, "b": mask_b, "both": both,
            "u": u, "eigs": eigs, "lookup_a": lookups["a"],
            "state": state, "report": report}


@pytest.fixture(scope="module")
def growth_state(table2):
    grid = GridSpec(cells=(48, 48), spacing=1.0 / 24, origin=(-1.0, -1.0))
    mask = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.85))
    eig = smallest_eigenpair(assemble(mask, SIGMA, table=table2), tol=1e-8)
    assert eig.converged
    return _state_from(mask, eig)


def _state_from(mask, eig):
    return ShapeState(mask=mask, eigen=eig, sigma=SIGMA, volume=mask.volume,
                      energy_penalized=eig.eigenvalue + mask.volume,
                      iteration=0,
                      history=((eig.eigenvalue, mask.volume,
                                eig.eigenvalue + mask.volume),))


def _hull_members(centers: np.ndarray, pts: np.ndarray,
                  tol: float = 1e-9) -> np.ndarray:
    """Independent membership oracle from the hull's facet equations."""
    hull = ConvexHull(pts)
    normals = hull.equations[:, :-1]
    offsets = hull.equations[:, -1]
    return np.all(centers @ normals.T + offsets[None, :] <= tol, axis=1)


class TestFixedMeasure:
    def test_ball_fixed_point(self, ball33_run):
        """A pixel ball whose radius falls in a lattice gap is stationary:
        every candidate either repeats the mask or raises the eigenvalue."""
        init, state = ball33_run
        assert state.eigen.converged
        assert state.mask.same_cells(init)
        assert state.iteration == 0
        assert len(state.history) == 1

    def test_energy_bookkeeping_exact(self, ball33_run):
        _, state = ball33_run
        lam, vol, energy = state.history[0]
        assert lam == state.eigen.eigenvalue
        assert vol == state.volume
        assert energy == lam + vol
        assert state.energy_penalized == lam + vol

    def test_volume_held_exactly(self, dueling48):
        for init, state in dueling48.values():
            assert state.volume == init.volume
            assert int(state.mask.active.sum()) == int(init.active.sum())

    def test_best_of_both_inits(self, dueling48):
        # measured at this resolution: square init 65.5286, pixel ball
        # init 66.9554 — the staircase boundary of a lattice disk costs
        # about 2.1%, so the square is the better of the two starts
        ball_init, st_ball = dueling48["ball"]
        sq_init, st_sq = dueling48["square"]
        assert st_ball.eigen.converged and st_sq.eigen.converged
        lam0_ball = st_ball.history[0][0]
        lam0_sq = st_sq.history[0][0]
        best_final = min(st_ball.eigen.eigenvalue, st_sq.eigen.eigenvalue)
        assert best_final <= min(lam0_ball, lam0_sq) + 1e-12
        assert st_ball.eigen.eigenvalue <= lam0_ball + 1e-12
        assert st_sq.eigen.eigenvalue <= lam0_sq + 1e-12

    def test_history_non_increasing(self, ball33_run, dueling48):
        runs = [ball33_run[1]] + [st for _, st in dueling48.values()]
        for state in runs:
            lams = [row[0] for row in state.history]
            assert all(b < a - 1e-12 for a, b in zip(lams, lams[1:]))
            assert state.history[-1][0] == state.eigen.eigenvalue

    def test_deterministic_rerun(self, small_ball, table2):
        _, mask = small_ball
        first = _quiet_optimize(mask, SIGMA, max_iter=1, seed=3)
        second = _quiet_optimize(mask, SIGMA, max_iter=1, seed=3)
        assert first.mask.same_cells(second.mask)
        assert first.eigen.eigenvalue == second.eigen.eigenvalue
        assert first.history == second.history

    def test_unconverged_init_aborts(self, small_ball, table2):
        _, mask = small_ball
        state = _quiet_optimize(mask, SIGMA, max_iter=5,
                                seed=0, eigen_tol=1e-20)
        assert not state.eigen.converged
        assert state.history == ()
        assert state.iteration == 0
        assert state.mask.same_cells(mask)

    def test_candidates_without_interior_nodes_skipped(self, table2,
                                                       monkeypatch):
        # a 2x2 block has one interior node; a single-cell swap breaks
        # the block and leaves none, so no candidate is solved
        grid = GridSpec(cells=(6, 6), spacing=1.0 / 6, origin=(0.0, 0.0))
        active = np.zeros((6, 6), dtype=bool)
        active[2:4, 2:4] = True
        init = DomainMask(grid, active)
        assert len(init.interior_idx) == 1
        solved = []
        real = regfrac.shapeopt.smallest_eigenpair

        def counting(form, **kwargs):
            solved.append(form.size)
            return real(form, **kwargs)

        monkeypatch.setattr(regfrac.shapeopt, "smallest_eigenpair", counting)
        state = _quiet_optimize(init, SIGMA, max_iter=3, seed=0)
        assert solved == [1]
        assert state.eigen.converged
        assert state.mask.same_cells(init)
        assert state.iteration == 0

    def test_unconverged_candidate_returns_best(self, small_ball, table2,
                                                monkeypatch):
        # a candidate whose solve does not converge ends the run with the
        # best converged state so far: here the start mask
        _, mask = small_ball
        real = regfrac.shapeopt.smallest_eigenpair
        calls = []

        def unconverged_after_init(form, **kwargs):
            calls.append(form.size)
            eig = real(form, **kwargs)
            if len(calls) > 1:
                eig = dataclasses.replace(eig, converged=False)
            return eig

        monkeypatch.setattr(regfrac.shapeopt, "smallest_eigenpair",
                            unconverged_after_init)
        state = _quiet_optimize(mask, SIGMA, max_iter=3, seed=0)
        assert len(calls) == 2
        assert state.eigen.converged
        assert state.mask.same_cells(mask)
        assert state.iteration == 0
        assert len(state.history) == 1

    def test_solver_error_on_candidate_raises(self, small_ball, table2,
                                              monkeypatch):
        _, mask = small_ball
        real = regfrac.shapeopt.smallest_eigenpair
        calls = []

        def failing_after_init(form, **kwargs):
            calls.append(form.size)
            if len(calls) > 1:
                raise ValueError("matrix is not finite and positive definite")
            return real(form, **kwargs)

        monkeypatch.setattr(regfrac.shapeopt, "smallest_eigenpair",
                            failing_after_init)
        with pytest.raises(ValueError, match="positive definite"):
            _quiet_optimize(mask, SIGMA, max_iter=1, seed=0)
        assert len(calls) == 2

    def test_target_volume_validation(self, small_ball):
        # one rule turns a volume into cells, for fixed and convex mode
        # alike: a whole number of cells between 1 and the whole grid
        grid, mask = small_ball
        cell = grid.spacing ** 2
        assert cell_count(grid, mask.volume) == mask.cell_count
        assert cell_count(grid, 400 * cell) == 400
        for bad in (0.305 * cell, 0.0, 401 * cell, 6.6 * cell):
            with pytest.raises(ValueError, match="volume must be a whole"):
                cell_count(grid, bad)
            for mode in ("fixed", "convex"):
                with pytest.raises(ValueError,
                                   match="volume must be a whole"):
                    optimize(mode, mask, SIGMA, volume=bad)

    def test_state_is_frozen(self, ball33_run):
        _, state = ball33_run
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.volume = 0.0


class TestResize:
    def test_exact_counts_and_nesting(self, small_ball):
        _, mask = small_ball
        have = int(mask.active.sum())
        smaller = resize_mask(mask, have - 4)
        larger = resize_mask(mask, have + 4)
        assert int(smaller.active.sum()) == have - 4
        assert int(larger.active.sum()) == have + 4
        assert bool(np.all(~smaller.active | mask.active))
        assert bool(np.all(~mask.active | larger.active))

    def test_identity_and_determinism(self, small_ball):
        _, mask = small_ball
        have = int(mask.active.sum())
        assert resize_mask(mask, have) is mask
        a = resize_mask(mask, have - 7)
        b = resize_mask(mask, have - 7)
        assert a.same_cells(b)

    def test_counts_outside_the_grid_rejected(self, small_ball):
        _, mask = small_ball
        assert resize_mask(mask, 400).active.all()
        for bad in (0, 401):
            with pytest.raises(ValueError, match="cell count must be"):
                resize_mask(mask, bad)


class TestPenalized:
    def test_small_penalty_never_worse(self, small_ball, table2):
        _, mask = small_ball
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*negativity.*")
            state = optimize_penalized(mask, SIGMA, 1.0, max_iter=2,
                                       seed=0)
        init_eig = smallest_eigenpair(assemble(mask, SIGMA, table=table2),
                                      tol=1e-8)
        obj = state.eigen.eigenvalue + state.volume
        assert obj <= init_eig.eigenvalue + mask.volume + 1e-12
        assert state.energy_penalized == state.eigen.eigenvalue + state.volume

    def test_large_penalty_takes_ladder_floor(self, small_ball, table2):
        """With the volume term dominating, the smallest rung wins."""
        grid, mask = small_ball
        cell_vol = grid.spacing ** 2
        base = int(round(mask.volume / cell_vol))
        floor = max(1, int(round(0.8 * base)))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*negativity.*")
            state = optimize_penalized(mask, SIGMA, 1e4, max_iter=1,
                                       seed=0)
        assert state.volume == floor * cell_vol

    def test_energy_uses_the_penalty(self, small_ball, table2):
        """At c = 2 the reported energy and every history energy are
        eigenvalue + 2 * volume, the objective the ladder minimized."""
        _, mask = small_ball
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*negativity.*")
            state = optimize_penalized(mask, SIGMA, 2.0, max_iter=1,
                                       seed=0)
        assert state.energy_penalized == (state.eigen.eigenvalue
                                          + 2.0 * state.volume)
        assert state.history
        for lam, vol, energy in state.history:
            assert energy == lam + 2.0 * vol
        assert state.history[-1][:2] == (state.eigen.eigenvalue,
                                         state.volume)

    def test_penalty_validation(self, small_ball, table2):
        _, mask = small_ball
        for bad in (0.0, -2.0):
            with pytest.raises(ValueError,
                               match="penalty must be positive"):
                optimize_penalized(mask, SIGMA, bad)

    def test_rescaling_output_consistent(self, small_ball, table2):
        """Dilating the returned support to a reference volume and
        re-solving reproduces the 2-sigma-homogeneous eigenvalue within
        solver tolerance."""
        grid, mask = small_ball
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*negativity.*")
            state = optimize_penalized(mask, SIGMA, 1.0, max_iter=1,
                                       seed=0)
        reference = mask.volume
        t = math.sqrt(reference / state.volume)
        grid_t = grid.scaled(t)
        mask_t = DomainMask(grid_t, state.mask.active)
        assert mask_t.volume == pytest.approx(reference, rel=1e-12)
        eig_t = smallest_eigenpair(assemble(mask_t, SIGMA, table=table2),
                                   tol=1e-10)
        expect = state.eigen.eigenvalue * t ** (-2.0 * SIGMA)
        assert eig_t.eigenvalue == pytest.approx(expect, rel=1e-7)


@pytest.fixture(scope="module")
def lshape():
    grid = GridSpec(cells=(8, 8), spacing=1.0 / 8, origin=(0.0, 0.0))
    active = np.ones((8, 8), dtype=bool)
    active[4:, 4:] = False
    return DomainMask(grid, active)


class TestConvexify:
    def test_lshape_hull_oracle(self, lshape):
        """Hand count: cell centers sit at half-integers, so the notch
        edge runs from (7.5, 3.5) to (3.5, 7.5) in index units and hull
        membership is exactly i + j <= 10."""
        grid = lshape.grid
        centers = grid.cell_centers().reshape(-1, 2)
        members = _hull_members(centers, centers[lshape.active.ravel()])
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        assert np.array_equal(members.reshape(8, 8), (ii + jj) <= 10)
        assert int(members.sum()) == 54

    def test_lshape_projection(self, lshape):
        out = convexify(lshape)
        assert int(out.active.sum()) == int(lshape.active.sum()) == 48
        centers = lshape.grid.cell_centers().reshape(-1, 2)
        members = _hull_members(centers, centers[lshape.active.ravel()])
        assert bool(np.all(~out.active.ravel() | members))
        assert convexify(out).same_cells(out)

    def test_output_discretely_convex(self, lshape):
        out = convexify(lshape)
        centers = lshape.grid.cell_centers().reshape(-1, 2)
        inside_own = _hull_members(centers, centers[out.active.ravel()],
                                   tol=-1e-9)
        assert not bool(np.any(inside_own & ~out.active.ravel()))

    def test_convex_masks_unchanged(self):
        grid = GridSpec(cells=(8, 8), spacing=1.0 / 8, origin=(0.0, 0.0))
        box = make_mask(grid, Box(lo=(0.125, 0.125), hi=(0.75, 0.875)))
        assert convexify(box).same_cells(box)
        grid16 = GridSpec(cells=(16, 16), spacing=0.125, origin=(-1.0, -1.0))
        ball = make_mask(grid16, Ball(center=(0.0, 0.0), radius=0.7))
        assert convexify(ball).same_cells(ball)

    def test_two_blobs_become_connected(self):
        grid = GridSpec(cells=(16, 16), spacing=0.125, origin=(0.0, 0.0))
        active = np.zeros((16, 16), dtype=bool)
        active[2:5, 2:5] = True
        active[10:14, 9:13] = True
        out = convexify(DomainMask(grid, active))
        assert int(out.active.sum()) == int(active.sum())
        _, ncomp = ndimage.label(out.active,
                                 structure=ndimage.generate_binary_structure(
                                     2, 1))
        assert ncomp == 1

    def test_collinear_support_bounding_box(self):
        # one dimension: the hull degenerates to the span; a gapped mask
        # refills to the contiguous block nearest its centroid
        grid = GridSpec(cells=(9,), spacing=1.0, origin=(0.0,))
        active = np.zeros(9, dtype=bool)
        active[[0, 1, 2, 7, 8]] = True
        out = convexify(DomainMask(grid, active))
        expect = np.zeros(9, dtype=bool)
        expect[2:7] = True
        assert np.array_equal(out.active, expect)


class TestComponentReduction:
    def test_twin_partition(self, twin_balls):
        data = twin_balls
        report = data["report"]
        assert len(report.rows) == 2
        assert report.selected in (0, 1)
        assert sum(r.support for r in report.rows) == report.support_total
        counts = sorted(r.cell_count for r in report.rows)
        assert counts == sorted((int(data["a"].active.sum()),
                                 int(data["b"].active.sum())))
        for row in report.rows:
            expect = (row.support / report.support_total) ** 0.5
            assert row.ratio == pytest.approx(expect, rel=1e-12)

    def test_mediant_inequality(self, twin_balls, table2):
        """The best rescaled component energy never exceeds the Rayleigh
        quotient of the glued function on the union."""
        data = twin_balls
        report = data["report"]
        form = assemble(data["both"], SIGMA, table=table2)
        quotient = rayleigh_quotient(form, data["u"])
        best = min(r.rescaled_energy for r in report.rows)
        assert best <= quotient + 1e-8
        assert report.rows[report.selected].rescaled_energy == best

    def test_output_connected_and_solved(self, twin_balls):
        state, report = twin_balls["state"], twin_balls["report"]
        _, ncomp = ndimage.label(state.mask.active,
                                 structure=ndimage.generate_binary_structure(
                                     2, 1))
        assert ncomp == 1
        assert state.eigen.converged
        lam, vol, energy = state.history[0]
        assert lam == state.eigen.eigenvalue
        assert vol == state.volume
        assert energy == lam + vol
        assert report.rows[report.selected].ratio < 1.0

    def test_single_component_unchanged(self, twin_balls, table2):
        data = twin_balls
        u = np.clip(data["eigs"]["a"].vector, 0.0, None)
        state, report = component_reduction(data["a"], u, SIGMA)
        assert state.mask.same_cells(data["a"])
        assert len(report.rows) == 1
        assert report.selected == 0
        assert report.rows[0].ratio == 1.0

    def test_dead_component_reported_not_rescaled(self, twin_balls, table2):
        """u supported on one ball only: the other component gets a zero
        row and the mask passes through unchanged (ratio exactly 1)."""
        data = twin_balls
        both = data["both"]
        u = np.array([data["lookup_a"].get(tuple(ix), 0.0)
                      for ix in both.interior_idx])
        state, report = component_reduction(both, u, SIGMA)
        assert len(report.rows) == 2
        assert report.selected == 0
        dead = report.rows[1]
        assert dead.support == 0.0
        assert dead.ratio == 0.0
        assert math.isnan(dead.eigenvalue)
        assert math.isnan(dead.rescaled_energy)
        assert report.rows[0].ratio == 1.0
        assert state.mask.same_cells(both)

    def test_validation(self, twin_balls, table2):
        data = twin_balls
        n = len(data["both"].interior_idx)
        with pytest.raises(ValueError, match="nonnegative"):
            component_reduction(data["both"], -np.ones(n), SIGMA)
        with pytest.raises(ValueError, match="nonzero"):
            component_reduction(data["both"], np.zeros(n), SIGMA)
        with pytest.raises(ValueError, match="vector length"):
            component_reduction(data["both"], np.ones(n - 1), SIGMA)


class TestGrowthDiagnostics:
    def test_tables_well_formed(self, growth_state):
        diag = growth_diagnostics(growth_state)
        grid = growth_state.mask.grid
        h = grid.spacing
        assert diag.components == 1
        assert len(diag.points) == 20
        for k, r in enumerate(diag.radii):
            assert r == h * 2.0 ** k
        assert diag.radii[-1] <= grid.diameter < diag.radii[-1] * 2.0
        for table in (diag.sup_table, diag.sup_over_r_sigma,
                      diag.sup_over_r_growth):
            assert len(table) == 20
            flat = [v for row in table for v in row]
            assert np.all(np.isfinite(flat))
        for row in diag.sup_table:
            assert all(b >= a for a, b in zip(row, row[1:]))

    def test_ratio_matches_manual(self, growth_state):
        diag = growth_diagnostics(growth_state)
        u = growth_state.eigen.vector
        h = growth_state.mask.grid.spacing
        manual = float(np.abs(u).max()) / float(
            np.sqrt(np.sum(u ** 2) * h ** 2))
        assert diag.ratio_sup_l2 == manual

    def test_normalizations_consistent(self, growth_state):
        diag = growth_diagnostics(growth_state)
        for sup_row, sig_row, gro_row in zip(diag.sup_table,
                                             diag.sup_over_r_sigma,
                                             diag.sup_over_r_growth):
            for s, r, a, b in zip(sup_row, diag.radii, sig_row, gro_row):
                assert a == s / r ** SIGMA
                assert b == s / r ** (2.0 * SIGMA - 1.0)

    def test_grid_scaling_bookkeeping(self, growth_state):
        """Transplant the eigenpair to a dilated grid: sup/L2 scales by
        exactly t^(-n/2) because only the lumped norm changes."""
        base = growth_diagnostics(growth_state)
        t = 2.0
        grid_t = growth_state.mask.grid.scaled(t)
        mask_t = DomainMask(grid_t, growth_state.mask.active)
        eig = growth_state.eigen
        eig_t = EigenResult(eigenvalue=eig.eigenvalue * t ** (-2 * SIGMA),
                            vector=eig.vector / t, residual=0.0,
                            iterations=1, converged=True)
        scaled = growth_diagnostics(_state_from(mask_t, eig_t))
        assert scaled.ratio_sup_l2 == base.ratio_sup_l2 / t

    def test_self_baseline(self, growth_state):
        """Pin the measured sup/L2 ratio against the committed baseline;
        runs must reproduce it to 1e-6."""
        diag = growth_diagnostics(growth_state)
        path = Path(__file__).parent / "baselines" / "growth_ratio.json"
        stored = json.loads(path.read_text())["ratio_sup_l2"]
        assert diag.ratio_sup_l2 == pytest.approx(stored, rel=1e-6)

    def test_requires_convergence(self, growth_state):
        eig = growth_state.eigen
        broken = EigenResult(eigenvalue=eig.eigenvalue, vector=eig.vector,
                             residual=1.0, iterations=1, converged=False)
        with pytest.raises(ValueError, match="converged eigen state"):
            growth_diagnostics(_state_from(growth_state.mask, broken))


def test_optimize_convex_mode_projects_and_resolves(table2):
    # on this 12^2 ball the descent leaves a non-convex mask, so convex
    # mode projects it once more and re-solves on the projection
    grid = GridSpec(cells=(12, 12), spacing=2.0 / 12, origin=(-1.0, -1.0))
    init = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.6))
    start = convexify(init)
    descent = _quiet_optimize(start, SIGMA, max_iter=4)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*negativity.*")
        state = optimize("convex", init, SIGMA, max_iter=4)
    assert not state.mask.same_cells(descent.mask)
    assert convexify(state.mask).same_cells(state.mask)
    lam = smallest_eigenpair(assemble(state.mask, SIGMA,
                                      table=table2)).eigenvalue
    assert state.eigen.eigenvalue == lam
    assert state.energy_penalized == lam + state.volume
    assert state.iteration == descent.iteration
    assert state.history == descent.history + (
        (lam, state.volume, lam + state.volume),)


def test_optimize_rejects_volume_in_penalized_and_unknown_modes():
    grid = GridSpec(cells=(16,), spacing=2.0 / 16, origin=(-1.0,))
    init = make_mask(grid, Ball(center=(0.0,), radius=0.8))
    with pytest.raises(ValueError, match="volume"):
        optimize("penalized", init, SIGMA, volume=0.5)
    with pytest.raises(ValueError, match="mode"):
        optimize("annealed", init, SIGMA)
