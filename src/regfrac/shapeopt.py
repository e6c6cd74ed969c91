"""Eigenvalue shape optimization under measure constraints.

Two descent drivers (fixed measure and volume-penalized), a convex-hull
projection of a cell mask, ``optimize``, which runs one of the fixed,
penalized and convex modes, the connected-component reduction that keeps
only the energetically best piece of a disconnected candidate, and
growth diagnostics for the optimizer's eigenfunctions.  Support updates
threshold the squared eigenfunction: the top cells by vertex-mean of
u^2 form the next candidate, accepted only on strict energy decrease,
so a descent's history strictly decreases; convex mode then appends the
re-solved convex projection of the best mask, which may be higher.
Every form is assembled on the near table cached per (dim, sigma).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from .gagliardo import assemble
from .geometry import DomainMask, GridSpec
from .spectral import EigenResult, smallest_eigenpair


@dataclass(frozen=True)
class ShapeState:
    """Snapshot of an optimization iterate.

    ``energy_penalized`` is eigenvalue + c * volume exactly, with c the
    penalty of ``optimize_penalized`` and 1 in the other drivers;
    ``history`` holds one (eigenvalue, volume, energy) triple per
    accepted iterate, strictly decreasing in energy except for the last
    row of convex mode, its re-solved projection, which may be higher.
    """

    mask: DomainMask
    eigen: EigenResult
    sigma: float
    volume: float
    energy_penalized: float
    iteration: int
    history: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class ComponentRow:
    """One connected component's bookkeeping in a reduction report."""

    index: int
    cell_count: int
    support: float
    ratio: float
    eigenvalue: float
    rescaled_energy: float


@dataclass(frozen=True)
class ReductionReport:
    rows: tuple[ComponentRow, ...]
    selected: int
    support_total: float


@dataclass(frozen=True)
class GrowthDiagnostics:
    """Sup/L2 ratio and boundary growth tables for an eigenfunction.

    Each row of ``sup_table`` tabulates sup u over balls of the dyadic
    radii around one boundary node; the two normalized tables divide by
    R^sigma and R^(2 sigma - 1).  Purely descriptive — the continuum
    constants behind these rates are not explicit.
    """

    ratio_sup_l2: float
    radii: tuple[float, ...]
    points: tuple[tuple[float, ...], ...]
    sup_table: tuple[tuple[float, ...], ...]
    sup_over_r_sigma: tuple[tuple[float, ...], ...]
    sup_over_r_growth: tuple[tuple[float, ...], ...]
    components: int


def _face_structure(dim: int) -> np.ndarray:
    return ndimage.generate_binary_structure(dim, 1)


def _make_state(mask: DomainMask, eigen: EigenResult, sigma: float,
                iteration: int, history: list) -> ShapeState:
    return ShapeState(mask=mask, eigen=eigen, sigma=sigma,
                      volume=mask.volume,
                      energy_penalized=eigen.eigenvalue + mask.volume,
                      iteration=iteration, history=tuple(history))


def _cell_scores(mask: DomainMask, u: np.ndarray) -> np.ndarray:
    """Score every grid cell by the mean of u^2 over its vertices."""
    grid = mask.grid
    full = np.zeros(grid.node_shape)
    full[tuple(mask.interior_idx.T)] = u
    sq = full * full
    score = np.zeros(grid.cells)
    for corner in itertools.product((slice(0, -1), slice(1, None)),
                                    repeat=grid.dim):
        score += sq[corner]
    return score / float(2 ** grid.dim)


def _top_cells(grid: GridSpec, score: np.ndarray, count: int) -> DomainMask:
    flat = score.ravel()
    order = np.argsort(-flat, kind="stable")  # ties fall back to raster order
    active = np.zeros(flat.size, dtype=bool)
    active[order[:count]] = True
    return DomainMask(grid, active.reshape(grid.cells))


def _swap_candidates(grid: GridSpec, score: np.ndarray, base: DomainMask,
                     limit: int):
    """Single-cell swaps: drop a low-score active cell, add a high-score
    inactive cell adjacent to the support."""
    act = base.active
    flat = score.ravel()
    aflat = act.ravel()
    fringe = ndimage.binary_dilation(act, structure=_face_structure(act.ndim))
    fringe = fringe.ravel() & ~aflat
    act_idx = np.flatnonzero(aflat)
    drop = act_idx[np.argsort(flat[act_idx], kind="stable")]
    add_idx = np.flatnonzero(fringe)
    add = add_idx[np.argsort(-flat[add_idx], kind="stable")]
    for j in range(min(limit, len(drop), len(add))):
        new = aflat.copy()
        new[drop[j]] = False
        new[add[j]] = True
        yield DomainMask(grid, new.reshape(grid.cells))


def optimize_fixed_measure(init: DomainMask, sigma: float, max_iter: int = 20,
                           seed: int = 0, *,
                           eigen_tol: float = 1e-8) -> ShapeState:
    """Descend the principal eigenvalue at the cell count of ``init``.

    Candidates keep the top cells by eigenfunction score; a candidate is
    accepted only if its eigenvalue beats the best seen by more than
    1e-12, otherwise up to five single-cell swap perturbations are
    tried before stopping.  Candidates without interior nodes are
    skipped; a solver error on any other candidate propagates.  A
    non-converged eigensolve aborts the run, returning the best state
    with its partial history.  Every candidate is assembled on the
    cached near table.
    """
    grid = init.grid

    def _solve(mask):
        form = assemble(mask, sigma)
        return smallest_eigenpair(form, tol=eigen_tol, seed=seed)

    eigen = _solve(init)
    history = []
    if eigen.converged:
        history.append((eigen.eigenvalue, init.volume,
                        eigen.eigenvalue + init.volume))
    best = _make_state(init, eigen, sigma, 0, history)
    if not eigen.converged:
        return best

    current_mask, current_eigen = init, eigen
    for iteration in range(1, max_iter + 1):
        score = _cell_scores(current_mask, current_eigen.vector)
        threshold = _top_cells(grid, score, init.cell_count)
        candidates = itertools.chain(
            [] if threshold.same_cells(current_mask) else [threshold],
            _swap_candidates(grid, score, current_mask, limit=5))
        accepted = False
        for cand in candidates:
            if len(cand.interior_idx) == 0:
                continue  # degenerate candidate: nothing to solve
            eig_c = _solve(cand)
            if not eig_c.converged:
                return best
            if eig_c.eigenvalue < best.eigen.eigenvalue - 1e-12:
                current_mask, current_eigen = cand, eig_c
                history.append((eig_c.eigenvalue, cand.volume,
                                eig_c.eigenvalue + cand.volume))
                best = _make_state(cand, eig_c, sigma, iteration, history)
                accepted = True
                break
        if not accepted:
            break
    return best


def cell_count(grid: GridSpec, volume: float) -> int:
    """The number of cells of ``grid`` that make up ``volume``: a whole
    number (to 1e-9 relative) between 1 and the grid's cell count."""
    count = volume / grid.spacing ** grid.dim
    total = math.prod(grid.cells)
    whole = round(count) if math.isfinite(count) else 0
    if not 1 <= whole <= total or abs(count - whole) > 1e-9 * max(1.0, count):
        raise ValueError(f"volume must be a whole number of cells, 1 to "
                         f"{total}, got {volume!r} ({count:.6g} cells)")
    return whole


def resize_mask(mask: DomainMask, count: int) -> DomainMask:
    """Deterministically grow or shrink a mask to a cell count, keeping
    cells nearest the support centroid (ties by raster order)."""
    grid = mask.grid
    if not 1 <= count <= math.prod(grid.cells):
        raise ValueError(f"cell count must be 1 to {math.prod(grid.cells)}, "
                         f"got {count}")
    act = mask.active.ravel()
    have = int(act.sum())
    if count == have:
        return mask
    centers = grid.cell_centers().reshape(-1, grid.dim)
    centroid = centers[act].mean(axis=0)
    d2 = np.sum((centers - centroid) ** 2, axis=1)
    if count < have:
        keep = np.flatnonzero(act)
        keep = keep[np.argsort(d2[keep], kind="stable")][:count]
        new = np.zeros_like(act)
        new[keep] = True
    else:
        grow = np.flatnonzero(~act)
        grow = grow[np.argsort(d2[grow], kind="stable")][:count - have]
        new = act.copy()
        new[grow] = True
    return DomainMask(grid, new.reshape(grid.cells))


def optimize_penalized(init: DomainMask, sigma: float, c_penalty: float,
                       max_iter: int = 10, seed: int = 0, *,
                       eigen_tol: float = 1e-8) -> ShapeState:
    """Minimize eigenvalue + c_penalty * volume over a volume ladder.

    Nine geometric volume steps spanning +-20% of the initial volume
    each run the fixed-measure descent; the state with the smallest
    penalized objective wins (ties keep the smaller volume).  Its energy
    and history energies are eigenvalue + c_penalty * volume.  All nine
    descents share the cached near table.
    """
    if not c_penalty > 0.0:
        raise ValueError(f"penalty must be positive, got {c_penalty}")
    counts = dict.fromkeys(max(1, int(round(f * init.cell_count)))
                           for f in np.geomspace(0.8, 1.2, 9))
    best = None
    best_objective = np.inf
    for k in counts:
        state = optimize_fixed_measure(
            resize_mask(init, k), sigma, max_iter=max_iter, seed=seed,
            eigen_tol=eigen_tol)
        objective = state.eigen.eigenvalue + c_penalty * state.volume
        if objective < best_objective:
            best, best_objective = state, objective
    history = tuple((lam, vol, lam + c_penalty * vol)
                    for lam, vol, _ in best.history)
    return replace(best, energy_penalized=best_objective, history=history)


def optimize(mode: str, init: DomainMask, sigma: float, *,
             volume: float | None = None, penalty: float = 1.0,
             max_iter: int = 20, seed: int = 0,
             eigen_tol: float = 1e-8) -> ShapeState:
    """Run one optimizer mode from ``init``.

    ``fixed`` and ``convex`` first resize ``init`` to the cell count of
    ``volume`` (``cell_count``; None keeps ``init``).  ``fixed`` then
    descends at that count; ``convex`` projects the mask onto a convex
    one, descends and projects the result again, re-solving and
    appending the projection as the last history row when it moved a
    cell, even if its energy is higher.  ``penalized`` runs
    ``optimize_penalized`` with ``penalty`` and takes no volume.
    """
    common = dict(max_iter=max_iter, seed=seed, eigen_tol=eigen_tol)
    if mode == "penalized":
        if volume is not None:
            raise ValueError("volume does not apply to penalized mode, "
                             f"got {volume}")
        return optimize_penalized(init, sigma, penalty, **common)
    if mode not in ("fixed", "convex"):
        raise ValueError(
            f"mode must be fixed, penalized, or convex, got '{mode}'")
    if volume is not None:
        init = resize_mask(init, cell_count(init.grid, volume))
    if mode == "fixed":
        return optimize_fixed_measure(init, sigma, **common)
    state = optimize_fixed_measure(convexify(init), sigma, **common)
    final = convexify(state.mask)
    if state.eigen.converged and not final.same_cells(state.mask):
        eig = smallest_eigenpair(assemble(final, sigma), tol=eigen_tol,
                                 seed=seed)
        history = list(state.history) + [
            (eig.eigenvalue, final.volume, eig.eigenvalue + final.volume)]
        state = _make_state(final, eig, sigma, state.iteration, history)
    return state


def _hull_rank(query: np.ndarray, pts: np.ndarray,
               centroid: np.ndarray) -> np.ndarray:
    """Smallest homothety factor t (about the centroid) whose shrunk
    hull contains each query point; <= 1 means inside the hull."""
    if query.shape[1] >= 2:
        try:
            hull = ConvexHull(pts)
            normals = hull.equations[:, :-1]
            offsets = hull.equations[:, -1]
            fc = normals @ centroid + offsets  # strictly negative inside
            num = query @ normals.T + offsets
            return np.max((num - fc) / (-fc), axis=1)
        except QhullError:
            pass  # degenerate (collinear) support: use its bounding box
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span_lo = centroid - lo
    span_hi = hi - centroid
    d = query - centroid
    rank = np.zeros(len(query))
    for axis in range(query.shape[1]):
        pos = d[:, axis] >= 0.0
        span = np.where(pos, span_hi[axis], span_lo[axis])
        mag = np.abs(d[:, axis])
        axis_rank = np.where(span > 0.0, mag / np.where(span > 0.0, span, 1.0),
                             np.where(mag < 1e-12, 0.0, np.inf))
        rank = np.maximum(rank, axis_rank)
    return rank


def convexify(mask: DomainMask) -> DomainMask:
    """Project a mask onto a convex one of the same cell count.

    Activates the cells whose centers lie in the convex hull of the
    active centers; overshoot is corrected by shrinking the hull
    homothetically about the support centroid and refilling with the
    cells closest to the shrunk hull until the count matches exactly.
    """
    grid = mask.grid
    centers = grid.cell_centers().reshape(-1, grid.dim)
    act = mask.active.ravel()
    count = int(act.sum())
    pts = centers[act]
    rank = _hull_rank(centers, pts, pts.mean(axis=0))
    inside = rank <= 1.0 + 1e-9
    if int(inside.sum()) <= count:
        new = inside
    else:
        order = np.argsort(rank, kind="stable")
        new = np.zeros(act.size, dtype=bool)
        new[order[:count]] = True
    return DomainMask(grid, new.reshape(grid.cells))


def component_reduction(mask: DomainMask, u: np.ndarray, sigma: float
                        ) -> tuple[ShapeState, ReductionReport]:
    """Keep the connected component with the best rescaled energy.

    Each face-connected component carries the fraction of the support
    of u it holds; dilating it to the full support measure rescales its
    eigenvalue by ratio^(2 sigma).  The winning component (ties to the
    lowest label) is dilated about its centroid by the inverse ratio
    with nearest-cell resampling and re-solved.  Every eigensolve uses
    ``smallest_eigenpair``'s defaults (tol 1e-8, seed 0) on a form
    assembled on the cached near table.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (len(mask.interior_idx),):
        raise ValueError(f"vector length {u.shape} != {len(mask.interior_idx)}")
    if np.any(u < 0.0):
        raise ValueError("component reduction requires nonnegative u")
    grid = mask.grid
    dim = grid.dim
    labels, ncomp = ndimage.label(mask.active,
                                  structure=_face_structure(dim))
    # an interior node's incident cells all lie in one component
    node_label = labels[tuple((mask.interior_idx - 1).T)]
    cell_vol = grid.spacing ** dim
    positive = u > 0.0
    support_total = cell_vol * float(np.count_nonzero(positive))
    if support_total == 0.0:
        raise ValueError("component reduction requires a nonzero u")
    rows = []
    selected = -1
    selected_energy = np.inf
    for comp in range(1, ncomp + 1):
        comp_cells = labels == comp
        supported = positive & (node_label == comp)
        support = cell_vol * float(np.count_nonzero(supported))
        if support == 0.0:
            rows.append(ComponentRow(
                index=comp - 1, cell_count=int(comp_cells.sum()),
                support=0.0, ratio=0.0, eigenvalue=float("nan"),
                rescaled_energy=float("nan")))
            continue
        sub = DomainMask(grid, comp_cells)
        eig = smallest_eigenpair(assemble(sub, sigma))
        ratio = (support / support_total) ** (1.0 / dim)
        rescaled = eig.eigenvalue * ratio ** (2.0 * sigma)
        rows.append(ComponentRow(
            index=comp - 1, cell_count=int(comp_cells.sum()),
            support=support, ratio=ratio, eigenvalue=eig.eigenvalue,
            rescaled_energy=rescaled))
        if rescaled < selected_energy:
            selected, selected_energy = comp - 1, rescaled
    report = ReductionReport(rows=tuple(rows), selected=selected,
                             support_total=support_total)
    win = rows[selected]
    if win.ratio == 1.0:
        out_mask = mask  # single live component: nothing to rescale
    else:
        comp_cells = labels == selected + 1
        flat_comp = comp_cells.ravel()
        centers = grid.cell_centers().reshape(-1, dim)
        centroid = centers[flat_comp].mean(axis=0)
        pulled = centroid + win.ratio * (centers - centroid)
        idx = np.floor((pulled - np.asarray(grid.origin))
                       / grid.spacing).astype(int)
        idx = np.clip(idx, 0, np.asarray(grid.cells) - 1)
        new_active = flat_comp[np.ravel_multi_index(idx.T, grid.cells)]
        out_mask = DomainMask(grid, new_active.reshape(grid.cells))
    eig_out = smallest_eigenpair(assemble(out_mask, sigma))
    history = [(eig_out.eigenvalue, out_mask.volume,
                eig_out.eigenvalue + out_mask.volume)]
    return _make_state(out_mask, eig_out, sigma, 0, history), report


def growth_diagnostics(state: ShapeState) -> GrowthDiagnostics:
    """Tabulate boundary growth rates of a converged eigenfunction at up
    to 20 evenly spaced boundary nodes."""
    if not state.eigen.converged:
        raise ValueError("growth diagnostics require a converged eigen state")
    mask = state.mask
    grid = mask.grid
    u = state.eigen.vector
    h = grid.spacing
    l2 = float(np.sqrt(np.sum(state.eigen.vector ** 2) * h ** grid.dim))
    # interior nodes all carry the full cell weight, so this is the
    # lumped L2 norm without reassembling the form
    sup = float(np.abs(u).max())
    radii = []
    r = h
    while r <= grid.diameter:
        radii.append(r)
        r *= 2.0
    boundary = mask.boundary_coords
    take = np.unique(np.linspace(0, len(boundary) - 1,
                                 min(20, len(boundary))).round()
                     .astype(int))
    sample = boundary[take]
    sup_rows, sig_rows, growth_rows = [], [], []
    interior = mask.interior_coords
    for pt in sample:
        dist = np.linalg.norm(interior - pt, axis=1)
        sups = []
        for r in radii:
            sel = dist <= r
            sups.append(float(np.abs(u[sel]).max()) if sel.any() else 0.0)
        sup_rows.append(tuple(sups))
        sig_rows.append(tuple(s / r ** state.sigma
                              for s, r in zip(sups, radii)))
        growth_rows.append(tuple(s / r ** (2.0 * state.sigma - 1.0)
                                 for s, r in zip(sups, radii)))
    _, ncomp = ndimage.label(mask.active, structure=_face_structure(grid.dim))
    return GrowthDiagnostics(
        ratio_sup_l2=sup / l2, radii=tuple(radii),
        points=tuple(tuple(p) for p in sample),
        sup_table=tuple(sup_rows), sup_over_r_sigma=tuple(sig_rows),
        sup_over_r_growth=tuple(growth_rows), components=int(ncomp))
