"""Symmetric decreasing rearrangement on the grid and its energy checks.

The rearrangement is a permutation of nodal values: sorted descending
values are placed on nodes sorted by distance to the grid center.  That
makes the value multiset exactly invariant, at the price of an O(h)
mismatch with the continuum rearrangement, which the reports document.
The full-space energy is expected not to increase under the permutation
(the discrete echo of the classical rearrangement inequality), while
the regional energy carries no such guarantee — the violation search
looks for test functions where it genuinely increases.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gagliardo import NearTable, RegionalForm, assemble
from .geometry import Ball, DomainMask, GridSpec, make_mask


@dataclass(frozen=True)
class RearrangeReport:
    """Energies of a vector and its rearrangement, with provenance.

    ``violation`` flags regional_u < regional_star (the regional energy
    increased under rearrangement); ``ratio`` is their quotient.
    ``l2_mismatch`` is the absolute |sum m u^2 - sum m u*^2| of the two
    lumped squared norms, m = h^n the form's mass: u* permutes the
    values of u, so it is the rounding of two sums of the same terms.
    """

    regional_u: float
    regional_star: float
    full_u: float
    full_star: float
    violation: bool
    descriptor: str
    ratio: float
    l2_mismatch: float


def _grid_center(grid: GridSpec) -> np.ndarray:
    return 0.5 * (np.asarray(grid.origin) + np.asarray(grid.high_corner))


def _require_centered_ball(mask: DomainMask) -> None:
    # sufficient check: activity is monotone in the distance of the cell
    # center to the grid center (no inactive cell strictly inside the
    # outermost active radius)
    centers = mask.grid.cell_centers().reshape(-1, mask.grid.dim)
    d2 = np.sum((centers - _grid_center(mask.grid)) ** 2, axis=1)
    act = mask.active.ravel()
    rmax = d2[act].max()
    if np.any(~act & (d2 < rmax * (1.0 - 1e-9))):
        raise ValueError("rearrangement requires a ball mask centered in the grid")


def _rearrange_order(mask: DomainMask) -> np.ndarray:
    """Interior nodes of a centered ball sorted by distance to the grid
    center, ties broken lexicographically by node index."""
    _require_centered_ball(mask)
    idx = mask.interior_idx
    d2 = np.sum((mask.interior_coords - _grid_center(mask.grid)) ** 2, axis=1)
    keys = tuple(idx[:, k] for k in reversed(range(idx.shape[1]))) + (d2,)
    return np.lexsort(keys)


def _rearranged(u: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Sorted descending values of u placed on the nodes of ``order``;
    a 2-d u is rearranged row by row."""
    if np.any(u < 0.0):
        raise ValueError("rearrangement requires nonnegative u")
    out = np.empty_like(u)
    out[..., order] = np.sort(u, axis=-1)[..., ::-1]
    return out


def symmetric_decreasing_rearrangement(u: np.ndarray,
                                       mask: DomainMask) -> np.ndarray:
    """Permute nodal values so they decrease with distance from center."""
    u = np.asarray(u, dtype=float)
    if u.shape != (len(mask.interior_idx),):
        raise ValueError(f"vector length {u.shape} != {len(mask.interior_idx)}")
    return _rearranged(u, _rearrange_order(mask))


def _ratio(regional_u: float, regional_star: float) -> float:
    return regional_u / regional_star if regional_star > 0.0 else float("inf")


def _build_report(form: RegionalForm, u: np.ndarray, star: np.ndarray,
                  descriptor: str) -> RearrangeReport:
    regional_u = form.energy(u)
    regional_star = form.energy(star)
    m = form.mass
    mismatch = abs(float(np.sum(m * u * u)) - float(np.sum(m * star * star)))
    ratio = _ratio(regional_u, regional_star)
    return RearrangeReport(
        regional_u=regional_u, regional_star=regional_star,
        full_u=regional_u + form.zero_order(u),
        full_star=regional_star + form.zero_order(star),
        violation=regional_u < regional_star, descriptor=descriptor,
        ratio=ratio, l2_mismatch=mismatch)


def almgren_lieb_check(form: RegionalForm, u: np.ndarray,
                       descriptor: str = "test function") -> RearrangeReport:
    """Compare full-space energies of u and its rearrangement.

    The mask must be a centered ball sitting in a grid box of at least
    twice its extent, so the complement potential sees the padding the
    full-space form needs.  A small increase (within 1e-8 relative) is
    tolerated and logged: the nodal permutation is not the exact
    continuum rearrangement.
    """
    u = np.asarray(u, dtype=float)
    active_idx = np.argwhere(form.mask.active)
    h = form.mask.grid.spacing
    active_extent = (active_idx.max(axis=0) - active_idx.min(axis=0) + 1) * h
    grid_extent = (np.asarray(form.mask.grid.high_corner)
                   - np.asarray(form.mask.grid.origin))
    if np.any(grid_extent < 2.0 * active_extent * (1.0 - 1e-9)):
        raise ValueError(
            "full-space comparison needs a grid box at least twice the mask extent")
    star = symmetric_decreasing_rearrangement(u, form.mask)
    report = _build_report(form, u, star, descriptor)
    drop = report.full_u - report.full_star
    if drop < 0.0:
        rel = -drop / abs(report.full_u) if report.full_u != 0.0 else -drop
        warnings.warn(
            f"rearrangement raised the full-space energy by {rel:.3e} "
            f"(relative, {descriptor}); the nodal permutation only tracks "
            "the continuum rearrangement to O(h)",
            RuntimeWarning, stacklevel=2)
    return report


# Bound on the entries of the violation search's largest block
# temporary, the bump offsets (at most 4 bumps per trial x nodes x dim),
# as `assemble` bounds its row blocks by `gagliardo._BLOCK_ENTRIES`.
_BLOCK_ENTRIES = 2 ** 15


def _draw_bumps(rng: np.random.Generator, center: np.ndarray,
                radius: float) -> list:
    """One trial's 1-4 Gaussian bumps, drawn in the stream's order, as
    (|c|, width, amplitude, spot) rows: centers uniform in the
    0.9-radius ball (area-weighted, so samples concentrate toward the
    boundary), widths 0.05-0.3 radii, amplitudes 0.2-1."""
    dim = len(center)
    bumps = []
    for _ in range(int(rng.integers(1, 5))):
        direction = rng.standard_normal(dim)
        # the value np.linalg.norm gives, at a third of its call cost
        direction /= math.sqrt(direction.dot(direction))
        r = 0.9 * radius * rng.uniform() ** (1.0 / dim)
        width = rng.uniform(0.05, 0.3) * radius
        amp = rng.uniform(0.2, 1.0)
        bumps.append((r, width, amp, center + r * direction))
    return bumps


def _baseline_bumps(center: np.ndarray, radius: float) -> list:
    """Trial 0: one unit bump of width 0.25 radii at the center; its
    |c| is None, which marks it as the radial baseline."""
    return [(None, 0.25 * radius, 1.0, center)]


def _describe(bumps: list) -> str:
    if bumps[0][0] is None:
        return f"radial baseline (w={bumps[0][1]:.3f})"
    return f"{len(bumps)} bumps " + " ".join(
        f"(|c|={r:.3f},w={width:.3f},a={amp:.3f})"
        for r, width, amp, _ in bumps)


def _bump_fields(coords: np.ndarray, trials: list) -> np.ndarray:
    """Row k is the field of trials[k]: its bumps evaluated in one array
    operation with all others, then added in draw order."""
    bumps = [bump for trial in trials for bump in trial]
    spots = np.array([spot for *_, spot in bumps])
    scales = np.array([2.0 * width ** 2 for _, width, _, _ in bumps])
    amps = np.array([amp for _, _, amp, _ in bumps])
    values = amps[:, None] * np.exp(
        -np.sum((coords - spots[:, None]) ** 2, axis=2) / scales[:, None])
    counts = np.array([len(trial) for trial in trials])
    first = np.cumsum(counts) - counts
    fields = np.zeros((len(trials), len(coords)))
    for j in range(counts.max()):
        rows = np.flatnonzero(counts > j)
        fields[rows] += values[first[rows] + j]
    return fields


def search_domain(grid: GridSpec) -> tuple[DomainMask, float]:
    """The ball the violation search runs on: centered, radius 0.4x the
    smallest grid extent (leaves the padding the full-space comparison
    needs)."""
    extent = (np.asarray(grid.high_corner) - np.asarray(grid.origin)).min()
    radius = 0.4 * float(extent)
    center = _grid_center(grid)
    return make_mask(grid, Ball(center=tuple(center), radius=radius)), radius


def trial_field(mask: DomainMask, radius: float, seed: int,
                trial: int) -> tuple[np.ndarray, str]:
    """Reconstruct the exact field of one search trial.

    Trial 0 is the deterministic radial baseline; later trials replay
    the seeded draw stream up to the requested index, so the vector is
    bit-identical to what the search evaluated.
    """
    if trial < 0:
        raise ValueError(f"trial must be nonnegative, got {trial}")
    center = _grid_center(mask.grid)
    bumps = _baseline_bumps(center, radius)
    rng = np.random.default_rng(seed)
    for _ in range(trial):
        bumps = _draw_bumps(rng, center, radius)
    return _bump_fields(mask.interior_coords, [bumps])[0], _describe(bumps)


def regional_violation_search(sigma: float, grid: GridSpec, trials: int = 100,
                              seed: int = 0, *,
                              table: NearTable | None = None
                              ) -> RearrangeReport:
    """Search for a regional-energy increase under rearrangement.

    Trial 0 is always the centered radial bump (a fixed point, ratio 1);
    the rest draw random bump sums.  Returns the report of the trial
    with the smallest regional ratio (ties keep the earliest trial).
    No trial is required to fall below 1 — the outcome is recorded,
    not asserted.  The mask check and the node order depend on the mask
    alone, so they run once per search; fields and rearrangements are
    built for a block of trials at a time, and the full report only for
    the winner.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    mask, radius = search_domain(grid)
    form = assemble(mask, sigma, table=table)
    order = _rearrange_order(mask)
    coords = mask.interior_coords
    center = _grid_center(grid)
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_ENTRIES // (4 * coords.size))
    best = None
    for start in range(0, trials, block):
        drawn = [_baseline_bumps(center, radius) if trial == 0
                 else _draw_bumps(rng, center, radius)
                 for trial in range(start, min(start + block, trials))]
        fields = _bump_fields(coords, drawn)
        stars = _rearranged(fields, order)
        for k, (u, star) in enumerate(zip(fields, stars)):
            ratio = _ratio(form.energy(u), form.energy(star))
            if best is None or ratio < best[0]:
                best = (ratio, start + k, drawn[k], u, star)
    _, trial, bumps, u, star = best
    return _build_report(
        form, u, star,
        f"seed={seed} trial={trial} radius={radius:.4f}: {_describe(bumps)}")
