"""Directional pseudo-distance and Hardy-inequality certificates.

The pseudo-distance aggregates exact exit distances over a sphere rule
into an inverse-power mean; the Hardy check compares the regional
energy against the weighted zero-order term it dominates, and the
equivalence check bounds the full-space energy by a composed multiple
of the regional one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .gagliardo import RegionalForm
from .geometry import DirectionSet, DomainMask, march_exit_distances
from .special import exit_scale_prefactor, hardy_constant
from .spectral import smallest_eigenpair


@dataclass(frozen=True)
class HardyReport:
    """One Hardy-inequality evaluation.

    ``lhs`` is the regional energy, ``rhs`` the constant times the
    weighted sum of u^2 over the pseudo-distance power, ``ratio`` their
    quotient and ``margin`` its excess over one.  The continuum
    inequality guarantees ratio >= 1; the discrete check accepts >= 0.9.
    """

    dim: int
    sigma: float
    constant: float
    label: str
    lhs: float
    rhs: float
    ratio: float
    margin: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Full-space vs regional energy comparison.

    ``composed_bound`` is 1 + c(n,2s)/(s*C) from the complement-potential
    bound chained with the Hardy inequality; ``satisfied`` records
    full <= composed_bound * slack * regional.
    """

    full: float
    regional: float
    composed_bound: float
    slack: float
    ratio: float
    satisfied: bool


def pseudo_distance(mask: DomainMask, points, sigma: float,
                    dirs: DirectionSet):
    """Inverse-power directional mean of exit distances.

    For each point, the distance along every direction is the nearest
    exit along the full line, in either orientation, and the distances
    are combined as c^(1/a) * (sum w d^-a)^(-1/a) with a = 2*sigma.  Each
    distinct ray of [dirs; -dirs] is traced once: a rule closed under
    negation, such as an even 2-d rule, traces half of them.  Accepts a
    single point or a stack; returns a float or a vector.
    """
    alpha = 2.0 * sigma
    if not alpha > 1.0:
        raise ValueError(
            f"pseudo-distance requires 2*sigma > 1, got sigma={sigma}")
    pts = np.asarray(points, dtype=float)
    rays, inverse = np.unique(
        np.concatenate([dirs.directions, -dirs.directions]), axis=0,
        return_inverse=True)
    # take keeps the C order of the full march (a fancy index would
    # return Fortran order and a differently summed product below)
    both = march_exit_distances(mask, pts, rays).take(inverse.ravel(), axis=1)
    dist = np.minimum(*np.split(both, 2, axis=1))
    if np.any(dist == 0.0):
        raise ValueError("boundary point: exit distance 0")
    # a numpy row sum, not a BLAS product: its order does not depend on
    # the number of points or on the BLAS thread count
    out = (exit_scale_prefactor(mask.grid.dim, alpha) ** (1.0 / alpha)
           * np.sum(dist ** -alpha * dirs.weights, axis=1) ** (-1.0 / alpha))
    return float(out[0]) if pts.ndim == 1 else out


def deep_interior(mask: DomainMask) -> np.ndarray:
    """Flags, per interior node, whether the whole Chebyshev-2 node
    neighborhood is interior — i.e. the node keeps a two-cell margin
    from the boundary ring."""
    marks = np.zeros(mask.grid.node_shape, dtype=bool)
    marks[tuple(mask.interior_idx.T)] = True
    eroded = ndimage.binary_erosion(
        marks, structure=np.ones((5,) * mask.grid.dim, dtype=bool))
    return eroded[tuple(mask.interior_idx.T)]


def hardy_check(form: RegionalForm, u: np.ndarray, dirs: DirectionSet,
                label: str = "test function") -> HardyReport:
    """Evaluate the Hardy quotient for one test vector.

    The vector must vanish on interior nodes within two cells of the
    boundary ring: the continuum statement tests functions supported
    inside, and the margin keeps every exit distance at least 3h.
    Pseudo-distances are marched once per node, per form and per
    direction rule: the form keeps those already computed, and a check
    marches only the support nodes no earlier check on the form and rule
    has.  Each ray and each directional sum is independent of the other
    points, so the report has the same bits as on a fresh form.  Nodes
    start their rays exactly on their grid lines: the march puts any
    coordinate within 1e-9 cells of a line on it.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (form.size,):
        raise ValueError(f"vector length {u.shape} != {form.size}")
    support = u != 0.0
    if not support.any():
        raise ValueError("hardy check requires a nonzero test vector")
    if np.any(support & ~deep_interior(form.mask)):
        raise ValueError(
            "unsupported u: nonzero within two cells of the boundary")
    sigma = form.sigma
    constant = hardy_constant(form.mask.grid.dim, 2.0, sigma).value
    scales = form._scales.setdefault(
        (dirs.directions.tobytes(), dirs.weights.tobytes()),
        np.full(form.size, np.nan))
    missing = support & np.isnan(scales)
    if missing.any():
        scales[missing] = pseudo_distance(
            form.mask, form.mask.interior_coords[missing], sigma, dirs)
    scale = scales[support]
    weights = form.node_weights[support]
    lhs = form.energy(u)
    rhs = constant * float(
        np.sum(weights * u[support] ** 2 * scale ** (-2.0 * sigma)))
    ratio = lhs / rhs
    return HardyReport(dim=form.mask.grid.dim, sigma=sigma, constant=constant,
                       label=label, lhs=lhs, rhs=rhs, ratio=ratio,
                       margin=ratio - 1.0)


def equivalence_check(form: RegionalForm, u: np.ndarray) -> EquivalenceReport:
    """Check full <= (1 + c(n,2s)/(s*C)) * 1.1 * regional for u >= 0."""
    u = np.asarray(u, dtype=float)
    if u.shape != (form.size,):
        raise ValueError(f"vector length {u.shape} != {form.size}")
    if np.any(u < 0.0):
        raise ValueError("equivalence check requires nonnegative u")
    sigma = form.sigma
    dim = form.mask.grid.dim
    composed = 1.0 + (exit_scale_prefactor(dim, 2.0 * sigma)
                      / (sigma * hardy_constant(dim, 2.0, sigma).value))
    slack = 1.1
    regional = form.energy(u)
    full = regional + form.zero_order(u)
    ratio = full / regional if regional > 0.0 else 0.0
    return EquivalenceReport(full=full, regional=regional,
                             composed_bound=composed, slack=slack,
                             ratio=ratio,
                             satisfied=full <= composed * slack * regional)


def standard_test_functions(form: RegionalForm, *, seed: int = 0):
    """Deterministic nonnegative test corpus on the form's mask.

    Tensor-sine bump, centered and seeded off-center Gaussians, and the
    ground eigenfunction — all clipped to the deep interior so they
    satisfy the Hardy-check support rule.
    """
    mask = form.mask
    grid = mask.grid
    coords = mask.interior_coords
    deep = deep_interior(mask)
    lo = np.asarray(grid.origin)
    hi = np.asarray(grid.high_corner)
    extent = hi - lo
    out = []

    rel = (coords - lo) / extent
    sine = np.prod(np.sin(np.pi * np.clip(rel, 0.0, 1.0)), axis=1)
    sine[~deep] = 0.0
    out.append(("sine-product", sine))

    center = 0.5 * (lo + hi)
    width = float(extent.min()) / 6.0
    gauss = np.exp(-np.sum((coords - center) ** 2, axis=1) / (2.0 * width ** 2))
    gauss[~deep] = 0.0
    out.append(("centered-gaussian", gauss))

    rng = np.random.default_rng(seed)
    for k in range(2):
        shift = rng.uniform(0.25, 0.75, size=grid.dim)
        spot = lo + shift * extent
        bump = np.exp(-np.sum((coords - spot) ** 2, axis=1) / (2.0 * width ** 2))
        bump[~deep] = 0.0
        out.append((f"offset-gaussian-{k}", bump))

    ground = smallest_eigenpair(form, tol=1e-8, seed=seed).vector
    clipped = np.where(deep, np.maximum(ground, 0.0), 0.0)
    out.append(("ground-eigenfunction", clipped))
    return out
