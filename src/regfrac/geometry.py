"""Uniform grids, cell masks, node activity, and exact exit distances.

The discretization convention throughout the package: cells carry the
domain (a cell is in or out), nodes carry function values.  A node is an
interior degree of freedom exactly when all surrounding cells are
active; every other vertex of an active cell sits on the topological
boundary of the cell union and is pinned to the value zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "GridSpec", "DomainMask", "DirectionSet",
    "Ball", "Box", "Annulus", "CellList", "Bitmap",
    "make_mask", "direction_set", "march_exit_distances",
    "read_pbm", "write_pbm",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid: ``cells[k]`` cells of isotropic spacing ``h``.

    ``origin`` is the coordinate of the low corner.  Node indices run
    0..cells[k] inclusive per axis.
    """

    cells: tuple[int, ...]
    spacing: float
    origin: tuple[float, ...]

    def __post_init__(self):
        if len(self.cells) not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2, or 3, got {len(self.cells)}")
        if any(c < 1 for c in self.cells):
            raise ValueError(f"cells per axis must be positive, got {self.cells}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if len(self.origin) != len(self.cells):
            raise ValueError("origin dimension does not match cell dimension")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def node_shape(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cells)

    @property
    def high_corner(self) -> tuple[float, ...]:
        return tuple(o + c * self.spacing for o, c in zip(self.origin, self.cells))

    @property
    def diameter(self) -> float:
        return self.spacing * math.sqrt(sum(c * c for c in self.cells))

    def cell_centers(self) -> np.ndarray:
        """Array of shape cells + (dim,) with the center of every cell."""
        axes = [self.origin[k] + (np.arange(self.cells[k]) + 0.5) * self.spacing
                for k in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)

    def node_coords(self, idx: np.ndarray) -> np.ndarray:
        """Coordinates for integer node indices of shape (..., dim)."""
        return np.asarray(self.origin) + np.asarray(idx, dtype=float) * self.spacing

    def scaled(self, t: float) -> "GridSpec":
        """Same cell pattern with all lengths multiplied by ``t``."""
        if not t > 0:
            raise ValueError(f"scale factor must be positive, got {t}")
        return GridSpec(self.cells, self.spacing * t,
                        tuple(o * t for o in self.origin))


# ------------------------------------------------------------------ masks


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]


@dataclass(frozen=True)
class Annulus:
    center: tuple[float, ...]
    r_inner: float
    r_outer: float


@dataclass(frozen=True)
class CellList:
    indices: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Bitmap:
    path: str


class DomainMask:
    """Active-cell set on a grid, with derived node classification.

    ``active`` is a boolean array of the grid's cell shape.  Derived
    (deterministically, on construction): ``incident_counts`` holds the
    number of active cells around each node, ``interior`` marks nodes
    whose every incident cell is active — the degrees of freedom — and
    ``incident`` marks vertices of at least one active cell.  Incident
    non-interior nodes are the boundary ring carrying the value 0.
    """

    def __init__(self, grid: GridSpec, active: np.ndarray):
        active = np.asarray(active, dtype=bool)
        if active.shape != grid.cells:
            raise ValueError(
                f"mask shape {active.shape} does not match grid cells {grid.cells}")
        if not active.any():
            raise ValueError("empty domain")
        self.grid = grid
        self.active = active.copy()
        self.active.setflags(write=False)
        self._derive_nodes()

    def _derive_nodes(self) -> None:
        grid = self.grid
        counts = _incident_counts(self.active)
        interior = counts == 2 ** grid.dim
        incident = counts > 0
        for derived in (counts, interior, incident):
            derived.setflags(write=False)
        self.incident_counts = counts
        self.interior = interior
        self.incident = incident
        # lexicographic (C-order) index lists: the assembly ordering
        self.interior_idx = np.argwhere(interior)
        self.boundary_idx = np.argwhere(incident & ~interior)
        self.interior_coords = grid.node_coords(self.interior_idx)
        self.boundary_coords = grid.node_coords(self.boundary_idx)
        # every form built on the mask reads these: a write through a
        # view must fail, not corrupt them
        for derived in (self.interior_idx, self.boundary_idx,
                        self.interior_coords, self.boundary_coords):
            derived.setflags(write=False)

    @property
    def cell_count(self) -> int:
        return int(self.active.sum())

    @property
    def volume(self) -> float:
        return self.cell_count * self.grid.spacing ** self.grid.dim

    def same_cells(self, other: "DomainMask") -> bool:
        return self.grid == other.grid and bool(np.array_equal(self.active, other.active))


def _incident_counts(active: np.ndarray) -> np.ndarray:
    """Number of active cells incident to each node of the node grid.

    Node i touches cells i - 1 + offset for offset in {0,1}^dim, so each
    offset adds the cell array into a window of the node array; nodes on
    the grid edge miss the cells beyond it.
    """
    counts = np.zeros(tuple(n + 1 for n in active.shape), dtype=np.int64)
    for offset in np.ndindex(*([2] * active.ndim)):
        counts[tuple(slice(1 - o, 1 - o + n)
                     for o, n in zip(offset, active.shape))] += active
    return counts


def _bounds_check(grid: GridSpec, lo, hi) -> None:
    tol = 1e-12 * grid.spacing
    g_lo = np.asarray(grid.origin)
    g_hi = np.asarray(grid.high_corner)
    if np.any(np.asarray(lo) < g_lo - tol) or np.any(np.asarray(hi) > g_hi + tol):
        raise ValueError(
            f"out of bounds: shape extent [{np.asarray(lo)}, {np.asarray(hi)}] "
            f"exceeds grid box [{g_lo}, {g_hi}]")


def make_mask(grid: GridSpec, shape) -> DomainMask:
    """Build a DomainMask by testing each cell center against ``shape``.

    Shapes: Ball (strict ``|c - center| < radius``), Box (closed),
    Annulus (r_inner <= |c - center| < r_outer), CellList, Bitmap (PBM
    file path).  A shape extending beyond the grid raises "out of
    bounds"; a shape capturing no center raises "empty domain".
    """
    centers = grid.cell_centers()
    if isinstance(shape, Ball):
        c = np.asarray(shape.center, dtype=float)
        _bounds_check(grid, c - shape.radius, c + shape.radius)
        dist = np.linalg.norm(centers - c, axis=-1)
        active = dist < shape.radius
    elif isinstance(shape, Box):
        lo = np.asarray(shape.lo, dtype=float)
        hi = np.asarray(shape.hi, dtype=float)
        _bounds_check(grid, lo, hi)
        active = np.all((centers >= lo) & (centers <= hi), axis=-1)
    elif isinstance(shape, Annulus):
        c = np.asarray(shape.center, dtype=float)
        if not 0.0 <= shape.r_inner < shape.r_outer:
            raise ValueError(
                f"annulus radii out of order: {shape.r_inner}, {shape.r_outer}")
        _bounds_check(grid, c - shape.r_outer, c + shape.r_outer)
        dist = np.linalg.norm(centers - c, axis=-1)
        active = (dist >= shape.r_inner) & (dist < shape.r_outer)
    elif isinstance(shape, CellList):
        active = np.zeros(grid.cells, dtype=bool)
        for idx in shape.indices:
            if len(idx) != grid.dim or any(
                    i < 0 or i >= grid.cells[k] for k, i in enumerate(idx)):
                raise ValueError(f"out of bounds: cell index {idx}")
            active[tuple(idx)] = True
    elif isinstance(shape, Bitmap):
        active = read_pbm(Path(shape.path), grid)
    else:
        raise TypeError(f"unknown shape descriptor: {shape!r}")
    if not active.any():
        raise ValueError("empty domain")
    return DomainMask(grid, active)


def read_pbm(path: Path, grid: GridSpec) -> np.ndarray:
    """Parse a plain PBM (P1) bitmap into a cell-activity array.

    '1' marks an active cell.  The file is row-major with the top row at
    the highest y, so rows are flipped into the grid's index order.
    Only 1-d (height 1) and 2-d grids can come from bitmaps.
    """
    if grid.dim == 3:
        raise ValueError("bitmap masks are 1-d or 2-d only")
    text = Path(path).read_text()
    tokens: list[str] = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    if not tokens or tokens[0] != "P1":
        raise ValueError(f"not a plain PBM (P1) file: {path}")
    # first two numeric tokens are W, H; everything after is raster bits,
    # possibly packed without separators
    nums: list[int] = []
    rest: list[str] = []
    for tok in tokens[1:]:
        if len(nums) < 2:
            nums.append(int(tok))
        else:
            rest.append(tok)
    if len(nums) != 2:
        raise ValueError(f"malformed PBM header in {path}")
    width, height = nums
    bits = "".join(rest)
    if len(bits) != width * height or set(bits) - {"0", "1"}:
        raise ValueError(f"malformed PBM raster in {path}")
    rows = np.array([[int(b) for b in bits[r * width:(r + 1) * width]]
                     for r in range(height)], dtype=bool)
    if grid.dim == 1:
        if height != 1 or width != grid.cells[0]:
            raise ValueError(
                f"out of bounds: bitmap {width}x{height} does not match "
                f"grid cells {grid.cells}")
        return rows[0]
    if (width, height) != (grid.cells[0], grid.cells[1]):
        raise ValueError(
            f"out of bounds: bitmap {width}x{height} does not match "
            f"grid cells {grid.cells}")
    # file row 0 = top = highest y; grid index order has y increasing
    cells = rows[::-1].T
    return np.ascontiguousarray(cells)


def write_pbm(path: Path, mask: DomainMask) -> None:
    """Inverse of read_pbm for 1-d and 2-d masks (P1, top row = high y)."""
    grid = mask.grid
    if grid.dim == 3:
        raise ValueError("bitmap masks are 1-d or 2-d only")
    if grid.dim == 1:
        rows = mask.active[None, :]
    else:
        rows = mask.active.T[::-1]
    lines = [f"P1", f"{rows.shape[1]} {rows.shape[0]}"]
    for r in rows:
        lines.append("".join("1" if v else "0" for v in r))
    Path(path).write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------- directions


@dataclass(frozen=True)
class DirectionSet:
    """Quadrature nodes and weights for integrals over the unit sphere."""

    directions: np.ndarray  # (count, dim), unit rows
    weights: np.ndarray     # (count,), summing to sphere_area(dim)

    def __post_init__(self):
        norms = np.linalg.norm(self.directions, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("directions must be unit vectors")
        if np.any(self.weights <= 0):
            raise ValueError("direction weights must be positive")


def direction_set(dim: int, count: int) -> DirectionSet:
    """Equal-weight sphere rules: S^0 exactly, equi-angular on S^1,
    Fibonacci points on S^2.  ``count`` is ignored for dim=1.  Components
    below 1e-15 in magnitude are exactly zero.  An even 2-d rule is
    exactly closed under negation: row ``k + count/2`` is ``-row k``."""
    if count < 4:
        raise ValueError(f"direction count must be at least 4, got {count}")
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    elif dim == 2:
        theta = 2.0 * math.pi * np.arange(count) / count
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        if count % 2 == 0:
            # cos and sin of theta + pi are not exactly -cos and -sin of theta
            dirs[count // 2:] = -dirs[:count // 2]
        weights = np.full(count, 2.0 * math.pi / count)
    elif dim == 3:
        k = np.arange(count)
        z = 1.0 - (2.0 * k + 1.0) / count
        golden = math.pi * (3.0 - math.sqrt(5.0))
        phi = golden * k
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        dirs = np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)
        # normalize away the last-bit drift so the unit invariant is exact
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        weights = np.full(count, 4.0 * math.pi / count)
    else:
        raise ValueError(f"dimension must be 1, 2, or 3, got {dim}")
    # rounding leaves about 1e-16 in the zero components of axis
    # directions; exact zeros send both orientations of an axis ray
    # through the cells the half-open convention picks
    dirs[np.abs(dirs) < 1e-15] = 0.0
    return DirectionSet(dirs, weights)


# ----------------------------------------------------- exit distances


# A coordinate within this many cells of a grid line lies on it.  Node
# coordinates origin + i*h come back from (x - origin)/h up to a few ulps
# off the integer i, and one just below it would put an axis ray from
# the node in the lower row of cells
_ON_LINE = 1e-9


def _grid_units(grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """Coordinates in cells from the origin, each within ``_ON_LINE`` of
    an integer set exactly on it."""
    q = (points - np.asarray(grid.origin)) / grid.spacing
    line = np.rint(q)
    return np.where(np.abs(q - line) <= _ON_LINE, line, q)


def march_exit_distances(mask: DomainMask, points: np.ndarray,
                         directions: np.ndarray) -> np.ndarray:
    """Exact exit parameters, shape (npoints, ndirections), by grid traversal
    (Amanatides & Woo 1987): the t >= 0 at which point + t*direction leaves
    the active-cell union, capped at the grid diameter.  Cells are
    half-open: a ray on a grid line runs in the higher cells, one starting
    outside or on the boundary facing out exits at 0, and crossings that
    tie up to rounding (a vertex, an edge) step together.  A start
    coordinate within 1e-9 cells of a grid line is put exactly on it, so
    a node gives the same exits, in cells, on any spacing and origin."""
    grid = mask.grid
    points = np.atleast_2d(np.asarray(points, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    for name, arr in (("points", points), ("directions", directions)):
        if arr.ndim != 2 or arr.shape[1] != grid.dim:
            raise ValueError(f"{name} have dimension {arr.shape[-1]} != {grid.dim}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    if not directions.any(axis=1).all():
        raise ValueError("directions must be nonzero")
    n_pts, n_dir = len(points), len(directions)
    # one column per (point, direction) ray, in grid units
    q = np.repeat(_grid_units(grid, points), n_dir, axis=0).T
    w = np.tile(directions, (n_pts, 1)).T
    cell = np.floor(q) - ((w < 0) & (np.floor(q) == q))  # on a line heading down
    crossing = np.divide(cell + (w > 0) - q, w, out=np.full_like(w, np.inf),
                         where=w != 0)
    delta = np.divide(1.0, np.abs(w), out=np.full_like(w, np.inf), where=w != 0)
    padded = np.pad(mask.active, 1)  # off-grid cells clip onto the padding
    top = np.subtract(padded.shape, 1)[:, None]
    cell = np.clip(cell + 1, 0, top).astype(np.intp)
    step = np.sign(w).astype(np.intp)
    dist = np.full(n_pts * n_dir, grid.diameter / grid.spacing)
    live, t = np.arange(n_pts * n_dir), np.zeros(n_pts * n_dir)
    for _ in range(sum(grid.cells) + 1):  # the start cell, <= sum(cells) steps
        stay = padded[tuple(cell)]
        dist[live[~stay]] = t[~stay]
        live, cell, crossing, delta, step = (
            a.compress(stay, axis=-1) for a in (live, cell, crossing, delta, step))
        if not live.size:
            break
        t = crossing.min(axis=0)
        ties = crossing <= t * (1.0 + 1e-12) + 1e-12
        cell += ties * step
        crossing += np.where(ties, delta, 0.0)
    return (dist * grid.spacing).reshape(n_pts, n_dir)
