"""Grid, mask, and directional-distance behavior.

Oracles here are deliberately dumb: cell-center enumeration with plain
loops for mask predicates, an exact geometric ray-caster for exit
distances on balls and boxes, a sort of every grid-line crossing for
exit distances on random masks, and the h/8 ray march the traversal
replaced.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from regfrac.geometry import (
    Annulus,
    Ball,
    Bitmap,
    Box,
    CellList,
    DirectionSet,
    DomainMask,
    GridSpec,
    _grid_units,
    direction_set,
    make_mask,
    march_exit_distances,
    read_pbm,
    write_pbm,
)


def grid_2d(n: int = 8, extent: float = 1.0) -> GridSpec:
    return GridSpec((n, n), 2.0 * extent / n, (-extent, -extent))


# ------------------------------------------------------------------ grid


def test_grid_validation():
    with pytest.raises(ValueError, match="dimension"):
        GridSpec((4, 4, 4, 4), 0.1, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="positive"):
        GridSpec((0, 4), 0.1, (0, 0))
    with pytest.raises(ValueError, match="spacing"):
        GridSpec((4, 4), 0.0, (0, 0))
    with pytest.raises(ValueError, match="origin"):
        GridSpec((4, 4), 0.1, (0, 0, 0))


def test_grid_derived_quantities():
    g = grid_2d(8)
    assert g.dim == 2
    assert g.node_shape == (9, 9)
    assert g.high_corner == pytest.approx((1.0, 1.0))
    assert g.diameter == pytest.approx(math.sqrt(8.0))
    centers = g.cell_centers()
    assert centers.shape == (8, 8, 2)
    assert centers[0, 0] == pytest.approx((-0.875, -0.875))
    assert centers[7, 7] == pytest.approx((0.875, 0.875))


def test_grid_scaling_scales_all_lengths():
    g = grid_2d(8)
    s = g.scaled(3.0)
    assert s.spacing == pytest.approx(3.0 * g.spacing)
    assert s.origin == pytest.approx((-3.0, -3.0))
    assert s.cells == g.cells


# ------------------------------------------------------------------ masks


def test_full_box_mask_counts():
    g = grid_2d(8)
    mask = make_mask(g, Box((-1, -1), (1, 1)))
    assert mask.cell_count == 64
    assert mask.volume == pytest.approx(4.0)
    # all (cells-1)^2 inner nodes are interior, the outer ring is boundary
    assert len(mask.interior_idx) == 7 * 7
    assert len(mask.boundary_idx) == 9 * 9 - 7 * 7


def test_ball_mask_matches_center_enumeration():
    g = grid_2d(8)
    mask = make_mask(g, Ball((0.0, 0.0), 1.0))
    expected = 0
    for i in range(8):
        for j in range(8):
            cx = -1.0 + (i + 0.5) * g.spacing
            cy = -1.0 + (j + 0.5) * g.spacing
            if math.hypot(cx, cy) < 1.0:
                expected += 1
                assert mask.active[i, j]
            else:
                assert not mask.active[i, j]
    assert mask.cell_count == expected


def test_annulus_mask_matches_enumeration():
    g = grid_2d(16)
    mask = make_mask(g, Annulus((0.0, 0.0), 0.4, 0.9))
    for i in range(16):
        for j in range(16):
            c = g.cell_centers()[i, j]
            r = math.hypot(*c)
            assert mask.active[i, j] == (0.4 <= r < 0.9)


def test_cell_list_mask_and_bounds():
    g = grid_2d(8)
    mask = make_mask(g, CellList(((0, 0), (3, 4))))
    assert mask.cell_count == 2
    with pytest.raises(ValueError, match="out of bounds"):
        make_mask(g, CellList(((8, 0),)))


def test_empty_and_out_of_bounds_masks():
    g = grid_2d(8)  # h = 0.25
    with pytest.raises(ValueError, match="empty domain"):
        make_mask(g, Ball((0.0, 0.0), 0.01))
    with pytest.raises(ValueError, match="out of bounds"):
        make_mask(g, Ball((0.9, 0.0), 0.5))
    with pytest.raises(ValueError, match="out of bounds"):
        make_mask(g, Box((-2.0, -1.0), (0.0, 0.0)))


def test_node_activity_from_cells():
    # one active cell: its 4 vertices are all boundary, none interior
    g = grid_2d(8)
    mask = make_mask(g, CellList(((3, 3),)))
    assert len(mask.interior_idx) == 0
    assert len(mask.boundary_idx) == 4
    # 2x2 block: exactly the shared center node is interior
    mask2 = make_mask(g, CellList(((3, 3), (3, 4), (4, 3), (4, 4))))
    assert len(mask2.interior_idx) == 1
    assert tuple(mask2.interior_idx[0]) == (4, 4)
    assert len(mask2.boundary_idx) == 8


def test_node_lists_are_read_only():
    # every form built on a mask reads its node lists, so a write
    # through a view must raise rather than corrupt them
    mask = make_mask(grid_2d(8), Ball((0.0, 0.0), 0.9))
    for name in ("interior_idx", "boundary_idx", "interior_coords",
                 "boundary_coords"):
        view = getattr(mask, name)[:2]
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            getattr(mask, name)[...] += 1


def test_node_activity_idempotent():
    g = grid_2d(8)
    mask = make_mask(g, Ball((0.0, 0.0), 0.9))
    interior = mask.interior.copy()
    mask._derive_nodes()
    assert np.array_equal(interior, mask.interior)


@pytest.mark.parametrize("cells", [(9,), (7, 11), (5, 6, 4)])
def test_incident_counts_match_padded_windows(cells):
    # counts of active cells per node, against windows of the cell array
    # padded by one inactive layer; interior nodes count all 2^n cells
    rng = np.random.default_rng(len(cells))
    active = rng.random(cells) > 0.3
    active[(0,) * len(cells)] = True
    mask = DomainMask(GridSpec(cells, 0.1, (0.0,) * len(cells)), active)
    padded = np.pad(active, 1)
    expect = sum(padded[tuple(slice(o, o + n + 1)
                              for o, n in zip(offset, cells))].astype(int)
                 for offset in np.ndindex(*([2] * len(cells))))
    assert np.array_equal(mask.incident_counts, expect)
    assert np.array_equal(mask.interior, expect == 2 ** len(cells))
    assert np.array_equal(mask.incident, expect > 0)
    assert not mask.incident_counts.flags.writeable


def test_mask_shape_mismatch_rejected():
    g = grid_2d(8)
    with pytest.raises(ValueError, match="does not match"):
        DomainMask(g, np.ones((4, 4), dtype=bool))


# ------------------------------------------------------------------- PBM


def test_pbm_round_trip(tmp_path):
    g = grid_2d(8)
    mask = make_mask(g, Ball((0.0, 0.0), 0.8))
    path = tmp_path / "mask.pbm"
    write_pbm(path, mask)
    again = make_mask(g, Bitmap(str(path)))
    assert np.array_equal(mask.active, again.active)


def test_pbm_orientation_top_row_is_high_y(tmp_path):
    # 2x2 grid, single '1' in the file's top-left = cell (x=0, y=1)
    path = tmp_path / "tiny.pbm"
    path.write_text("P1\n# comment\n2 2\n10\n00\n")
    g = GridSpec((2, 2), 1.0, (0.0, 0.0))
    active = read_pbm(path, g)
    assert active[0, 1] and active.sum() == 1


def test_pbm_rejects_bad_input(tmp_path):
    g = grid_2d(8)
    p = tmp_path / "bad.pbm"
    p.write_text("P2\n8 8\n")
    with pytest.raises(ValueError, match="P1"):
        read_pbm(p, g)
    p.write_text("P1\n4 4\n" + "0" * 16 + "\n")
    with pytest.raises(ValueError, match="does not match"):
        read_pbm(p, g)


# -------------------------------------------------------------- directions


def test_direction_set_2d_cardinal():
    ds = direction_set(2, 4)
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(ds.directions, expected, atol=1e-12)
    assert np.allclose(ds.weights, math.pi / 2.0)


def test_direction_set_axis_directions_exact():
    # the zero component of each axis direction is exactly 0, not the
    # rounding left by cos and sin
    dirs = direction_set(2, 96).directions
    assert np.array_equal(dirs[[0, 24, 48, 72]],
                          [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert np.count_nonzero(dirs == 0.0) == 4


@pytest.mark.parametrize("count", [4, 6, 96, 360])
def test_direction_set_2d_even_closed_under_negation(count):
    # row k + count/2 is exactly -row k, so both orientations of a line
    # are one ray of [dirs; -dirs]
    dirs = direction_set(2, count).directions
    half = count // 2
    assert np.array_equal(dirs[half:], -dirs[:half])
    theta = 2.0 * math.pi * np.arange(count) / count
    assert np.abs(dirs - np.stack([np.cos(theta), np.sin(theta)], axis=1)
                  ).max() <= 1e-14


def test_axis_direction_exits_match_box_closed_form():
    # from every node of the box of cells [4, 12)^2, the four axis
    # directions of the 96-direction set: a ray along a grid line runs in
    # the higher-index cells whichever way it points, so it exits at the
    # box face, or at once on the upper and right faces
    g = GridSpec((16, 16), 1.0 / 16.0, (0.0, 0.0))
    mask = make_mask(g, Box((0.25, 0.25), (0.75, 0.75)))
    h = g.spacing
    dirs = direction_set(2, 96).directions[[0, 24, 48, 72]]
    idx = np.argwhere(np.ones((9, 9), dtype=bool)) + 4
    i, j = idx[:, 0], idx[:, 1]
    want = h * np.stack([np.where(j < 12, 12 - i, 0),    # east
                         np.where(i < 12, 12 - j, 0),    # north
                         np.where(j < 12, i - 4, 0),     # west
                         np.where(i < 12, j - 4, 0)], axis=1)
    got = march_exit_distances(mask, idx * h, dirs)
    assert np.abs(got - want).max() <= 1e-12


def test_direction_set_weight_normalization():
    assert direction_set(2, 360).weights.sum() == pytest.approx(2.0 * math.pi)
    assert direction_set(3, 500).weights.sum() == pytest.approx(4.0 * math.pi)
    ds1 = direction_set(1, 10)
    assert ds1.weights.sum() == pytest.approx(2.0)
    assert np.array_equal(ds1.directions, [[1.0], [-1.0]])


def test_direction_set_unit_norms_and_count_floor():
    ds = direction_set(3, 97)
    assert np.allclose(np.linalg.norm(ds.directions, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="at least 4"):
        direction_set(2, 3)


def test_direction_set_validation():
    with pytest.raises(ValueError, match="unit"):
        DirectionSet(np.array([[2.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="positive"):
        DirectionSet(np.array([[1.0, 0.0]]), np.array([-1.0]))


# ------------------------------------------------------- exit distances


def contains_point(mask, p):
    """Whether p lies in the union of active (closed) cells.  Points on
    shared faces, or within 1e-9 cells of one, go to the higher-index
    cell, the half-open convention of the exit-distance traversal."""
    idx = np.floor(_grid_units(mask.grid, np.asarray(p, dtype=float))
                   ).astype(int)
    if np.any(idx < 0) or np.any(idx >= np.asarray(mask.grid.cells)):
        return False
    return bool(mask.active[tuple(idx)])


def directional_distance(mask, x, omega):
    """inf over both signs of |t| with x + t*omega outside the domain:
    the scalar form of the traversal, for a point x inside the
    active-cell union."""
    x = np.asarray(x, dtype=float).reshape(-1)
    omega = np.asarray(omega, dtype=float).reshape(-1)
    if not contains_point(mask, x):
        raise ValueError(f"point not in domain: {tuple(x)}")
    return float(march_exit_distances(mask, x, [omega, -omega]).min())


def test_exit_distance_full_box_center():
    g = grid_2d(16)
    mask = make_mask(g, Box((-1, -1), (1, 1)))
    d = directional_distance(mask, (0.0, 0.0), (1.0, 0.0))
    assert abs(d - 1.0) <= g.spacing / 8.0 + 1e-12


def test_exit_distance_uses_both_signs():
    g = grid_2d(16)
    mask = make_mask(g, Box((-1, -1), (1, 1)))
    d = directional_distance(mask, (0.5, 0.0), (1.0, 0.0))
    assert abs(d - 0.5) <= g.spacing / 8.0 + 1e-12
    d_neg = directional_distance(mask, (0.5, 0.0), (-1.0, 0.0))
    assert d == pytest.approx(d_neg)


def exact_ball_ray_exit(x, omega, radius):
    # |x + t w| = radius: positive root for unit w
    b = float(np.dot(x, omega))
    c = float(np.dot(x, x)) - radius * radius
    disc = b * b - c
    return -b + math.sqrt(disc)


def test_exit_distance_ball_against_ray_oracle():
    n = 64
    g = GridSpec((n, n), 2.0 / n, (-1.0, -1.0))
    mask = make_mask(g, Ball((0.0, 0.0), 1.0))
    rng = np.random.default_rng(11)
    for _ in range(40):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        omega = np.array([math.cos(theta), math.sin(theta)])
        d = directional_distance(mask, (0.0, 0.0), omega)
        exact = min(exact_ball_ray_exit(np.zeros(2), omega, 1.0),
                    exact_ball_ray_exit(np.zeros(2), -omega, 1.0))
        assert abs(d - exact) <= 2.0 * g.spacing
    # canonical case: from the center, any direction, 1.0 within 2h
    assert abs(directional_distance(mask, (0.0, 0.0), (1.0, 0.0)) - 1.0) \
        <= 2.0 * g.spacing


def test_exit_distance_interior_offcenter_point():
    n = 64
    g = GridSpec((n, n), 2.0 / n, (-1.0, -1.0))
    mask = make_mask(g, Ball((0.0, 0.0), 1.0))
    x = np.array([0.3, -0.2])
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        omega = np.array([math.cos(theta), math.sin(theta)])
        d = directional_distance(mask, x, omega)
        exact = min(exact_ball_ray_exit(x, omega, 1.0),
                    exact_ball_ray_exit(x, -omega, 1.0))
        assert abs(d - exact) <= 2.0 * g.spacing


def test_exit_distance_requires_inside_point():
    g = grid_2d(16)
    mask = make_mask(g, Ball((0.0, 0.0), 0.8))
    with pytest.raises(ValueError, match="point not in domain"):
        directional_distance(mask, (0.95, 0.95), (1.0, 0.0))
    with pytest.raises(ValueError, match="point not in domain"):
        directional_distance(mask, (5.0, 0.0), (1.0, 0.0))


def test_exit_distance_sign_symmetric_batch():
    g = grid_2d(16)
    mask = make_mask(g, Ball((0.0, 0.0), 0.9))
    pts = np.array([[0.0, 0.0], [0.2, 0.1], [-0.3, 0.25]])
    ds = direction_set(2, 12)
    forward = march_exit_distances(mask, pts, ds.directions)
    backward = march_exit_distances(mask, pts, -ds.directions)
    sym = np.minimum(forward, backward)
    for p_i, p in enumerate(pts):
        for d_i, w in enumerate(ds.directions):
            assert directional_distance(mask, p, w) == pytest.approx(
                sym[p_i, d_i])


def test_exit_distance_1d():
    g = GridSpec((32,), 1.0 / 16.0, (-1.0,))
    mask = make_mask(g, Box((-1.0,), (1.0,)))
    d = directional_distance(mask, (0.25,), (1.0,))
    assert abs(d - 0.75) <= g.spacing / 8.0 + 1e-12


# ------------------------------------------------ exact grid traversal


def reference_march(mask, points, directions):
    """The h/8 ray march, kept as a reference: the smallest positive
    multiple of h/8 at which the ray is outside, by the floor
    convention, capped at the grid diameter."""
    grid = mask.grid
    step = grid.spacing / 8.0
    n_steps = int(math.ceil(grid.diameter / step)) + 1
    points = np.atleast_2d(np.asarray(points, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    t = np.arange(1, n_steps + 1) * step
    p = (points[:, None, None, :]
         + t[None, None, :, None] * directions[None, :, None, :])
    idx = np.floor((p - np.asarray(grid.origin)) / grid.spacing).astype(int)
    cells = np.asarray(grid.cells)
    valid = np.all((idx >= 0) & (idx < cells), axis=-1)
    inside = valid & mask.active[tuple(np.moveaxis(
        np.clip(idx, 0, cells - 1), -1, 0))]
    outside = ~inside
    return np.where(outside.any(axis=2), t[np.argmax(outside, axis=2)],
                    grid.diameter)


def crossing_oracle(mask, point, omega, run):
    """Exit parameter of one ray from all of its grid-line crossings.

    Sorts every crossing, classifies the piece between neighbours by the
    cell of its midpoint, and returns the start of the first outside
    piece together with the start of the first stretch of consecutive
    outside pieces longer than ``run``.
    """
    grid = mask.grid
    q = (np.asarray(point, dtype=float) - np.asarray(grid.origin)) / grid.spacing
    w = np.asarray(omega, dtype=float)
    ts = {0.0}
    for k in range(grid.dim):
        if w[k] != 0.0:
            for line in range(grid.cells[k] + 1):
                t = (line - q[k]) / w[k]
                if t > 0.0:
                    ts.add(t)
    ts = sorted(ts)
    ends = ts[1:] + [math.inf]

    def outside(t):
        c = np.floor(q + t * w).astype(int)
        if np.any(c < 0) or np.any(c >= np.asarray(grid.cells)):
            return True
        return not mask.active[tuple(c)]

    exit_t = long_t = None
    run_start = None
    for a, b in zip(ts, ends):
        mid = a + 1.0 if b == math.inf else 0.5 * (a + b)
        if outside(mid):
            if exit_t is None:
                exit_t = a
            if run_start is None:
                run_start = a
            if b - run_start > run / grid.spacing:
                long_t = run_start
                break
        else:
            run_start = None
    return exit_t * grid.spacing, long_t * grid.spacing


def random_mask_and_rays(dim, seed):
    rng = np.random.default_rng(seed)
    n = {1: 40, 2: 12, 3: 6}[dim]
    grid = GridSpec((n,) * dim, 0.3, (-0.7,) * dim)
    active = rng.random(grid.cells) < 0.8
    mask = DomainMask(grid, active)
    cells = np.argwhere(active)[rng.integers(0, active.sum(), 40)]
    points = grid.node_coords(cells + rng.uniform(0.02, 0.98, cells.shape))
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        dirs = rng.normal(size=(12, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return mask, points, dirs


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_exit_matches_crossing_oracle_and_bounds_march(dim):
    mask, points, dirs = random_mask_and_rays(dim, seed=40 + dim)
    h = mask.grid.spacing
    exact = march_exit_distances(mask, points, dirs)
    march = reference_march(mask, points, dirs)
    assert exact.shape == (len(points), len(dirs))
    unclipped = 0
    for i, p in enumerate(points):
        for j, w in enumerate(dirs):
            want, long_exit = crossing_oracle(mask, p, w, h / 8.0)
            assert abs(exact[i, j] - want) <= 1e-12 * want
            # the march lands on the first of its samples that is outside;
            # it can step over an outside stretch shorter than h/8 (a
            # clipped corner), never over a longer one
            assert exact[i, j] <= march[i, j] <= long_exit + h / 8.0 + 1e-12
            unclipped += long_exit == want
    assert unclipped >= 0.8 * exact.size


def test_exact_exit_axis_rays_along_grid_lines():
    # box of cells [4, 12)^2 in a 16^2 grid, h = 1/16 so lines are exact;
    # a ray on a grid line runs in the higher-index cells
    g = GridSpec((16, 16), 1.0 / 16.0, (0.0, 0.0))
    mask = make_mask(g, Box((0.25, 0.25), (0.75, 0.75)))
    h = g.spacing
    east, north, west, south = [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]
    cases = [
        ((6.3 * h, 4 * h), east, 5.7 * h),    # on the lower face
        ((6.3 * h, 4 * h), west, 2.3 * h),
        ((6.3 * h, 8 * h), east, 5.7 * h),    # on an inner line
        ((6.3 * h, 12 * h), east, 0.0),       # on the upper face: outside
        ((4 * h, 5.5 * h), north, 6.5 * h),   # on the left face
        ((4 * h, 5.5 * h), south, 1.5 * h),
        ((12 * h, 5.5 * h), north, 0.0),      # on the right face: outside
        ((12 * h, 5.5 * h), west, 8 * h),     # ... but heading in
        ((6.3 * h, 12 * h), south, 8 * h),
        ((8 * h, 8 * h), west, 4 * h),        # from a node
        ((8 * h, 8 * h), south, 4 * h),
        ((4 * h, 4 * h), west, 0.0),          # from the corner node
        ((4 * h, 4 * h), east, 8 * h),
    ]
    for p, w, want in cases:
        got = march_exit_distances(mask, [p], [w])[0, 0]
        assert abs(got - want) <= 1e-12, (p, w, got, want)
        march = reference_march(mask, [p], [w])[0, 0]
        if want > 0.0:
            assert want <= march <= want + h / 8.0 + 1e-12


def test_node_exits_do_not_depend_on_spacing_or_origin():
    # on a grid that is not dyadic, (x - origin) / h falls just below the
    # integer for hundreds of node coordinates; each node must still
    # start on its grid lines, so its exits are those of the integer
    # index on a unit-spacing copy, scaled by h, bit for bit
    g = GridSpec((48, 48), 2.0 / 48, (-1.0, -1.0))
    mask = make_mask(g, Ball((0.0, 0.0), 0.8))
    q = (mask.interior_coords - g.origin) / g.spacing
    assert np.count_nonzero(q < np.rint(q)) == 402
    unit = DomainMask(GridSpec(g.cells, 1.0, (0.0, 0.0)), mask.active)
    dirs = direction_set(2, 96).directions
    got = march_exit_distances(mask, mask.interior_coords, dirs)
    want = march_exit_distances(unit, mask.interior_idx, dirs) * g.spacing
    assert np.array_equal(got, want)
    # and a node lies in the cell above it on each axis, as a ray does
    idx = np.argwhere(np.ones(g.cells, dtype=bool))
    inside = [contains_point(mask, x) for x in g.node_coords(idx)]
    assert np.array_equal(inside, mask.active[tuple(idx.T)])


@pytest.mark.parametrize("dim", [2, 3])
def test_exact_exit_passes_through_shared_vertex(dim):
    # two active cells meeting only at a vertex: a diagonal ray steps
    # from one into the other (ties within rounding step together), as
    # the h/8 march does
    g = GridSpec((4,) * dim, 0.5, (0.0,) * dim)
    mask = make_mask(g, CellList(((1,) * dim, (2,) * dim)))
    h = g.spacing
    root = math.sqrt(dim)
    unit = np.ones(dim) / root
    rays = [unit]
    if dim == 2:  # components one unit in the last place apart
        rays.append(np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)]))
    start = np.full(dim, 1.3 * h)
    for w in rays:
        got = march_exit_distances(mask, start, w)[0, 0]
        want = 1.7 * root * h
        assert abs(got - want) <= 1e-12 * want
        march = reference_march(mask, start, w)[0, 0]
        assert want <= march <= want + h / 8.0 + 1e-12
    back = march_exit_distances(mask, np.full(dim, 2.6 * h), -unit)[0, 0]
    assert abs(back - 1.6 * root * h) <= 1e-12
    if dim == 2:
        # the other diagonal: cells (1, 2) and (2, 1)
        anti = make_mask(g, CellList(((1, 2), (2, 1))))
        w = np.array([1.0, -1.0]) / math.sqrt(2.0)
        got = march_exit_distances(anti, [1.3 * h, 2.7 * h], w)[0, 0]
        assert abs(got - 1.7 * math.sqrt(2.0) * h) <= 1e-12


def test_exact_exit_validation():
    g = grid_2d(8)
    mask = make_mask(g, Ball((0.0, 0.0), 0.9))
    good = np.array([[0.1, 0.2]])
    with pytest.raises(ValueError, match="points have dimension"):
        march_exit_distances(mask, [[0.1, 0.2, 0.3]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="directions have dimension"):
        march_exit_distances(mask, good, [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="points must be finite"):
        march_exit_distances(mask, [[np.nan, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="directions must be finite"):
        march_exit_distances(mask, good, [[np.inf, 0.0]])
    with pytest.raises(ValueError, match="nonzero"):
        march_exit_distances(mask, good, [[1.0, 0.0], [0.0, 0.0]])


def test_exact_exit_axis_directions_emit_no_warnings():
    g = grid_2d(8)
    mask = make_mask(g, Box((-1, -1), (1, 1)))
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = march_exit_distances(mask, [[0.0, 0.0], [0.1, -0.3]], axes)
    assert np.allclose(got, [[1.0, 1.0, 1.0, 1.0], [0.9, 1.3, 1.1, 0.7]],
                       rtol=0.0, atol=1e-12)
