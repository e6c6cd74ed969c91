"""Tests for the assembled Gagliardo quadratic form.

The kernel-table oracles here are independent of the table builder: the
pinned hat energy is recomputed by nested adaptive quadrature, and the
tent-function energy is checked against brute-force quadrature of the
interpolant's double integral (itself validated against a closed form).
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from regfrac import gagliardo as ga
from regfrac.gagliardo import NearFieldError, assemble, build_near_table
from regfrac.geometry import (Annulus, Ball, Box, DomainMask, GridSpec,
                              make_mask)
from regfrac.quadrature import tensor_rule
from regfrac.special import (exit_scale_prefactor, hardy_constant,
                             tail_integral)


# ------------------------------------------------------------- table


def test_hat_energy_matches_direct_quadrature(table1):
    # Pinned reference: the energy of the unit-mesh hat at node 1 over
    # the ordered cell pair [0,1] x [1,2], computed by nested adaptive
    # quadrature (the hat is x on [0,1] and 2-y on [1,2]).
    def inner(x):
        val, _ = quad(lambda y: (x - (2.0 - y)) ** 2 * (y - x) ** -1.5,
                      1.0, 2.0, epsabs=1e-12, epsrel=1e-12, limit=200)
        return val

    direct, _ = quad(inner, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    assert abs(table1.hat_energy((1,)) - direct) < 1e-6


def test_same_cell_weight_closed_form(table1):
    # Within one unit cell the difference of a linear function gives the
    # moment integral of |x-y|^(2-1-2*sigma) over the unit square, which
    # has the closed form 2/((p+1)(p+2)) for exponent p.
    p = 1.0 - 2.0 * 0.25
    exact = 2.0 / ((p + 1.0) * (p + 2.0))
    a, b, w = table1.pair_weights[(0,)]
    assert len(w) == 1
    assert abs(w[0] - exact) < 1e-10


def test_hat_energies_positive_finite(table2):
    assert len(table2.hat_energies) == 24
    for off, val in table2.hat_energies.items():
        assert math.isfinite(val)
        assert val > 0.0, off


def test_offset_symmetry_exact(table2):
    g = table2.hat_energy
    assert g((1, 0)) == g((0, 1)) == g((-1, 0)) == g((0, -1))
    orbit = [(2, 1), (1, 2), (-2, 1), (2, -1), (-2, -1), (-1, -2), (1, -2),
             (-1, 2)]
    vals = {g(off) for off in orbit}
    assert len(vals) == 1


def test_pair_weight_symmetry(table2):
    # The cell-pair expansions at axis-permuted offsets carry identical
    # weight multisets.
    for first, second in [((1, 0), (0, 1)), ((1, 0), (-1, 0)),
                          ((1, 1), (-1, 1))]:
        wa = np.sort(table2.pair_weights[first][2])
        wb = np.sort(table2.pair_weights[second][2])
        assert np.array_equal(wa, wb)


def test_table_provenance(table2):
    assert table2.dim == 2
    assert table2.sigma == 0.75
    assert table2.depth >= 4
    assert 0.0 <= table2.error_estimate <= 1e-6


def test_depth_validation():
    with pytest.raises(ValueError, match="quadrature depth must be at least 4"):
        build_near_table(1, 0.5, depth=3)


def test_parameter_validation():
    for bad_sigma in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="sigma"):
            build_near_table(1, bad_sigma)
    for bad_dim in (0, 4):
        with pytest.raises(ValueError, match="dimension"):
            build_near_table(bad_dim, 0.5)


def test_nonconvergence_reported():
    # The minimum legal grading depth is too shallow for the default
    # convergence gate in one dimension.
    with pytest.raises(NearFieldError, match="near-field quadrature failed"):
        build_near_table(1, 0.25, depth=4)


def _pairwise_quadrature(lox, loy, size, delta, beta, nodes, points):
    """Tensor-Gauss patch matrix summed pair by pair over box pairs."""
    dim = lox.shape[1]
    width = len(nodes)
    col = {a: i for i, a in enumerate(nodes)}
    verts = [tuple(v) for v in np.ndindex(*([2] * dim))]
    cols0 = [col[v] for v in verts]
    colsd = [col[tuple(d + v for d, v in zip(delta, e))] for e in verts]
    xi, wq = tensor_rule(dim, points)
    Q = np.zeros((width, width))
    for lx, ly in zip(lox, loy):
        x = lx + size * xi
        y = ly + size * xi
        X = ga._basis_matrix(x, verts, cols0, width)
        Y = ga._basis_matrix(y - np.asarray(delta, float), verts, colsd,
                             width)
        diff = x[:, None, :] - y[None, :, :]
        K = (np.sum(diff * diff, axis=-1) ** (-beta / 2.0)
             * wq[:, None] * wq[None, :])
        Q += (X.T * K.sum(axis=1)) @ X + (Y.T * K.sum(axis=0)) @ Y
        C = X.T @ K @ Y
        Q -= C + C.T
    return Q * size ** (2 * dim)


def _pairwise_increments(dim, sigma, delta, depth, points):
    """The graded recursion over explicit box pairs: every touching pair
    is split into all child pairs, every separated one integrated."""
    beta = dim + 2.0 * sigma
    nodes = ga._patch_nodes(dim, delta)
    shifts = np.asarray(list(np.ndindex(*([2] * dim))), dtype=float)
    lox = np.zeros((1, dim))
    loy = np.asarray([delta], dtype=float)
    size = 1.0
    increments = []
    for level in range(depth + 1):
        cheb = np.abs(loy - lox).max(axis=1) / size
        sep = (cheb >= 2) if level >= 2 else np.zeros(len(lox), dtype=bool)
        increments.append(_pairwise_quadrature(
            lox[sep], loy[sep], size, delta, beta, nodes, points))
        if sep.all() or level == depth:
            return nodes, increments, bool(sep.all())
        half = 0.5 * size
        cx = lox[~sep][:, None, :] + half * shifts[None, :, :]
        cy = loy[~sep][:, None, :] + half * shifts[None, :, :]
        m, nch = len(cx), len(shifts)
        lox = np.repeat(cx, nch, axis=1).reshape(-1, dim)
        loy = np.tile(cy, (1, nch, 1)).reshape(m * nch * nch, dim)
        size = half


@pytest.mark.parametrize("dim, sigma", [(1, 0.25), (1, 0.75), (2, 0.75)])
def test_offset_classes_match_pairwise_sum(dim, sigma):
    # Collapsing each level's box pairs onto offset classes with Lagrange
    # position weights is exact for the degree <= 2 integrands, so every
    # level sum matches the explicit pair-by-pair sum to rounding.
    points = ga._DEFAULT_POINTS[dim]
    classes = {ga._canonical(o) for o in ga._offsets_within(dim, 2)}
    for delta in sorted(classes | {(0,) * dim}):
        ref_nodes, ref, ref_done = _pairwise_increments(dim, sigma, delta,
                                                        5, points)
        nodes, got, done = ga._level_increments(dim, sigma, delta, 5, points)
        assert nodes == ref_nodes and done == ref_done
        assert len(got) == len(ref)
        for level, (g, r) in enumerate(zip(got, ref)):
            err = np.abs(g - r).max()
            assert err <= 1e-12 * np.abs(r).max(), (delta, level, err)


def test_level_sums_independent_of_blas_threads():
    # Reruns must be bitwise identical whatever the BLAS thread count;
    # at 3-d level 2 a single large BLAS reduction would not be.
    code = ("import sys; from regfrac import gagliardo as ga; "
            "_, inc, _ = ga._level_increments(3, 0.75, (1, 1, 0), 2, 3); "
            "sys.stdout.write(b''.join(i.tobytes() for i in inc).hex())")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1] != ""


def _table_entries(table):
    """The table's nonzero weights as (node offset e, cell offsets a and
    b of the pair, weight) rows."""
    coo = table.weights.tocoo()
    pairs = table.cell_pairs[coo.col]
    return table.node_offsets[coo.row], pairs[:, 0], pairs[:, 1], coo.data


def _entry_keys(e, a, b):
    digits = np.concatenate([e, a, b], axis=1) + 4
    assert digits.min() >= 0 and digits.max() <= 8
    return digits @ 9 ** np.arange(digits.shape[1])


def test_stencil_symmetry(table1, table2):
    # The regrouped near and gap weights are invariant under the offset
    # symmetry group: reflecting an axis about the row node maps node
    # offset e to -e and cell offset a to -a - 1 on that axis, and an
    # axis permutation permutes all three.  The gap classes are summed in
    # another order per offset, so images agree to rounding.  Each
    # cell-pair form is averaged over the group elements that fix its
    # pair, so the same-cell entries (a = b) meet the same bound.  The
    # mirror entry (-e, a - e, b - e) of each weight is the same
    # local-form entry transposed, which keeps the assembled matrix
    # exactly symmetric, so it agrees bitwise.
    for table, shape in ((table1, (9, 24)), (table2, (81, 376)),
                         (build_near_table(3, 0.5), (729, 5424))):
        assert table.weights.shape == shape
        e, a, b, vals = _table_entries(table)
        keys = _entry_keys(e, a, b)
        order = np.argsort(keys)

        def lookup(e2, a2, b2):
            k = _entry_keys(e2, a2, b2)
            pos = np.minimum(np.searchsorted(keys[order], k), len(k) - 1)
            assert np.array_equal(keys[order][pos], k)
            return vals[order][pos]

        assert np.array_equal(lookup(-e, a - e, b - e), vals)
        tol = 1e-14 * np.abs(vals).max()
        for perm in itertools.permutations(range(table.dim)):
            for flip in itertools.product((False, True), repeat=table.dim):
                def image(x, shift):
                    return np.where(flip, -x[:, perm] - shift, x[:, perm])
                got = lookup(image(e, 0), image(a, 1), image(b, 1))
                err = np.abs(got - vals)
                assert np.all(err <= tol), (perm, flip, err.max())


# ------------------------------------------------------------- assembly


def _quadrant_stencil(dim, q):
    """Interpolation stencil of the midpoint of quadrant q of a node:
    (node offset, coefficient) over the vertices of cell node - 1 + q."""
    entries = []
    for v in itertools.product((0, 1), repeat=dim):
        off = tuple(qk + vk - 1 for qk, vk in zip(q, v))
        coef = 1.0
        for qk, vk in zip(q, v):
            coef *= 0.75 if (qk == 0) == (vk == 1) else 0.25
        entries.append((off, coef))
    return entries


def _gap_classes(dim, sigma):
    """Per-class gap data, built pair by pair: (node offset delta,
    quadrants q and q', node offsets off1 and off2 from the first node,
    kernel-weighted values)."""
    beta = dim + 2.0 * sigma
    quads = list(itertools.product((0, 1), repeat=dim))
    classes = []
    for delta in ga._offsets_within(dim, 2):
        for q in quads:
            for qp in quads:
                cell_off = [d + b - a for d, a, b in zip(delta, q, qp)]
                if max(abs(c) for c in cell_off) < 2:
                    continue
                mid = np.asarray(delta) + (np.asarray(qp) - np.asarray(q)) / 2
                s_sten = _quadrant_stencil(dim, q)
                t_sten = [(tuple(d + o for d, o in zip(delta, off)), c)
                          for off, c in _quadrant_stencil(dim, qp)]
                acc: dict = {}

                def add(o1, o2, c):
                    if o1 == o2:
                        acc[(o1, o2)] = acc.get((o1, o2), 0.0) + c
                    else:
                        acc[(o1, o2)] = acc.get((o1, o2), 0.0) + 0.5 * c
                        acc[(o2, o1)] = acc.get((o2, o1), 0.0) + 0.5 * c

                for o1, c1 in s_sten:
                    for o2, c2 in s_sten:
                        add(o1, o2, c1 * c2)
                for o1, c1 in t_sten:
                    for o2, c2 in t_sten:
                        add(o1, o2, c1 * c2)
                for o1, c1 in s_sten:
                    for o2, c2 in t_sten:
                        add(o1, o2, -2.0 * c1 * c2)
                w = 4.0 ** -dim * float(np.dot(mid, mid)) ** (-beta / 2.0)
                classes.append((delta, q, qp,
                                np.asarray([k[0] for k in acc]),
                                np.asarray([k[1] for k in acc]),
                                np.asarray(list(acc.values())) * w))
    return classes


def _near_gap_by_class(mask, sigma, table):
    """Near and gap parts of the form, assembled pair-weight list by
    pair-weight list and gap class by gap class, with entries touching
    the boundary ring folded as the zero boundary values require."""
    grid = mask.grid
    dim = grid.dim
    scale = grid.spacing ** (dim - 2.0 * sigma)
    n_int = len(mask.interior_idx)
    node_shape = grid.node_shape
    labels = np.full(node_shape, -1, dtype=np.int64)
    labels[tuple(mask.interior_idx.T)] = np.arange(n_int)
    labels[tuple(mask.boundary_idx.T)] = n_int + np.arange(
        len(mask.boundary_idx))
    labels_flat = labels.ravel()

    def ravel_nodes(node_idx):
        return np.ravel_multi_index(tuple(node_idx.T), node_shape)

    A = np.zeros((n_int, n_int))
    diag = np.zeros(n_int)
    padded = np.pad(mask.active, 2, constant_values=False)
    for cell_off in [(0,) * dim] + ga._offsets_within(dim, 1):
        sl = tuple(slice(2 + o, 2 + o + grid.cells[k])
                   for k, o in enumerate(cell_off))
        cells_k = np.argwhere(mask.active & padded[sl])
        a_offs, b_offs, ws = table.pair_weights[cell_off]
        if not len(cells_k) or not len(ws):
            continue
        la = labels_flat[ravel_nodes(
            (cells_k[:, None, :] + a_offs[None, :, :]).reshape(-1, dim))]
        lb = labels_flat[ravel_nodes(
            (cells_k[:, None, :] + b_offs[None, :, :]).reshape(-1, dim))]
        wv = np.broadcast_to(ws * scale, (len(cells_k), len(ws))).ravel()
        int_a, int_b = la < n_int, lb < n_int
        both = int_a & int_b
        r, c, v = la[both], lb[both], wv[both]
        np.add.at(A, (r, r), v)
        np.add.at(A, (c, c), v)
        np.add.at(A, (r, c), -v)
        np.add.at(A, (c, r), -v)
        np.add.at(diag, la[int_a & ~int_b], wv[int_a & ~int_b])
        np.add.at(diag, lb[int_b & ~int_a], wv[int_b & ~int_a])

    pad_nodes = np.pad(mask.active, 3, constant_values=False)

    def quadrant_ok(cell_shift):
        # over node indices i: is cell (i - 1 + shift) active?
        sl = tuple(slice(2 + s, 2 + s + node_shape[k])
                   for k, s in enumerate(cell_shift))
        return pad_nodes[sl]

    for delta, q, qp, off1, off2, vals in _gap_classes(dim, sigma):
        cond = quadrant_ok(q) & quadrant_ok(
            tuple(d + g for d, g in zip(delta, qp)))
        i_idx = np.argwhere(cond)
        m, me = len(i_idx), len(vals)
        if not m:
            continue
        g1 = labels_flat[ravel_nodes(
            (i_idx[:, None, :] + off1[None, :, :]).reshape(-1, dim))
            ].reshape(m, me)
        g2 = labels_flat[ravel_nodes(
            (i_idx[:, None, :] + off2[None, :, :]).reshape(-1, dim))
            ].reshape(m, me)
        vv = np.broadcast_to(vals * scale, (m, me))
        same = np.all(off1 == off2, axis=1)[None, :]
        ok = (g1 < n_int) & (g2 < n_int)
        np.add.at(diag, g1[ok & same], vv[ok & same])
        np.add.at(A, (g1[ok & ~same], g2[ok & ~same]), vv[ok & ~same])
    A[np.arange(n_int), np.arange(n_int)] += diag
    return A


def _reference_stencils(table, sigma):
    """The near and gap data summed per cell offset D, as the assembly
    loop of earlier versions read them: entries (o1, o2, vals) of the
    local form of the ordered cell pair (K, K+D), node offsets from the
    low vertex of K, built from the pair weights and the pair-by-pair
    gap classes."""
    dim = table.dim
    stencils: dict = {}

    def add(off, o1, o2, vals):
        old = stencils.get(off)
        if old is not None:
            o1, o2, vals = (np.concatenate([x, y]) for x, y in
                            zip(old, (o1, o2, vals)))
        stencils[off] = (o1, o2, vals)

    for off, (a, b, w) in table.pair_weights.items():
        add(off, np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]),
            np.concatenate([w, w, -w, -w]))
    for delta, q, qp, off1, off2, vals in _gap_classes(dim, sigma):
        # the first quadrant cell is node - 1 + q
        low = np.asarray(q) - 1
        cell_off = tuple(d + b - a for d, a, b in zip(delta, q, qp))
        add(cell_off, off1 - low, off2 - low, vals)
    return stencils


def _scatter_reference(mask, sigma, stencils):
    """Near and gap parts by one np.add.at scatter per cell offset."""
    grid = mask.grid
    n_int = len(mask.interior_idx)
    labels = np.full(grid.node_shape, n_int, dtype=np.int64)
    labels[tuple(mask.interior_idx.T)] = np.arange(n_int)
    strides = np.asarray(labels.strides) // labels.itemsize
    labels = labels.ravel()
    scale = grid.spacing ** (grid.dim - 2.0 * sigma)
    A = np.zeros((n_int, n_int))
    padded = np.pad(mask.active, 3, constant_values=False)
    low_vertex = np.arange(labels.size).reshape(grid.node_shape)[
        tuple(slice(n) for n in grid.cells)]
    for off, (o1, o2, vals) in stencils.items():
        sl = tuple(slice(3 + o, 3 + o + n) for o, n in zip(off, grid.cells))
        low = low_vertex[mask.active & padded[sl]]
        if not len(low):
            continue
        r = labels[low[:, None] + (o1 @ strides)[None, :]]
        c = labels[low[:, None] + (o2 @ strides)[None, :]]
        keep = (r < n_int) & (c < n_int)
        np.add.at(A.reshape(-1), (r * n_int + c)[keep],
                  np.broadcast_to(vals * scale, r.shape)[keep])
    return A


def _far_reference(mask, sigma):
    """Far part by the midpoint rule summed over node pairs in row
    blocks, diagonal included."""
    grid = mask.grid
    beta = grid.dim + 2.0 * sigma
    masses = ga._node_masses(mask)
    interior_m = masses[tuple(mask.interior_idx.T)]
    all_idx = np.concatenate([mask.interior_idx, mask.boundary_idx])
    all_coords = np.concatenate([mask.interior_coords, mask.boundary_coords])
    all_m = masses[tuple(all_idx.T)]
    n_int = len(interior_m)
    A = np.zeros((n_int, n_int))
    diag = np.zeros(n_int)
    rows = max(1, (1 << 18) // len(all_idx))
    for s in range(0, n_int, rows):
        sl = slice(s, min(s + rows, n_int))
        sq = mask.interior_coords[sl, None, :] - all_coords[None, :, :]
        with np.errstate(divide="ignore"):
            ker = np.sum(sq * sq, axis=-1) ** (-beta / 2.0)
        cheb = np.abs(mask.interior_idx[sl, None, :]
                      - all_idx[None, :, :]).max(axis=-1)
        ker[cheb <= 2] = 0.0
        w = 2.0 * interior_m[sl, None] * all_m[None, :] * ker
        diag[sl] += w.sum(axis=1)
        A[sl, :] -= w[:, :n_int]
    A[np.arange(n_int), np.arange(n_int)] += diag
    return A


def _complement_reference(mask, sigma):
    """Complement potential by direct summation over node and inactive
    cell pairs, with the cells within 2h refined 4x per axis, plus the
    radial tail per node."""
    grid = mask.grid
    dim = grid.dim
    h = grid.spacing
    beta = dim + 2.0 * sigma
    nodes = mask.interior_coords
    centers = grid.cell_centers().reshape(-1, dim)[~mask.active.ravel()]
    steps = (np.arange(4) - 1.5) * (h / 4.0)
    sub = np.stack([g.ravel() for g in np.meshgrid(*([steps] * dim),
                                                   indexing="ij")], axis=-1)
    kappa = np.zeros(len(nodes))
    for i, x in enumerate(nodes):
        dx = x - centers
        dist2 = np.sum(dx * dx, axis=1)
        near = dist2 <= (2.0 * h) ** 2 + 1e-12 * h * h
        kappa[i] = h ** dim * np.sum(dist2[~near] ** (-beta / 2.0))
        ddx = x - (centers[near][:, None, :] + sub[None, :, :])
        kappa[i] += (h / 4.0) ** dim * np.sum(
            np.sum(ddx * ddx, axis=-1) ** (-beta / 2.0))
    wall = np.minimum(nodes - np.asarray(grid.origin),
                      np.asarray(grid.high_corner) - nodes).min(axis=1)
    kappa += [tail_integral(dim, sigma, float(r))
              for r in np.maximum(wall, 0.5 * h)]
    return kappa


def _random_mask(case):
    """Random masks with holes that touch the grid edge, on non-square
    grids away from the origin."""
    rng = np.random.default_rng(17)
    cells, spacing, origin = {
        "1d": ((17,), 0.2, (0.3,)),
        "2d": ((14, 19), 0.1, (-0.7, -1.0)),
        "3d": ((7, 8, 6), 0.25, (-1.0, 0.5, 0.0)),
    }[case]
    active = rng.random(cells) > 0.2
    active[(0,) * (len(cells) - 1)] = True   # a full line on the edge
    active[-1] = True                        # the far face
    return DomainMask(GridSpec(cells=cells, spacing=spacing, origin=origin),
                      active)


def _holey_mask():
    # random cells with holes, one full row along the grid edge
    active = np.random.default_rng(3).random((20, 20)) > 0.25
    active[0, :] = True
    grid = GridSpec(cells=(20, 20), spacing=0.1, origin=(-1.0, -1.0))
    return DomainMask(grid, active)


@pytest.mark.parametrize("case", ["box-1d", "ball-2d", "annulus-2d",
                                  "holes-2d", "ball-3d"])
def test_stencils_match_per_class_assembly(case, table1, table2):
    # Regrouping the near and gap data by node offset changes only the
    # order of the additions, so the matrix matches the per-class loops
    # to rounding; the far part is the direct pair loop.
    centered = {n: GridSpec(cells=(c,) * n, spacing=2.0 / c,
                            origin=(-1.0,) * n) for n, c in ((2, 16), (3, 10))}
    mask, sigma, table = {
        "box-1d": (make_mask(GridSpec(cells=(12,), spacing=0.25,
                                      origin=(0.0,)),
                             Box(lo=(0.0,), hi=(3.0,))), 0.25, table1),
        "ball-2d": (make_mask(centered[2], Ball(center=(0.0, 0.0),
                                                radius=0.9)), 0.75, table2),
        "annulus-2d": (make_mask(centered[2], Annulus(
            center=(0.0, 0.0), r_inner=0.3, r_outer=0.9)), 0.75, table2),
        "holes-2d": (_holey_mask(), 0.75, table2),
        "ball-3d": (make_mask(centered[3], Ball(center=(0.0,) * 3,
                                                radius=0.8)),
                    0.5, build_near_table(3, 0.5)),
    }[case]
    ref = _far_reference(mask, sigma) + _near_gap_by_class(mask, sigma, table)
    got = assemble(mask, sigma, table=table).matrix()
    err = np.abs(got - ref).max() / np.abs(ref).max()
    assert err <= 1e-12, err




@pytest.mark.parametrize("case", ["1d", "2d", "3d", "annulus-2d"])
def test_assembly_matches_reference_loops(case, table1, table2):
    # The lattice operations reproduce the per-stencil scatter, the
    # far pair loop and the complement loop of earlier versions: the
    # matrix to 1e-12 relative in max norm, the complement potential to
    # 1e-12 relative at every node.
    if case == "annulus-2d":
        grid = GridSpec(cells=(24, 24), spacing=2.0 / 24, origin=(-1.0, -1.0))
        mask = make_mask(grid, Annulus(center=(0.0, 0.0), r_inner=0.3,
                                       r_outer=0.9))
    else:
        mask = _random_mask(case)
    sigma, table = {1: (0.25, table1), 2: (0.75, table2),
                    3: (0.5, build_near_table(3, 0.5))}[mask.grid.dim]
    assert len(mask.interior_idx) > 10
    form = assemble(mask, sigma, table=table)
    ref = (_scatter_reference(mask, sigma, _reference_stencils(table, sigma))
           + _far_reference(mask, sigma))
    err = np.abs(form.matrix() - ref).max() / np.abs(ref).max()
    assert err <= 1e-12, err
    kappa = _complement_reference(mask, sigma)
    err = np.abs(form.complement_potential - kappa) / kappa
    assert err.max() <= 1e-12, err.max()


def _per_call_assembly(mask, sigma, table):
    """Matrix, node and boundary masses and complement potential, with
    every kernel, spectrum, stencil and gather offset built for this one
    call, as assembly did before the per-grid plan: the bitwise
    reference for the plan."""
    grid = mask.grid
    dim = grid.dim
    h = grid.spacing
    beta = dim + 2.0 * sigma
    axes = tuple(range(dim))

    def convolve(kernel, field):
        spectrum = (np.fft.rfftn(kernel, axes=axes)
                    * np.fft.rfftn(field, s=kernel.shape, axes=axes))
        return np.fft.irfftn(spectrum, s=kernel.shape, axes=axes)

    padded = np.pad(mask.active, 1, constant_values=False)
    counts = np.zeros(grid.node_shape, dtype=np.int64)
    for offset in np.ndindex(*([2] * dim)):
        counts += padded[tuple(slice(o, o + n) for o, n
                               in zip(offset, grid.node_shape))]
    masses = counts * (h ** dim / 2 ** dim)
    idx = mask.interior_idx
    interior_m = masses[tuple(idx.T)]
    boundary_m = masses[tuple(mask.boundary_idx.T)]
    n_int = len(interior_m)

    node_shape = np.asarray(grid.node_shape)
    d = ga._offset_grid(1 - node_shape, node_shape - 1)
    far = np.abs(d).max(axis=-1) >= 3
    kernel = np.zeros(far.shape)
    kernel[far] = (h * h * np.sum(d[far] ** 2, axis=-1)) ** (-beta / 2.0)
    neg_weight = -(2.0 * interior_m[0] * interior_m[0]) * kernel
    k_strides = np.asarray(kernel.strides) // kernel.itemsize
    k_off = idx @ k_strides
    k_center = (node_shape - 1) @ k_strides
    reach = ga._REACH
    active = np.pad(mask.active, reach)
    a_strides = np.asarray(active.strides) // active.itemsize
    active = active.ravel()
    labels = np.full(tuple(node_shape + 2 * reach), n_int, dtype=np.int64)
    labels[tuple((idx + reach).T)] = np.arange(n_int)
    l_strides = np.asarray(labels.strides) // labels.itemsize
    labels = labels.ravel()
    cell_base = (idx + reach) @ a_strides
    node_base = (idx + reach) @ l_strides
    first = (table.cell_pairs[:, 0] @ a_strides)[:, None]
    second = (table.cell_pairs[:, 1] @ a_strides)[:, None]
    columns = (table.node_offsets @ l_strides)[:, None]
    weights = table.weights * h ** (dim - 2.0 * sigma)
    A = np.empty((n_int, n_int))
    flat = A.reshape(-1)
    rows = min(n_int, max(1, (1 << 20) // max(n_int, len(table.cell_pairs))))
    for s in range(0, n_int, rows):
        sl = slice(s, min(s + rows, n_int))
        gather = k_off[None, :] + k_center - k_off[sl, None]
        A[sl] = np.take(neg_weight, gather, mode="clip")
        both = active[first + cell_base[sl]] & active[second + cell_base[sl]]
        coef = weights @ both
        col = labels[columns + node_base[sl]]
        keep = col < n_int
        flat[(col + np.arange(s, sl.stop) * n_int)[keep]] += coef[keep]
    far_sums = convolve(kernel, masses)[tuple((idx + node_shape - 1).T)]
    A[np.arange(n_int), np.arange(n_int)] += 2.0 * interior_m * far_sums

    cells = np.asarray(grid.cells)
    kappa = np.zeros(n_int)
    inactive = ~mask.active
    if inactive.any():
        r = ga._offset_grid(1 - cells, cells) - 0.5
        r2 = np.sum(r * r, axis=-1)
        near = r2 <= 4.0
        comp = np.where(near, 0.0, h ** dim * (h * h * r2) ** (-beta / 2.0))
        kappa += convolve(comp, inactive.astype(float))[
            tuple((idx + cells - 1).T)]
        steps = (np.arange(4) - 1.5) / 4.0
        sub = ga._offset_grid([0] * dim, [3] * dim).reshape(-1, dim)
        diff = h * (r[near][:, None, :] - steps[sub][None, :, :])
        refined = (h / 4.0) ** dim * np.sum(
            np.sum(diff * diff, axis=-1) ** (-beta / 2.0), axis=1)
        pad2 = np.pad(inactive, 2)
        strides = np.asarray(pad2.strides) // pad2.itemsize
        shifts = np.rint(-r[near] - 0.5).astype(np.int64) @ strides
        hit = pad2.ravel()[shifts[:, None] + ((idx + 2) @ strides)[None, :]]
        kappa += np.sum(refined[:, None] * hit, axis=0)
    nodes = mask.interior_coords
    wall = np.maximum(np.minimum(nodes - np.asarray(grid.origin),
                                 np.asarray(grid.high_corner) - nodes
                                 ).min(axis=1), 0.5 * h)
    kappa += tail_integral(dim, sigma, 1.0) * wall ** (-2.0 * sigma)
    return A, interior_m, boundary_m, kappa


def _assert_bitwise(form, reference):
    A, interior_m, boundary_m, kappa = reference
    assert np.array_equal(form.matrix(), A)
    assert np.array_equal(form.node_weights, interior_m)
    assert np.array_equal(form.boundary_weights, boundary_m)
    assert np.array_equal(form.complement_potential, kappa)


def _plan_case_mask(case):
    if case in ("1d", "2d", "3d"):
        return _random_mask(case)
    if case == "ball-1d":
        return make_mask(GridSpec(cells=(33,), spacing=2.0 / 33,
                                  origin=(-1.0,)),
                         Ball(center=(0.0,), radius=0.8))
    if case == "full-box":
        return DomainMask(GridSpec(cells=(10, 10), spacing=0.1,
                                   origin=(0.0, 0.0)),
                          np.ones((10, 10), dtype=bool))
    rng = np.random.default_rng(29)
    cells, origin = {"non-square": ((12, 20), (-0.6, -1.0)),
                     "off-centre": ((13, 13), (2.35, -7.1))}[case]
    active = rng.random(cells) > 0.15
    return DomainMask(GridSpec(cells=cells, spacing=0.1, origin=origin),
                      active)


@pytest.mark.parametrize("case", ["1d", "ball-1d", "2d", "3d", "non-square",
                                  "off-centre", "full-box"])
def test_plan_matches_per_call_construction(case, table1, table2):
    # Building the kernels, spectra, stencils, tail term and gather
    # offsets once per grid computes the same expressions in the same
    # order as building them per call: every output is bitwise equal,
    # on the first assembly on a grid and on reuse of its plan.
    mask = _plan_case_mask(case)
    sigma, table = {1: (0.25, table1), 2: (0.75, table2),
                    3: (0.5, build_near_table(3, 0.5))}[mask.grid.dim]
    reference = _per_call_assembly(mask, sigma, table)
    _assert_bitwise(assemble(mask, sigma, table=table), reference)
    _assert_bitwise(assemble(mask, sigma, table=table), reference)


def test_one_plan_per_grid(table2):
    # Two masks on one grid share one plan, and a fresh table (whose
    # plans start empty) assembles bitwise-equal forms.
    fresh = dataclasses.replace(table2)
    assert fresh._plans == {} and fresh == table2
    grid = GridSpec(cells=(16, 16), spacing=1 / 8, origin=(-1.0, -1.0))
    masks = [make_mask(grid, Ball(center=(0.0, 0.0), radius=r))
             for r in (0.9, 0.6)]
    forms = [assemble(mask, 0.75, table=fresh) for mask in masks]
    assert list(fresh._plans) == [(grid, 0.75)]
    for mask, form in zip(masks, forms):
        _assert_bitwise(form, _per_call_assembly(mask, 0.75, table2))
        _assert_bitwise(assemble(mask, 0.75, table=table2),
                        _per_call_assembly(mask, 0.75, table2))


def test_plans_keyed_by_spacing_and_origin(table2):
    # The kernels scale with the spacing and the tail term depends on
    # the origin, so grids with the same cells but another spacing or
    # origin each get their own plan, and each form matches its own
    # per-call reference.
    fresh = dataclasses.replace(table2)
    active = np.random.default_rng(31).random((11, 9)) > 0.2
    grids = [GridSpec(cells=(11, 9), spacing=0.1, origin=(0.0, 0.0)),
             GridSpec(cells=(11, 9), spacing=0.2, origin=(0.0, 0.0)),
             GridSpec(cells=(11, 9), spacing=0.1, origin=(0.55, -0.3))]
    for grid in grids:
        mask = DomainMask(grid, active)
        _assert_bitwise(assemble(mask, 0.75, table=fresh),
                        _per_call_assembly(mask, 0.75, fresh))
    assert set(fresh._plans) == {(grid, 0.75) for grid in grids}
    plans = list(fresh._plans.values())
    assert len({id(plan) for plan in plans}) == 3
    assert not np.array_equal(plans[0].tail, plans[2].tail)


def test_assembly_independent_of_blas_threads():
    # Matrix and complement potential are byte-identical across
    # processes at one and two BLAS threads, in 2-d and 3-d.
    code = ("import hashlib, sys, numpy as np\n"
            "from regfrac.gagliardo import assemble, build_near_table\n"
            "from regfrac.geometry import DomainMask, GridSpec\n"
            "out = hashlib.sha256()\n"
            "for cells, sigma in (((21, 18), 0.75), ((8, 7, 9), 0.5)):\n"
            "    active = np.random.default_rng(5).random(cells) > 0.15\n"
            "    grid = GridSpec(cells, 0.1, (0.0,) * len(cells))\n"
            "    table = build_near_table(len(cells), sigma, depth=5,\n"
            "                             convergence_tol=1.0)\n"
            "    form = assemble(DomainMask(grid, active), sigma, table=table)\n"
            "    out.update(form.matrix().tobytes())\n"
            "    out.update(form.complement_potential.tobytes())\n"
            "sys.stdout.write(out.hexdigest())\n")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1] != ""


def test_tent_energy_brute_force(table1):
    # 4-cell mesh on [0,4], nodal values (0,1,2,1,0).  The brute-force
    # oracle integrates the interpolant's difference quotient directly
    # and is itself pinned to the closed form (1536*sqrt(2) - 2048)/15.
    xs = [0.0, 1.0, 2.0, 3.0, 4.0]
    vals = [0.0, 1.0, 2.0, 1.0, 0.0]

    def uh(x):
        return np.interp(x, xs, vals)

    def inner(x):
        pts = [p for p in (1.0, 2.0, 3.0) if p > x + 1e-12]
        val, _ = quad(lambda y: (uh(x) - uh(y)) ** 2 * (y - x) ** -1.5,
                      x, 4.0, points=pts or None, epsabs=1e-10, epsrel=1e-9,
                      limit=400)
        return val

    half, _ = quad(inner, 0.0, 4.0, points=[1.0, 2.0, 3.0],
                   epsabs=1e-8, epsrel=1e-8, limit=400)
    oracle = 2.0 * half
    closed = (1536.0 * math.sqrt(2.0) - 2048.0) / 15.0
    assert abs(oracle - closed) / closed < 1e-6

    grid = GridSpec(cells=(4,), spacing=1.0, origin=(0.0,))
    mask = make_mask(grid, Box(lo=(0.0,), hi=(4.0,)))
    form = assemble(mask, 0.25, table=table1)
    energy = form.energy(np.array([1.0, 2.0, 1.0]))
    assert abs(energy - oracle) / oracle < 0.02


def test_apply_zero(ball_form):
    out = ball_form.apply(np.zeros(ball_form.size))
    assert np.array_equal(out, np.zeros(ball_form.size))


def test_apply_linearity(ball_form):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(ball_form.size)
        v = rng.standard_normal(ball_form.size)
        a = rng.uniform(-2.0, 2.0)
        lhs = ball_form.apply(a * u + v)
        rhs = a * ball_form.apply(u) + ball_form.apply(v)
        scale = np.linalg.norm(rhs)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale


def test_energy_is_inner_product(ball_form):
    rng = np.random.default_rng(23)
    for _ in range(20):
        u = rng.standard_normal(ball_form.size)
        direct = float(np.dot(u, ball_form.apply(u)))
        assert abs(ball_form.energy(u) - direct) <= 1e-13 * abs(direct)


def test_parallelogram_identity(ball_form):
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = rng.standard_normal(ball_form.size)
        v = rng.standard_normal(ball_form.size)
        lhs = ball_form.energy(u + v) + ball_form.energy(u - v)
        rhs = 2.0 * ball_form.energy(u) + 2.0 * ball_form.energy(v)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_matrix_symmetry(ball_form):
    A = ball_form.matrix()
    assert np.array_equal(A, A.T)
    rng = np.random.default_rng(41)
    for _ in range(20):
        u = rng.standard_normal(ball_form.size)
        v = rng.standard_normal(ball_form.size)
        left = float(np.dot(ball_form.apply(u), v))
        right = float(np.dot(u, ball_form.apply(v)))
        assert abs(left - right) <= 1e-12 * max(abs(left), abs(right))


def test_positive_semidefinite(ball_form):
    rng = np.random.default_rng(53)
    for _ in range(100):
        u = rng.standard_normal(ball_form.size)
        assert ball_form.energy(u) >= 0.0
    eigs = np.linalg.eigvalsh(ball_form.matrix())
    assert eigs.min() >= -1e-10 * np.abs(eigs).max()


def test_grid_scaling_homogeneity(ball_form, table2):
    # Dilating the grid by t multiplies every matrix entry by
    # t^(n - 2*sigma) and every node weight by t^n.
    mask = ball_form.mask
    t = 2.0
    dilated = DomainMask(mask.grid.scaled(t), mask.active)
    form_t = assemble(dilated, 0.75, table=table2)
    factor = t ** (2.0 - 1.5)
    assert np.allclose(form_t.matrix(), factor * ball_form.matrix(),
                       rtol=1e-13, atol=0.0)
    assert np.array_equal(form_t.node_weights, 4.0 * ball_form.node_weights)


def test_domain_monotonicity(ball_form, table2):
    # Growing the domain adds positive pair interactions, so the energy
    # of a vector supported on the smaller domain cannot decrease.
    grid = ball_form.mask.grid
    big = assemble(make_mask(grid, Ball(center=(0.0, 0.0), radius=1.0 - 1e-9)),
                   0.75, table=table2)
    where = {tuple(ix): i for i, ix in enumerate(big.mask.interior_idx)}
    rng = np.random.default_rng(61)
    for _ in range(5):
        u = rng.standard_normal(ball_form.size)
        lifted = np.zeros(big.size)
        for i, ix in enumerate(ball_form.mask.interior_idx):
            lifted[where[tuple(ix)]] = u[i]
        assert big.energy(lifted) >= ball_form.energy(u) - 1e-10


def test_full_box_constant_has_positive_image(box_form):
    # On a full box the constant interior vector still pays the ramp to
    # the zero boundary ring, entry by entry.
    image = box_form.apply(np.ones(box_form.size))
    assert image.min() > 0.0
    assert box_form.energy(np.ones(box_form.size)) > 0.0


def test_complement_potential_positive(ball_form, box_form):
    for form in (ball_form, box_form):
        kappa = form.complement_potential
        assert kappa.shape == (form.size,)
        assert np.all(kappa > 0.0)
        assert np.all(np.isfinite(kappa))


def test_full_energy_decomposition(ball_form):
    assert ball_form.full_energy(np.zeros(ball_form.size)) == 0.0
    m = ball_form.node_weights
    kappa = ball_form.complement_potential
    rng = np.random.default_rng(71)
    for _ in range(10):
        u = rng.standard_normal(ball_form.size)
        gap = ball_form.full_energy(u) - ball_form.energy(u)
        expect = 2.0 * float(np.sum(m * u * u * kappa))
        assert abs(gap - expect) <= 1e-12 * abs(ball_form.full_energy(u))


def test_norm_equivalence_bound(ball_form):
    # Comparison of the full-space and regional energies: the gap is
    # controlled through the complement-potential bound and the sharp
    # Hardy constant, giving full <= (1 + c(n,2s)/(s*C)) * regional.
    c = exit_scale_prefactor(2, 1.5)
    hardy = hardy_constant(2, 2.0, 0.75).value
    bound = 1.0 + c / (0.75 * hardy)
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.uniform(0.0, 1.0, ball_form.size)
        assert ball_form.full_energy(u) <= bound * ball_form.energy(u)


def test_assembly_deterministic(ball_form, table2):
    again = assemble(ball_form.mask, 0.75, table=table2)
    assert np.array_equal(again.matrix(), ball_form.matrix())
    assert np.array_equal(again.complement_potential,
                          ball_form.complement_potential)


def test_dump_files_roundtrip(ball_form, tmp_path):
    mpath = tmp_path / "form.bin"
    kpath = tmp_path / "kappa.bin"
    ball_form.dump_matrix(mpath)
    ball_form.dump_potential(kpath)
    raw = mpath.read_bytes()
    assert raw[:4] == b"RFRM"
    dim, = struct.unpack_from("<i", raw, 4)
    sigma, = struct.unpack_from("<d", raw, 8)
    count, = struct.unpack_from("<q", raw, 16)
    assert (dim, sigma, count) == (2, 0.75, ball_form.size)
    A = np.frombuffer(raw[24:], dtype="<f8").reshape(count, count)
    assert np.array_equal(A, ball_form.matrix())
    kraw = kpath.read_bytes()
    assert kraw[:4] == b"RFRM"
    kappa = np.frombuffer(kraw[24:], dtype="<f8")
    assert np.array_equal(kappa, ball_form.complement_potential)


def test_error_paths(table1, table2):
    grid = GridSpec(cells=(3,), spacing=1.0, origin=(0.0,))
    with pytest.raises(ValueError, match="empty domain"):
        DomainMask(grid, np.zeros(3, dtype=bool))
    lone = make_mask(grid, Box(lo=(1.0,), hi=(2.0,)))
    with pytest.raises(ValueError, match="no interior nodes"):
        assemble(lone, 0.25, table=table1)
    line = make_mask(grid, Box(lo=(0.0,), hi=(3.0,)))
    with pytest.raises(ValueError, match="near table does not match"):
        assemble(line, 0.25, table=table2)
    with pytest.raises(ValueError, match="near table does not match"):
        assemble(line, 0.75, table=table1)
    with pytest.raises(ValueError, match="sigma"):
        assemble(line, 1.25)
    form = assemble(line, 0.25, table=table1)
    with pytest.raises(ValueError, match="length"):
        form.apply(np.zeros(form.size + 1))


def test_three_dimensional_smoke():
    # the default 3-d grading depth meets the default convergence gate
    table = build_near_table(3, 0.5)
    assert table.error_estimate <= 1e-6
    assert table.hat_energy((1, 0, 0)) == table.hat_energy((0, 0, 1))
    grid = GridSpec(cells=(5, 5, 5), spacing=0.2, origin=(0.0, 0.0, 0.0))
    mask = make_mask(grid, Box(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)))
    form = assemble(mask, 0.5, table=table)
    assert form.size == 4 ** 3
    A = form.matrix()
    assert np.array_equal(A, A.T)
    assert np.linalg.eigvalsh(A).min() >= -1e-10 * np.abs(A).max()
    assert form.apply(np.ones(form.size)).min() > 0.0
    dilated = DomainMask(grid.scaled(2.0), mask.active)
    form_t = assemble(dilated, 0.5, table=table)
    u = np.random.default_rng(5).standard_normal(form.size)
    ratio = form_t.energy(u) / form.energy(u)
    assert abs(ratio - 2.0 ** 2.0) < 1e-12 * 4.0
