"""Tests for the assembled Gagliardo quadratic form.

The kernel-table oracles here are independent of the table builder: the
pinned hat energy is recomputed by nested adaptive quadrature, and the
tent-function energy is checked against brute-force quadrature of the
interpolant's double integral (itself validated against a closed form).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.integrate import quad

from regfrac import gagliardo as ga
from regfrac.gagliardo import NearFieldError, assemble, build_near_table
from regfrac.geometry import (Annulus, Ball, Box, DomainMask, GridSpec,
                              make_mask)
from regfrac.quadrature import tensor_rule
from regfrac.shapeopt import optimize_fixed_measure
from regfrac.special import (exit_scale_prefactor, hardy_constant,
                             tail_integral)
from regfrac.spectral import smallest_eigenpair


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
    assert abs(table1.hat_energies[(1,)] - direct) < 1e-6


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
    assert len(table2.hat_energies) == 8
    for off, val in table2.hat_energies.items():
        assert math.isfinite(val)
        assert val > 0.0, off


def test_offset_symmetry_exact(table2):
    g = table2.hat_energies
    assert g[(1, 0)] == g[(0, 1)] == g[(-1, 0)] == g[(0, -1)]
    orbit = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    vals = {g[off] for off in orbit}
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


def _basis_matrix(local, verts, cols, width):
    """Multilinear vertex basis at local coords in [0,1]^dim.

    Returns (..., width) with the vertex weights scattered into the
    patch-node columns ``cols``; other columns stay zero.
    """
    out = np.zeros(local.shape[:-1] + (width,))
    for e, col in zip(verts, cols):
        w = np.ones(local.shape[:-1])
        for k, ek in enumerate(e):
            xk = local[..., k]
            w = w * (xk if ek else 1.0 - xk)
        out[..., col] = w
    return out


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
        X = _basis_matrix(x, verts, cols0, width)
        Y = _basis_matrix(y - np.asarray(delta, float), verts, colsd,
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
    classes = {ga._canonical(o) for o in ga._offsets_within(dim, 1)}
    for delta in sorted(classes | {(0,) * dim}):
        ref_nodes, ref, _ = _pairwise_increments(dim, sigma, delta, 5, points)
        nodes, got = ga._level_increments(dim, sigma, delta, 5, points)
        assert nodes == ref_nodes
        assert len(got) == len(ref)
        for level, (g, r) in enumerate(zip(got, ref)):
            err = np.abs(g - r).max()
            assert err <= 1e-12 * np.abs(r).max(), (delta, level, err)


def test_level_sums_independent_of_blas_threads():
    # Reruns must be bitwise identical whatever the BLAS thread count;
    # at 3-d level 2 a single large BLAS reduction would not be.
    code = ("import sys; from regfrac import gagliardo as ga; "
            "_, inc = ga._level_increments(3, 0.75, (1, 1, 0), 2, 3); "
            "sys.stdout.write(b''.join(i.tobytes() for i in inc).hex())")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1] != ""


# ------------------------------------------- reference graded recursion
#
# The graded recursion with one Kronecker product per touching class and
# shift, a dict of classes, and full (m,P,P,dim) separation and (m,R,P,dim)
# position tensors: the bitwise reference for the per-level interpolation
# operators and the per-axis tensors of the table builder.


def _reference_quad_classes(offsets, corners, weights, size, delta, beta,
                            nodes, points):
    dim = corners.shape[1]
    width = len(nodes)
    node_col = {a: i for i, a in enumerate(nodes)}
    verts0 = ga._cell_vertices(dim)
    cols0 = [node_col[v] for v in verts0]
    colsd = [node_col[tuple(d + v for d, v in zip(delta, e))] for e in verts0]
    xi, wq = tensor_rule(dim, points)
    npts = len(xi)
    x = corners[:, None, :] + size * xi[None, :, :]
    X = _basis_matrix(x, verts0, cols0, width)
    Xt = np.swapaxes(X, 1, 2)
    chunk = max(1, 2_000_000 // (len(corners) * npts * max(npts, width)))
    Q = np.zeros((width, width))
    for start in range(0, len(offsets), chunk):
        off = offsets[start:start + chunk]
        w = weights[start:start + chunk]
        diff = size * (xi[None, :, None, :] - xi[None, None, :, :]
                       - off[:, None, None, :])
        ker = np.sum(diff * diff, axis=-1) ** (-beta / 2.0)
        K = ker * wq[None, :, None] * wq[None, None, :]
        y = x[None, :, :, :] + size * off[:, None, None, :]
        Y = _basis_matrix(y - np.asarray(delta, float), verts0, colsd, width)
        kx = np.einsum("mr,mi->ri", w, K.sum(axis=2))
        ky = w[:, :, None] * K.sum(axis=1)[:, None, :]
        KY = np.einsum("mr,mrib->rib", w, K[:, None] @ Y)
        Q += (Xt @ (X * kx[..., None])).sum(axis=0)
        Q += (np.swapaxes(Y, 2, 3) @ (Y * ky[..., None])).sum(axis=(0, 1))
        C = (Xt @ KY).sum(axis=0)
        Q -= C + C.T
    return Q * size ** (2 * dim)


def _reference_corner_nodes(size):
    return np.unique([0.0, 0.5 * (1.0 - size), 1.0 - size])


def _reference_lagrange(nodes, at):
    return np.array([np.prod([(at - nodes[s]) / (nodes[t] - nodes[s])
                              for s in range(3) if s != t], axis=0)
                     for t in range(3)])


def _reference_level_increments(dim, sigma, delta, depth, points):
    beta = dim + 2.0 * sigma
    nodes = ga._patch_nodes(dim, delta)
    size = 1.0
    classes = {tuple(delta): np.ones(1)}
    shifts = ga._cell_vertices(dim)
    increments = []
    for level in range(depth + 1):
        corners = _reference_corner_nodes(size)
        grid = np.array(list(itertools.product(corners, repeat=dim)))
        offsets = sorted(classes)
        sep = [o for o in offsets if level >= 2 and max(map(abs, o)) >= 2]
        if sep:
            increments.append(_reference_quad_classes(
                np.asarray(sep, float), grid,
                np.stack([classes[o] for o in sep]), size, delta, beta,
                nodes, points))
        else:
            increments.append(np.zeros((len(nodes), len(nodes))))
        touching = [o for o in offsets if o not in sep]
        if not touching:
            return nodes, increments, True
        if level == depth:
            break
        half = 0.5 * size
        per_axis = [_reference_lagrange(_reference_corner_nodes(half),
                                        corners + half * c)
                    for c in (0, 1)]
        children = {}
        for o in touching:
            for c in shifts:
                w = functools.reduce(np.kron, [per_axis[k] for k in c]) \
                    @ classes[o]
                for cp in shifts:
                    child = tuple(2 * ok + b - a for ok, a, b in zip(o, c, cp))
                    children[child] = children.get(child, 0.0) + w
        classes = children
        size = half
    return nodes, increments, False


def _reference_expansions(dim, sigma, depth):
    """Pair weights and hat energies by the table builder's per-entry
    loops, from the canonical forms of the adjacency classes of whatever
    recursion is in place; a hat sits at the vertices of least gap."""
    points = ga._DEFAULT_POINTS[dim]
    canon = {}
    for cls in sorted({ga._canonical(o) for o in ga._offsets_within(dim, 1)}
                      | {(0,) * dim}):
        nodes, Q, _ = ga._patch_form(dim, sigma, cls, depth, points)
        canon[cls] = (nodes, ga._symmetrize(cls, nodes, Q))
    pair_weights = {}
    for off in [(0,) * dim] + ga._offsets_within(dim, 1):
        nodes, Q = canon[ga._canonical(off)]
        node_map = ga._offset_transform(off)
        a_list, b_list, w_list = [], [], []
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                w = -Q[i, j]
                if w == 0.0:
                    continue
                a_list.append(node_map(nodes[i]))
                b_list.append(node_map(nodes[j]))
                w_list.append(w)
        pair_weights[off] = (np.asarray(a_list, dtype=np.int64),
                             np.asarray(b_list, dtype=np.int64),
                             np.asarray(w_list))
    hat_energies = {}
    for off in ga._offsets_within(dim, 1):
        cls = ga._canonical(off)
        nodes, Q = canon[cls]
        best = None
        contact = []
        for v in ga._cell_vertices(dim):
            d2 = sum(max(0, c - vk, vk - (c + 1)) ** 2
                     for c, vk in zip(cls, v))
            if best is None or d2 < best - 1e-12:
                best = d2
                contact = [v]
            elif abs(d2 - best) <= 1e-12:
                contact.append(v)
        idx = {a: i for i, a in enumerate(nodes)}
        hat_energies[off] = float(np.mean([Q[idx[v], idx[v]]
                                           for v in contact]))
    return pair_weights, hat_energies


@pytest.mark.parametrize("dim, sigma, depth", [
    (1, 0.25, 14), (1, 0.75, 14), (2, 0.25, 5), (2, 0.75, 5), (2, 0.25, 8),
    (2, 0.75, 8), (3, 0.5, 5)])
def test_level_increments_match_reference(dim, sigma, depth):
    # One interpolation operator per level, classes merged through
    # sorted offset keys, and per-axis separation and position tensors
    # do the same scalar operations in the same order as the reference:
    # every level increment is bitwise equal, for every canonical class.
    points = ga._DEFAULT_POINTS[dim]
    classes = {ga._canonical(o) for o in ga._offsets_within(dim, 1)}
    for delta in sorted(classes | {(0,) * dim}):
        ref_nodes, ref, _ = _reference_level_increments(dim, sigma, delta,
                                                        depth, points)
        nodes, got = ga._level_increments(dim, sigma, delta, depth, points)
        assert nodes == ref_nodes
        assert len(got) == len(ref)
        for level, (g, r) in enumerate(zip(got, ref)):
            assert np.array_equal(g, r), (delta, level)


@pytest.mark.parametrize("dim, depth", [(1, 5), (2, 5), (3, 4)])
def test_adjacency_classes_first_integrate_at_level_two(dim, depth):
    # _patch_form fits its tail from level 2 on: for touching cells the
    # two forced subdivisions leave levels 0 and 1 exactly zero, level 2
    # integrates the first separated box pairs, and touching box pairs
    # keep the recursion going to the full depth
    points = ga._DEFAULT_POINTS[dim]
    for off in ga._offsets_within(dim, 1) + [(0,) * dim]:
        _, inc = ga._level_increments(dim, 0.75, off, depth, points)
        assert len(inc) == depth + 1, off
        assert not inc[0].any() and not inc[1].any(), off
        assert inc[2].any(), off


def _fresh_table(monkeypatch, dim, sigma, depth, tol):
    monkeypatch.setattr(ga, "_TABLE_CACHE", {})
    return build_near_table(dim, sigma, depth=depth, convergence_tol=tol)


@pytest.mark.parametrize("depth, tol", [(5, 2e-2), (None, 1e-6)])
def test_table_matches_reference_build(depth, tol, monkeypatch):
    # The whole 2-d table, at the benchmark's depth and at the default
    # one, is bitwise equal to the one built on the reference recursion,
    # and its pair weights and hat energies equal the per-entry loops.
    table = _fresh_table(monkeypatch, 2, 0.75, depth, tol)
    monkeypatch.setattr(ga, "_level_increments",
                        lambda *args: _reference_level_increments(*args)[:2])
    ref = _fresh_table(monkeypatch, 2, 0.75, depth, tol)
    pair_weights, hat_energies = _reference_expansions(2, 0.75, ref.depth)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(table.weights, name),
                              getattr(ref.weights, name))
    assert np.array_equal(table.node_offsets, ref.node_offsets)
    assert np.array_equal(table.cell_pairs, ref.cell_pairs)
    assert table.hat_energies == ref.hat_energies == hat_energies
    assert table.error_estimate == ref.error_estimate
    for got in (table.pair_weights, ref.pair_weights):
        assert list(got) == list(pair_weights)
        for off, arrays in pair_weights.items():
            for g, r in zip(got[off], arrays):
                assert g.dtype == r.dtype and np.array_equal(g, r), off


def test_cold_builds_repeat_the_same_work(monkeypatch):
    # The benchmark's set-up empties the table cache before each timed
    # build; two cold builds must then run the same quadrature and gap
    # geometry, so no other cache can shorten a build it times.
    calls = dict.fromkeys(("_quad_classes", "_level_increments",
                           "_gap_geometry"), 0)
    for name in calls:
        def counted(*args, _real=getattr(ga, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(ga, name, counted)
    monkeypatch.setattr(ga, "_TABLE_CACHE", {})
    tables, counts = [], []
    for _ in range(2):
        ga._TABLE_CACHE.clear()
        before = dict(calls)
        tables.append(build_near_table(2, 0.75, depth=5,
                                       convergence_tol=2e-2))
        counts.append({k: calls[k] - before[k] for k in calls})
    assert tables[0] is not tables[1]
    assert counts[0] == counts[1]
    assert min(counts[0].values()) > 0


@pytest.mark.parametrize("dim, depth, tol, classes", [
    (1, None, 1e-6, [(0,), (1,)]),
    (2, 5, 2e-2, [(0, 0), (1, 0), (1, 1)]),
    (3, 4, 1.0, [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)])])
def test_cold_build_integrates_adjacency_classes_only(dim, depth, tol,
                                                      classes, monkeypatch):
    # only touching cell pairs carry the kernel's singularity, so a cold
    # build runs the graded quadrature once per canonical adjacency
    # class (the same cell, then faces, edges and corners): 2 / 3 / 4
    # calls in 1 / 2 / 3-d, and hat energies at Chebyshev offset one
    calls = []

    def counted(*args, _real=ga._patch_form):
        calls.append(args[2])
        return _real(*args)

    monkeypatch.setattr(ga, "_patch_form", counted)
    table = _fresh_table(monkeypatch, dim, 0.75, depth, tol)
    assert calls == classes
    assert len(table.hat_energies) == 3 ** dim - 1
    assert all(max(map(abs, off)) == 1 for off in table.hat_energies)


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


def test_complement_potential_matches_reference_loop_on_fine_ball():
    # On a 64^2 ball at sigma 0.9 the refined values within 2h dwarf the
    # rest of the one complement kernel, so its FFT rounding is largest
    # here: 6.5e-14 relative with the node's own cells zeroed, 5.7e-12
    # with their values kept, although those cells are always active.
    grid = GridSpec(cells=(64, 64), spacing=2.0 / 64, origin=(-1.0, -1.0))
    mask = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.8))
    form = assemble(mask, 0.9, table=build_near_table(2, 0.9))
    kappa = _complement_reference(mask, 0.9)
    err = np.abs(form.complement_potential - kappa) / kappa
    assert err.max() <= 1e-12, err.max()


def _per_call_assembly(mask, sigma, table):
    """Matrix, node and boundary masses and complement potential, with
    every kernel, spectrum and gather offset built for this one call, as
    assembly did before the per-grid plan: the bitwise reference for the
    plan."""
    grid = mask.grid
    dim = grid.dim
    h = grid.spacing
    beta = dim + 2.0 * sigma
    axes = tuple(range(dim))

    def convolve(kernel, field):
        shape = tuple(next_fast_len(n, real=True) for n in kernel.shape)
        spectrum = (np.fft.rfftn(kernel, s=shape, axes=axes)
                    * np.fft.rfftn(field, s=shape, axes=axes))
        return np.fft.irfftn(spectrum, s=shape, axes=axes)

    padded = np.pad(mask.active, 1, constant_values=False)
    counts = np.zeros(grid.node_shape, dtype=np.int64)
    for offset in np.ndindex(*([2] * dim)):
        counts += padded[tuple(slice(o, o + n) for o, n
                               in zip(offset, grid.node_shape))]
    masses = counts * (h ** dim / 2 ** dim)
    idx = mask.interior_idx
    interior_m = masses[tuple(idx.T)]
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

    # the complement kernel: midpoint values beyond 2h, 4x refined ones
    # within 2h, zero on the node's own cells
    cells = np.asarray(grid.cells)
    r = ga._offset_grid(1 - cells, cells) - 0.5
    r2 = np.sum(r * r, axis=-1)
    comp = h ** dim * (h * h * r2) ** (-beta / 2.0)
    near = r2 <= 4.0
    steps = (np.arange(4) - 1.5) / 4.0
    sub = ga._offset_grid([0] * dim, [3] * dim).reshape(-1, dim)
    diff = h * (r[near][:, None, :] - steps[sub][None, :, :])
    comp[near] = (h / 4.0) ** dim * np.sum(
        np.sum(diff * diff, axis=-1) ** (-beta / 2.0), axis=1)
    comp[np.abs(r).max(axis=-1) == 0.5] = 0.0
    kappa = convolve(comp, (~mask.active).astype(float))[
        tuple((idx + cells - 1).T)]
    nodes = mask.interior_coords
    wall = np.maximum(np.minimum(nodes - np.asarray(grid.origin),
                                 np.asarray(grid.high_corner) - nodes
                                 ).min(axis=1), 0.5 * h)
    kappa += tail_integral(dim, sigma, 1.0) * wall ** (-2.0 * sigma)
    return A, interior_m, kappa


def _assert_bitwise(form, reference):
    A, interior_m, kappa = reference
    assert np.array_equal(form.matrix(), A)
    assert np.array_equal(np.full(form.size, form.mass), interior_m)
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
    # Building the kernels, spectra, tail term and gather offsets once
    # per grid computes the same expressions in the same order as
    # building them per call: every output is bitwise equal, on the
    # first assembly on a grid and on reuse of its plan.
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
    assert list(fresh._plans) == [grid]
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
    assert set(fresh._plans) == set(grids)
    plans = list(fresh._plans.values())
    assert len({id(plan) for plan in plans}) == 3
    assert not np.array_equal(plans[0].tail, plans[2].tail)


def test_one_plan_for_sigmas_the_table_accepts(table2):
    # assemble accepts a sigma within 1e-12 of the table's; the plan and
    # the form take the table's, so such a sigma reuses the grid's plan
    # and gives the form bit for bit, with its far part and complement
    # potential at the same sigma as its near part
    fresh = dataclasses.replace(table2)
    grid = GridSpec(cells=(16, 16), spacing=1 / 8, origin=(-1.0, -1.0))
    mask = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.9))
    forms = [assemble(mask, sigma, table=fresh)
             for sigma in (0.75, 0.75 + 5e-13)]
    assert list(fresh._plans) == [grid]
    assert [form.sigma for form in forms] == [fresh.sigma] * 2
    _assert_bitwise(forms[1], (forms[0].matrix(),
                               np.full(forms[0].size, forms[0].mass),
                               forms[0].complement_potential))


@pytest.mark.parametrize("case", ["1d", "2d", "3d"])
def test_assembly_independent_of_row_blocks(case, table1, table2,
                                            monkeypatch):
    # each matrix entry gets one far value and at most one near add in
    # its row block, so blocks of two rows give the one-block matrix
    mask = _random_mask(case)
    sigma, table = {1: (0.25, table1), 2: (0.75, table2),
                    3: (0.5, build_near_table(3, 0.5))}[mask.grid.dim]
    whole = assemble(mask, sigma, table=table).matrix()
    monkeypatch.setattr(ga, "_BLOCK_ENTRIES", 2 ** 10)
    blocked = assemble(mask, sigma, table=table).matrix()
    assert blocked.tobytes() == whole.tobytes()


def _all_offset_assembly(mask, sigma, table):
    """Matrix by the near and gap loop of earlier versions, which reads
    every node offset of the table and adds each entry in its own row,
    on the far block and far diagonal of the grid's plan: the bitwise
    reference for the half-table and its mirrored add."""
    grid = mask.grid
    plan = ga._grid_plan(table, grid)
    masses = ga._node_masses(mask)
    idx = mask.interior_idx
    interior_m = masses[tuple(idx.T)]
    n_int = len(idx)
    node_shape = np.asarray(grid.node_shape)
    reach = ga._REACH
    k_off = idx @ plan.k_strides
    k_center = (node_shape - 1) @ plan.k_strides
    active = np.pad(mask.active, reach).ravel()
    labels = np.full(tuple(node_shape + 2 * reach), n_int, dtype=np.int64)
    labels[tuple((idx + reach).T)] = np.arange(n_int)
    labels = labels.ravel()
    cell_base = (idx + reach) @ plan.a_strides
    node_base = (idx + reach) @ plan.l_strides
    first = (table.cell_pairs[:, 0] @ plan.a_strides)[:, None] + cell_base
    second = (table.cell_pairs[:, 1] @ plan.a_strides)[:, None] + cell_base
    weights = table.weights * grid.spacing ** (grid.dim - 2.0 * sigma)
    coef = weights @ (active[first] & active[second])
    col = labels[(table.node_offsets @ plan.l_strides)[:, None] + node_base]
    A = np.take(plan.far_weights, k_off[None, :] + k_center - k_off[:, None],
                mode="clip")
    keep = col < n_int
    A.reshape(-1)[(col + np.arange(n_int) * n_int)[keep]] += coef[keep]
    far_sums = ga._convolve(plan.far_spectrum, plan.far_shape, masses)[
        tuple((idx + node_shape - 1).T)]
    A[np.arange(n_int), np.arange(n_int)] += 2.0 * interior_m * far_sums
    return A


@pytest.mark.parametrize("case", ["1d", "ball-1d", "2d", "3d", "non-square",
                                  "full-box"])
def test_half_table_matches_all_offset_loop(case, table1, table2,
                                            monkeypatch):
    # The coefficient of offset -e at node i + e is bitwise that of e at
    # node i, so the half-table with its mirrored add gives the matrix of
    # the all-offset loop bit for bit, in one row block and in blocks of
    # three rows, where a mirrored add lands in an earlier block.  The
    # cases have holes or full rows on the grid edge.
    mask = _plan_case_mask(case)
    sigma, table = {1: (0.25, table1), 2: (0.75, table2),
                    3: (0.5, build_near_table(3, 0.5))}[mask.grid.dim]
    reference = _all_offset_assembly(mask, sigma, table).view(np.int64)
    plan = ga._grid_plan(table, mask.grid)
    kappa = ga._complement_potential(mask, plan)
    n_int = len(reference)
    assert n_int > 3
    for entries in (n_int * len(table.cell_pairs),
                    3 * max(n_int, len(plan.first))):
        monkeypatch.setattr(ga, "_BLOCK_ENTRIES", entries)
        form = assemble(mask, sigma, table=table)
        assert np.array_equal(form.matrix().view(np.int64), reference)
        assert np.array_equal(form.complement_potential, kappa)


@pytest.mark.parametrize("case", ["1d", "2d", "3d", "box-48"])
def test_fast_fft_lengths_change_only_rounding(case, table1, table2,
                                               monkeypatch):
    # The far and complement kernels are zero-padded to fast FFT
    # lengths.  No output reads a wrapped index, so against the unpadded
    # lengths the far diagonal and kappa move by rounding alone and every
    # other entry is bitwise the same.  The 48-cell grid pads 97 to 100.
    if case == "box-48":
        grid = GridSpec(cells=(48, 48), spacing=2.0 / 48, origin=(-1.0, -1.0))
        mask = make_mask(grid, Box(lo=(-0.7, -0.7), hi=(0.7, 0.7)))
    else:
        mask = _random_mask(case)
    sigma, table = {1: (0.25, table1), 2: (0.75, table2),
                    3: (0.5, build_near_table(3, 0.5))}[mask.grid.dim]
    forms, plans = [], []
    for fast in (True, False):
        if not fast:
            monkeypatch.setattr(ga, "next_fast_len", lambda n, real: n)
        fresh = dataclasses.replace(table)
        forms.append(assemble(mask, sigma, table=fresh))
        plans.append(fresh._plans[mask.grid])
    assert plans[0].far_shape != plans[1].far_shape
    assert plans[1].far_shape == tuple(2 * n - 1 for n in mask.grid.node_shape)
    padded, plain = (form.matrix() for form in forms)
    off = ~np.eye(len(plain), dtype=bool)
    assert np.array_equal(padded[off], plain[off])
    for got, want in ((np.diag(padded), np.diag(plain)),
                      (forms[0].complement_potential,
                       forms[1].complement_potential)):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_complement_potential_built_on_first_read(table2, monkeypatch):
    # Forms that only feed the eigensolver or the descent never build
    # kappa; reading it through zero_order, full_energy or the attribute
    # builds it once per form, read-only, and returns the same bits.
    calls = []

    def counted(mask, plan):
        calls.append(mask)
        return real(mask, plan)

    real = ga._complement_potential
    monkeypatch.setattr(ga, "_complement_potential", counted)
    grid = GridSpec(cells=(12, 12), spacing=2.0 / 12, origin=(-1.0, -1.0))
    mask = make_mask(grid, Ball(center=(0.0, 0.0), radius=0.8))
    form = assemble(mask, 0.75, table=table2)
    smallest_eigenpair(form, seed=0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*negativity.*")
        optimize_fixed_measure(mask, 0.75, max_iter=2, seed=0)
    assert calls == []
    u = np.random.default_rng(41).standard_normal(form.size)
    zero = form.zero_order(u)
    assert len(calls) == 1
    kappa = form.complement_potential
    assert form.full_energy(u) == form.energy(u) + zero
    assert form.zero_order(u) == zero
    assert form.complement_potential is kappa and len(calls) == 1
    with pytest.raises(ValueError, match="read-only"):
        kappa[0] = 0.0
    again = assemble(mask, 0.75, table=table2)
    assert again.complement_potential.tobytes() == kappa.tobytes()
    assert len(calls) == 2


def test_assembly_peak_memory(table2):
    # the row blocks keep assembly's temporaries to a few MB beside the
    # 9 MB matrix of a 48^2 box (N = 1089); blocks of 2^20 entries took
    # 8 MB for the far-gather index alone
    grid = GridSpec(cells=(48, 48), spacing=2.0 / 48, origin=(-1.0, -1.0))
    mask = make_mask(grid, Box(lo=(-0.7, -0.7), hi=(0.7, 0.7)))
    size = assemble(mask, 0.75, table=table2).matrix().nbytes  # the plan
    tracemalloc.start()
    try:
        assemble(mask, 0.75, table=table2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size + 4 * 2 ** 20


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
    # t^(n - 2*sigma) and the lumped mass by t^n.
    mask = ball_form.mask
    t = 2.0
    dilated = DomainMask(mask.grid.scaled(t), mask.active)
    form_t = assemble(dilated, 0.75, table=table2)
    factor = t ** (2.0 - 1.5)
    assert np.allclose(form_t.matrix(), factor * ball_form.matrix(),
                       rtol=1e-13, atol=0.0)
    assert form_t.mass == 4.0 * ball_form.mass


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
    m = ball_form.mass
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


def _reference_dump(form):
    """The dump's bytes as built by joining full copies of the header
    fields and of the matrix."""
    return (b"RFRM" + struct.pack("<i", form.mask.grid.dim)
            + struct.pack("<d", form.sigma) + struct.pack("<q", form.size)
            + form.matrix().astype("<f8").tobytes(order="C"))


def test_dump_files_roundtrip(ball_form, tmp_path):
    mpath = tmp_path / "form.bin"
    ball_form.dump_matrix(mpath)
    raw = mpath.read_bytes()
    assert raw[:4] == b"RFRM"
    dim, = struct.unpack_from("<i", raw, 4)
    sigma, = struct.unpack_from("<d", raw, 8)
    count, = struct.unpack_from("<q", raw, 16)
    assert (dim, sigma, count) == (2, 0.75, ball_form.size)
    A = np.frombuffer(raw[24:], dtype="<f8").reshape(count, count)
    assert np.array_equal(A, ball_form.matrix())
    assert raw == _reference_dump(ball_form)


def test_matrix_dump_copies_nothing(table2, tmp_path):
    # the matrix of a 48^2 box (N = 1089, 9 MB) is written from its own
    # memory; the two copies the reference makes took 18 MB
    grid = GridSpec(cells=(48, 48), spacing=2.0 / 48, origin=(-1.0, -1.0))
    form = assemble(make_mask(grid, Box(lo=(-0.7, -0.7), hi=(0.7, 0.7))),
                    0.75, table=table2)
    path = tmp_path / "box48.rfrm"
    tracemalloc.start()
    try:
        form.dump_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < form.matrix().nbytes / 8
    assert path.read_bytes() == _reference_dump(form)


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
    assert table.hat_energies[(1, 0, 0)] == table.hat_energies[(0, 0, 1)]
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
