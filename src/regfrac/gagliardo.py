"""Assembly of the regional double-integral energy on grid domains.

The energy of a node vector u is the double integral over the domain
pair (x, y) of k(x-y) (u(x)-u(y))^2 with kernel k(z) = |z|^(-n-2*sigma),
u extended multilinearly over active cells and pinned to zero on the
boundary ring.  The integral splits exactly into three regions:

* **near**: ordered pairs of active cells within Chebyshev cell-offset
  one.  Each such cell-pair integral is evaluated once on the reference
  patch by recursively subdivided tensor quadrature graded toward the
  contact set, then expanded exactly into nodal pair interactions
  (the expansion of a patch form vanishing on constants into
  single-edge squares is unique, so nothing is lost here);
* **gap**: point pairs in non-adjacent cells whose dual (nearest-node)
  pair is within Chebyshev node-offset two.  These blocks are covered
  quadrant-by-quadrant with midpoint kernel evaluation and the actual
  interpolated values at the quadrant midpoints, which keeps the
  attribution consistent with the true separations;
* **far**: dual pairs at node offset three and beyond, with the
  midpoint rule m_i m_j k(x_i - x_j) per ordered pair.

The near and gap data depend only on where the two cells they couple
sit relative to a node, so the kernel table regroups them by node
offset: the entry between a node and its neighbour at offset e is a
fixed weighted sum, over pairs of cells near the node, of the products
of their activity flags (81 node offsets and 376 cell pairs in 2-d).
The far weights depend only on the node-index offset.  Assembly is
therefore a few lattice operations and loops over no stencil, node pair
or cell: gathers of activity flags and labels with one sparse product
over the half of the table with offsets <= 0, mirrored, for the near
and gap parts, a gather from one kernel array for the far block, and
FFT convolutions for the far diagonal and the complement potential.
Whatever depends only on the grid and sigma (the kernels over node and
cell offsets and their spectra, the refined complement stencil, the
tail term per node, the half-table's gather offsets and its scaling to
the spacing) is built once per grid into a plan kept in the table; each
mask then pays only for its gathers, the sparse product and the FFT of
its mass field, and for the FFT of its inactive-cell field when its
complement potential is first read.

All three pieces are sums of squares, so the assembled form is
symmetric positive semidefinite by construction, scales exactly as
h^(n-2*sigma) under grid dilation, and is monotone under domain
inclusion.  The complement potential (the kernel integral over the
complement of the domain, per node) is assembled separately so that
the full-space energy is the regional energy plus its zero-order term.
"""
from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len
from scipy.sparse import csr_matrix

from .geometry import DomainMask, GridSpec
from .quadrature import gauss_legendre, tensor_rule
from .special import tail_integral

__all__ = [
    "NearTable", "build_near_table", "NearFieldError",
    "RegionalForm", "assemble",
]


class NearFieldError(RuntimeError):
    """Raised when the near-field quadrature does not stabilize."""


_DEFAULT_DEPTH = {1: 14, 2: 8, 3: 10}
_DEFAULT_POINTS = {1: 10, 2: 4, 3: 3}


# --------------------------------------------------------------- patches


def _cell_vertices(dim: int) -> list[tuple[int, ...]]:
    return [tuple(v) for v in itertools.product((0, 1), repeat=dim)]


def _patch_nodes(dim: int, delta: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sorted vertex set of the cell pair (0, delta), as node offsets."""
    verts = set(_cell_vertices(dim))
    verts |= {tuple(d + v for d, v in zip(delta, e)) for e in _cell_vertices(dim)}
    return sorted(verts)


def _on_axis(a: np.ndarray, k: int, dim: int) -> np.ndarray:
    """A per-axis array (m, s, t) as axis k of the tensor layout
    (m, s_0, ..., s_{dim-1}, t_0, ..., t_{dim-1})."""
    return a.reshape(a.shape[:1] + (1,) * k + a.shape[1:2] + (1,) * (dim - 1)
                     + a.shape[2:] + (1,) * (dim - 1 - k))


def _basis_columns(coords: list[np.ndarray], cols: list[int],
                   width: int) -> np.ndarray:
    """Multilinear vertex basis (m, s^dim, t^dim, width) from coordinates
    coords[k] (m, s, t) along axis k at its box corners s and points t:
    vertex e's weight, the product in axis order of y_k or 1 - y_k, goes
    in column cols[e]; other columns stay zero."""
    dim = len(coords)
    m, s, t = coords[0].shape
    out = np.zeros((m, s ** dim, t ** dim, width))
    for e, col in zip(_cell_vertices(dim), cols):
        w = 1.0
        for k, (ek, y) in enumerate(zip(e, coords)):
            w = w * _on_axis(y if ek else 1.0 - y, k, dim)
        out[..., col] = w.reshape(m, s ** dim, t ** dim)
    return out


def _quad_classes(offsets: np.ndarray, corners: np.ndarray,
                  weights: np.ndarray, size: float, delta: tuple[int, ...],
                  beta: float, nodes: list[tuple[int, ...]],
                  points: int) -> np.ndarray:
    """Tensor-Gauss integral of k (b_a(x)-b_a(y))(b_b(x)-b_b(y)) over
    weighted separated box pairs, accumulated into a patch matrix.

    Pair (c, r) has its x box at tensor corner r of the per-axis nodes
    ``corners`` in cell 0, its y box at r + size * offsets[c] and weight
    ``weights[c, r]``; the kernel block depends only on the offset, so it
    is evaluated once per class c.  Separations and box positions are
    built per axis: squared distances add the axis squares in axis order.
    """
    dim = offsets.shape[1]
    width = len(nodes)
    node_col = {a: i for i, a in enumerate(nodes)}
    verts0 = _cell_vertices(dim)
    cols0 = [node_col[v] for v in verts0]
    colsd = [node_col[tuple(d + v for d, v in zip(delta, e))] for e in verts0]
    xi, wq = gauss_legendre(points)[0], tensor_rule(dim, points)[1]
    npts = points ** dim
    x = corners[:, None] + size * xi[None, :]                # (s,t)
    X = _basis_columns([x[None]] * dim, cols0, width)[0]     # (R,P,W)
    Xt = np.swapaxes(X, 1, 2)
    dxi = xi[:, None] - xi[None, :]
    chunk = max(1, 2_000_000 // (len(X) * npts * max(npts, width)))
    Q = np.zeros((width, width))
    # sums over classes and corners are numpy reductions and BLAS only
    # sees per-pair products far below its threading threshold, so the
    # result does not depend on the BLAS thread count
    for start in range(0, len(offsets), chunk):
        off = offsets[start:start + chunk]                  # (m,dim)
        w = weights[start:start + chunk]                    # (m,R)
        r2 = 0.0
        for k in range(dim):
            diff = size * (dxi - off[:, k, None, None])
            r2 = r2 + _on_axis(diff * diff, k, dim)
        ker = r2.reshape(len(off), npts, npts) ** (-beta / 2.0)
        K = ker * wq[None, :, None] * wq[None, None, :]      # (m,P,P)
        Y = _basis_columns([x + size * off[:, k, None, None] - delta[k]
                            for k in range(dim)], colsd, width)
        kx = np.einsum("mr,mi->ri", w, K.sum(axis=2))       # (R,P)
        ky = w[:, :, None] * K.sum(axis=1)[:, None, :]      # (m,R,P)
        KY = np.einsum("mr,mrib->rib", w, K[:, None] @ Y)   # (R,P,W)
        Q += (Xt @ (X * kx[..., None])).sum(axis=0)
        Q += (np.swapaxes(Y, 2, 3) @ (Y * ky[..., None])).sum(axis=(0, 1))
        C = (Xt @ KY).sum(axis=0)
        Q -= C + C.T
    return Q * size ** (2 * dim)


def _corner_nodes(size: float) -> np.ndarray:
    """Per-axis interpolation nodes for the low corner of a sub-box of
    the unit cell, which ranges over [0, 1-size] (one node at size 1)."""
    return np.array(sorted({0.0, 0.5 * (1.0 - size), 1.0 - size}))


def _lagrange(nodes: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Quadratic Lagrange basis on three nodes at points: (3, len(at))."""
    others = np.array([[1, 2], [0, 2], [0, 1]])[:, :, None]
    f = (at - nodes[others]) / (nodes[:, None, None] - nodes[others])
    return f[:, 0] * f[:, 1]


def _level_increments(dim: int, sigma: float, delta: tuple[int, ...],
                      depth: int, points: int
                      ) -> tuple[list[tuple[int, ...]], list[np.ndarray], bool]:
    """Per-level separated contributions of the graded cell-pair recursion.

    Level L splits both cells of (cell 0, cell delta) into boxes of size
    2^-L; box pairs at Chebyshev offset >= 2 in box units are integrated,
    touching ones are split again.  Separation and kernel depend only on
    the integer offset o = (loy - lox)/size, and each integrand term is a
    polynomial of degree <= 2 per axis in the box corner lox.  So a class
    o keeps, in place of its pairs, the summed tensor Lagrange weights of
    their lox on the corner nodes, which reproduces the pair sum exactly.
    Child pair (lox + size/2 c, loy + size/2 c') lands in class
    2o + c' - c with weights T_c w, the 2^dim matrices T_c built once per
    level.  Returns (patch nodes, increments, complete), complete when no
    touching pair is left.
    """
    beta = dim + 2.0 * sigma
    nodes = _patch_nodes(dim, delta)
    size = 1.0
    corners = _corner_nodes(size)
    offsets = np.array([delta])
    weights = np.ones((1, 1))
    shifts = np.array(_cell_vertices(dim))
    increments: list[np.ndarray] = []
    for level in range(depth + 1):
        # two forced subdivision levels give every accepted box pair a
        # separation-to-size ratio of at least one at a refined scale
        sep = (np.abs(offsets).max(axis=1) >= 2) & (level >= 2)
        if sep.any():
            increments.append(_quad_classes(
                offsets[sep].astype(float), corners, weights[sep], size,
                delta, beta, nodes, points))
        else:
            increments.append(np.zeros((len(nodes), len(nodes))))
        if sep.all():
            return nodes, increments, True
        if level == depth:
            break
        half = 0.5 * size
        finer = _corner_nodes(half)
        # per_axis[c, t', t]: weight on child corner node t' of parent
        # corner node t moved by half * c; T_c = kron of per_axis[c_k]
        per_axis = _lagrange(finer, np.concatenate(
            [corners, corners + half])).reshape(3, 2, -1).transpose(1, 0, 2)
        transfer = np.ones((1, 1, 1))
        for _ in range(dim):
            transfer = (transfer[:, None, :, None, :, None]
                        * per_axis[None, :, None, :, None, :]).reshape(
                2 * len(transfer), 3 * transfer.shape[1], -1)
        moved = np.array([[t @ w for t in transfer] for w in weights[~sep]])
        child = (2 * offsets[~sep, None, None] - shifts[:, None]
                 + shifts).reshape(-1, dim)
        _, first, inverse = np.unique(_offset_keys(child, np.abs(child).max()),
                                      return_index=True, return_inverse=True)
        offsets = child[first]
        weights = np.zeros((len(offsets), moved.shape[2]))
        # equal children are summed in (o, c, c') order
        np.add.at(weights, inverse, np.repeat(moved, len(shifts), axis=1)
                  .reshape(-1, moved.shape[2]))
        corners, size = finer, half
    return nodes, increments, False


def _fit_families(increments: list[np.ndarray], sigma: float, end: int,
                  k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Fit k geometric families on levels end-k+1..end.

    Per-level separated increments follow sum_j c_j r_j^level with the
    known ratios r_j = 2^-(2-2*sigma+j): the grading is dyadic and the
    interpolant is polynomial inside every subdivided box, so the level
    content has a clean expansion in powers of the box size.  Returns
    (coefficients (k, width^2), ratios (k,)) or None if degenerate.
    """
    while k > 0:
        levels = np.arange(end - k + 1, end + 1)
        ratios = np.array([2.0 ** -(2.0 - 2.0 * sigma + j) for j in range(k)])
        V = ratios[None, :] ** levels[:, None]
        rhs = np.stack([increments[lv].ravel() for lv in levels])
        try:
            return np.linalg.solve(V, rhs), ratios
        except np.linalg.LinAlgError:
            k -= 1
    return None


def _clamp_psd(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.T)
    vals, vecs = np.linalg.eigh(m)
    vals = np.maximum(vals, 0.0)
    return (vecs * vals) @ vecs.T


def _patch_form(dim: int, sigma: float, delta: tuple[int, ...], depth: int,
                points: int) -> tuple[list[tuple[int, ...]], np.ndarray, float]:
    """Graded quadrature of the cell-pair form on (cell 0, cell delta).

    Returns (patch nodes, form matrix, relative change between the
    extrapolants at depth and depth-1 — the convergence indicator).
    """
    nodes, increments, complete = _level_increments(dim, sigma, delta,
                                                    depth, points)
    partial = np.add.reduce(increments)
    width = len(nodes)
    nz = [i for i, inc in enumerate(increments) if np.any(inc != 0.0)]
    if complete or not nz:
        return nodes, 0.5 * (partial + partial.T), 0.0
    first_nz = min(nz)
    last = len(increments) - 1
    # geometric tail beyond the max depth, fit on the last clean levels
    k_tail = max(1, min(4, last - first_nz))
    fit = _fit_families(increments, sigma, last, k_tail)
    if fit is not None:
        coef, ratios = fit
        tail = ((ratios ** (last + 1) / (1.0 - ratios))[:, None]
                * coef).sum(axis=0).reshape(width, width)
        est = partial + _clamp_psd(tail)
    else:
        est = partial
    denom = max(float(np.linalg.norm(est)), 1e-300)
    # convergence indicator: the families fitted on the levels before
    # the last must predict the last measured increment
    k_pred = min(4, last - 1 - first_nz)
    if k_pred < 1:
        change = 1.0
    else:
        fit_p = _fit_families(increments, sigma, last - 1, k_pred)
        if fit_p is None:
            change = 1.0
        else:
            coef_p, ratios_p = fit_p
            pred = ((ratios_p ** last)[:, None]
                    * coef_p).sum(axis=0).reshape(width, width)
            change = float(np.linalg.norm(pred - increments[last])) / denom
    return nodes, 0.5 * (est + est.T), change


# ------------------------------------------------- offset symmetry group


def _canonical(delta: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted((abs(d) for d in delta), reverse=True))


def _offset_transform(delta: tuple[int, ...]):
    """Map from canonical-class node offsets to this offset's patch.

    The canonicalization reflects negative axes about the base cell's
    center (node coordinate a -> 1-a) and sorts axes by |delta|
    descending; the returned function inverts that relabeling.
    """
    signs = [1 if d >= 0 else -1 for d in delta]
    order = sorted(range(len(delta)), key=lambda k: (-abs(delta[k]), k))

    def node_map(a: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * len(delta)
        for j, axis in enumerate(order):
            v = a[j]
            out[axis] = v if signs[axis] == 1 else 1 - v
        return tuple(out)

    return node_map


def _symmetrize(delta: tuple[int, ...], nodes: list[tuple[int, ...]],
                Q: np.ndarray) -> np.ndarray:
    """Average the cell-pair form over the axis reflections and
    permutations that map the pair (cell 0, cell delta) to itself.

    These fix the pair's centre c = (delta + 1) / 2 and map delta to
    +-delta.  Each entry is one ``math.fsum`` over the group, so the
    entries of an orbit get the same correctly rounded value and the
    form is exactly invariant.
    """
    # node coordinates doubled about c stay integral
    pts = [tuple(2 * v - d - 1 for v, d in zip(node, delta)) for node in nodes]
    index = {p: i for i, p in enumerate(pts)}
    images = []
    for perm in itertools.permutations(range(len(delta))):
        for signs in itertools.product((1, -1), repeat=len(delta)):
            def move(x):
                return tuple(s * x[k] for s, k in zip(signs, perm))

            if move(delta) in (delta, tuple(-d for d in delta)):
                images.append([index[move(p)] for p in pts])
    stack = np.stack([Q[np.ix_(g, g)] for g in images]).reshape(len(images), -1)
    sums = [math.fsum(col) for col in stack.T.tolist()]
    return np.reshape(sums, Q.shape) / len(images)


def _offsets_within(dim: int, radius: int) -> list[tuple[int, ...]]:
    return [off for off in itertools.product(range(-radius, radius + 1), repeat=dim)
            if any(off)]


# ------------------------------------------- gap geometry and regrouping


def _gap_geometry(dim: int):
    """Static gap layout for one dimension (sigma-independent).

    A gap class (node offset delta, quadrant q of the first node,
    quadrant q' of the second) is the block between the two quadrant
    cells, which sit at cell offset D = delta + q' - q.  It participates
    exactly when D has Chebyshev norm >= 2, which is also what keeps it
    out of the exact near region.  Relative to the low vertex of the
    first quadrant cell, the quadrant midpoints interpolate the vertices
    v of cell 0 and D + v of cell D, with per-axis weights 3/4 toward
    the quadrant's node, so the class form is the outer product g g^T
    of g = (weights of q, -weights of q').

    Returns (node offsets o1 and o2 and cell offset D per slot, squared
    midpoint distance per class, coefficients (classes, W^2), slots
    (classes, W^2)).  Slot s * W^2 + e holds entry e of the s-th cell
    offset in sorted order, so weighting the classes by sigma is one
    multiply and one bincount.
    """
    verts = np.asarray(_cell_vertices(dim))
    delta, q, qp = (a.reshape(-1, dim) for a in np.broadcast_arrays(
        np.asarray(_offsets_within(dim, 2))[:, None, None, :],
        verts[None, :, None, :], verts[None, None, :, :]))
    cell_off = delta + qp - q
    keep = np.abs(cell_off).max(axis=1) >= 2
    delta, q, qp, cell_off = delta[keep], q[keep], qp[keep], cell_off[keep]
    mid = delta + 0.5 * (qp - q)

    def weights(quad: np.ndarray) -> np.ndarray:
        return np.where(quad[:, None, :] != verts[None, :, :],
                        0.75, 0.25).prod(axis=2)

    g = np.concatenate([weights(q), -weights(qp)], axis=1)
    width = g.shape[1]
    offsets, group = np.unique(cell_off, axis=0, return_inverse=True)
    slots = group.reshape(-1, 1) * width ** 2 + np.arange(width ** 2)
    coef = (g[:, :, None] * g[:, None, :]).reshape(len(g), width ** 2)
    rows, cols = np.divmod(np.arange(width ** 2), width)
    low = np.broadcast_to(verts, (len(offsets),) + verts.shape)
    nodes = np.concatenate([low, offsets[:, None, :] + verts], axis=1)
    o1 = nodes[:, rows].reshape(-1, dim)
    o2 = nodes[:, cols].reshape(-1, dim)
    slot_off = np.repeat(offsets, width ** 2, axis=0)
    return (o1, o2, slot_off), np.sum(mid * mid, axis=1), coef, slots


# Chebyshev reach of the near and gap data from a row node: node offsets
# lie in [-4, 4]^dim and cell offsets in [-4, 3]^dim
_REACH = 4


def _offset_keys(offsets: np.ndarray, reach: int = _REACH) -> np.ndarray:
    """Lexicographic integer keys of offsets within Chebyshev ``reach``;
    a key is linear in the offset, so shifting every offset by one
    vector keeps their order."""
    base = 2 * reach + 1
    powers = base ** np.arange(offsets.shape[1] - 1, -1, -1)
    return (offsets + reach) @ powers


def _regroup(o1: np.ndarray, o2: np.ndarray, cell_off: np.ndarray,
             vals: np.ndarray):
    """Near and gap entries regrouped by node offset and cell pair.

    Entry (o1, o2) of the local form of the cell pair (K, K+D) couples
    row node i = K + o1 to node i + e, e = o2 - o1, when the cells
    i + a and i + b, a = -o1 and b = D - o1, are both active.  Returns
    (node offsets (E, dim), cell pairs (P, 2, dim), CSR weights (E, P))
    with equal (e, a, b) summed in input order.  Rows and columns are
    sorted by key, so the mirror entry (-e, a - e, b - e) of every
    weight sits at the same rank in its row.
    """
    dim = o1.shape[1]
    node_key = _offset_keys(o2 - o1)
    pair_key = (_offset_keys(-o1) * (2 * _REACH + 1) ** dim
                + _offset_keys(cell_off - o1))
    node_keys, node_first, row = np.unique(node_key, return_index=True,
                                           return_inverse=True)
    pair_keys, pair_first, col = np.unique(pair_key, return_index=True,
                                           return_inverse=True)
    entries, inv = np.unique(row * len(pair_keys) + col, return_inverse=True)
    data = np.bincount(inv.reshape(-1), weights=vals)
    rows, cols = np.divmod(entries, len(pair_keys))
    indptr = np.searchsorted(rows, np.arange(len(node_keys) + 1))
    weights = csr_matrix((data, cols, indptr),
                         shape=(len(node_keys), len(pair_keys)))
    cell_pairs = np.stack([-o1, cell_off - o1], axis=1)[pair_first]
    return (o2 - o1)[node_first], cell_pairs, weights


# -------------------------------------------------------------- the table


@dataclass(frozen=True)
class NearTable:
    """Unit-spacing kernel data for the near and gap regions.

    ``hat_energies[d]`` is the patch energy of the nodal hat centered at
    the contact vertex of the ordered cell pair (K, K+d), for Chebyshev
    offsets one and two — nonnegative, exactly symmetric under axis
    permutations and reflections, and pinned by an independent quadrature
    oracle in the tests.  ``pair_weights[D]`` is the exact expansion of
    the cell-pair form at cell offset D (Chebyshev <= 1) into nodal pair
    interactions.  Assembly reads the near and gap data regrouped by
    node offset: the pair-weight expansions for cell offsets of norm
    <= 1 and the gap classes for norm 2 and 3 give, for a row node i,
    the near and gap part of the matrix entry

        A[i, i + node_offsets[e]] = sum over p of weights[e, p]
            * active(i + cell_pairs[p, 0]) * active(i + cell_pairs[p, 1])

    with cell offsets taken from the row node (cell i + a has low vertex
    i + a).  ``weights`` is a CSR matrix: 81 node offsets by 376 cell
    pairs in 2-d, 729 by 5424 in 3-d.  Scaling to spacing h multiplies
    every coefficient by h^(dim - 2*sigma).
    """

    dim: int
    sigma: float
    depth: int
    points: int
    hat_energies: dict
    pair_weights: dict
    node_offsets: np.ndarray
    cell_pairs: np.ndarray
    weights: csr_matrix
    error_estimate: float
    # per-grid assembly plans, keyed by (grid, sigma); see _grid_plan
    _plans: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)


_TABLE_CACHE: dict[tuple, NearTable] = {}


def build_near_table(dim: int, sigma: float, depth: int | None = None,
                     convergence_tol: float = 1e-6) -> NearTable:
    """Build (or fetch from the in-process cache) the kernel table.

    ``depth`` is the grading depth of the patch quadrature (minimum 4);
    the geometric-tail extrapolants at depth and depth-1 must agree to
    ``convergence_tol`` in relative Frobenius norm, else the build fails
    with "near-field quadrature failed".
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {dim}")
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if depth is None:
        depth = _DEFAULT_DEPTH[dim]
    if depth < 4:
        raise ValueError(f"quadrature depth must be at least 4, got {depth}")
    points = _DEFAULT_POINTS[dim]
    key = (dim, round(sigma, 12), depth, convergence_tol)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]

    # canonical cell-pair forms: adjacency classes (for the assembly
    # expansion) plus the Chebyshev-2 classes (for stored hat energies)
    canon_forms: dict[tuple[int, ...], tuple[list, np.ndarray]] = {}
    worst_change = 0.0
    for cls in sorted({_canonical(off) for off in _offsets_within(dim, 2)}
                      | {(0,) * dim}):
        nodes, Q, change = _patch_form(dim, sigma, cls, depth, points)
        canon_forms[cls] = (nodes, _symmetrize(cls, nodes, Q))
        worst_change = max(worst_change, change)
    if worst_change > convergence_tol:
        raise NearFieldError(
            f"near-field quadrature failed: relative change {worst_change:.3e} "
            f"exceeds {convergence_tol:.1e} at depth {depth}")

    # expansion weights for every adjacency offset, relabeled from the
    # canonical class so the offset-group symmetry is exact
    pair_weights: dict[tuple[int, ...], tuple] = {}
    for off in [(0,) * dim] + _offsets_within(dim, 1):
        nodes, Q = canon_forms[_canonical(off)]
        node_map = _offset_transform(off)
        mapped = np.array([node_map(a) for a in nodes], dtype=np.int64)
        i, j = np.triu_indices(len(nodes), 1)
        w = -Q[i, j]
        keep = w != 0.0
        pair_weights[off] = (mapped[i[keep]], mapped[j[keep]], w[keep])

    # stored hat energies: diagonal entries at the contact vertices
    hat_energies: dict[tuple[int, ...], float] = {}
    for off in _offsets_within(dim, 2):
        cls = _canonical(off)
        nodes, Q = canon_forms[cls]
        gap2 = {v: sum(max(0, c - vk, vk - (c + 1)) ** 2
                       for c, vk in zip(cls, v)) for v in _cell_vertices(dim)}
        idx = {a: i for i, a in enumerate(nodes)}
        hat_energies[off] = float(np.mean([Q[idx[v], idx[v]] for v, d2
                                           in gap2.items()
                                           if d2 == min(gap2.values())]))

    # the pair-weight expansions for adjacent cells, and the gap classes
    # weighted by the block volume product and the kernel at the midpoint
    # offset, summed per slot; both regrouped by node offset
    o1, o2, cell_off, vals = [], [], [], []
    for off, (a, b, w) in pair_weights.items():
        o1 += [a, b, a, b]
        o2 += [a, b, b, a]
        cell_off.append(np.broadcast_to(off, (4 * len(w), dim)))
        vals += [w, w, -w, -w]
    (g1, g2, g_off), mid2, coef, slots = _gap_geometry(dim)
    kernel = 4.0 ** -dim * mid2 ** (-(dim + 2.0 * sigma) / 2.0)
    vals.append(np.bincount(slots.ravel(),
                            weights=(coef * kernel[:, None]).ravel(),
                            minlength=len(g1)))
    node_offsets, cell_pairs, weights = _regroup(
        np.concatenate(o1 + [g1]), np.concatenate(o2 + [g2]),
        np.concatenate(cell_off + [g_off]), np.concatenate(vals))

    table = NearTable(dim=dim, sigma=float(sigma), depth=depth, points=points,
                      hat_energies=hat_energies, pair_weights=pair_weights,
                      node_offsets=node_offsets, cell_pairs=cell_pairs,
                      weights=weights, error_estimate=worst_change)
    _TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------- forms


@dataclass
class RegionalForm:
    """Assembled quadratic form for one mask and order sigma.

    ``energy(u)`` is the regional double integral; ``full_energy(u)``
    adds the complement term ``zero_order(u)`` = 2 * sum m_i u_i^2
    kappa_i, which makes the full-space/regional decomposition an
    identity of the discretization.
    Vectors index the mask's interior nodes in lexicographic order.
    """

    mask: DomainMask
    sigma: float
    table: NearTable
    node_weights: np.ndarray        # interior lumped masses m_i
    _matrix: np.ndarray = field(repr=False)
    # per-node pseudo-distances, NaN until marched, keyed by direction
    # rule; see hardy.hardy_check
    _scales: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    @property
    def size(self) -> int:
        return len(self.node_weights)

    def matrix(self) -> np.ndarray:
        return self._matrix

    @functools.cached_property
    def complement_potential(self) -> np.ndarray:
        """kappa_i on interior nodes, read-only, built on first read:
        forms that only feed the eigensolver never pay for it."""
        kappa = _complement_potential(
            self.mask, _grid_plan(self.table, self.mask.grid, self.sigma))
        kappa.setflags(write=False)
        return kappa

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.size,):
            raise ValueError(f"vector length {u.shape} != {self.size}")
        return self._matrix @ u

    def energy(self, u: np.ndarray) -> float:
        return float(np.dot(np.asarray(u, dtype=float), self.apply(u)))

    def diagonal(self) -> np.ndarray:
        """Diagonal of the assembled operator (a copy)."""
        return np.diag(self._matrix).copy()

    def zero_order(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        return 2.0 * float(
            np.sum(self.node_weights * u * u * self.complement_potential))

    def full_energy(self, u: np.ndarray) -> float:
        return self.energy(u) + self.zero_order(u)

    def dump_matrix(self, path) -> None:
        """Binary dump of the assembled matrix: magic 'RFRM', int32 dim,
        float64 sigma, int64 node count, then the dense matrix row-major
        little-endian float64.  On a little-endian host the matrix is
        written from its own memory, with no copy."""
        with open(path, "wb") as fh:
            fh.write(b"RFRM" + struct.pack("<idq", self.mask.grid.dim,
                                           self.sigma, self.size))
            np.asarray(self._matrix, dtype="<f8").tofile(fh)


def _node_masses(mask: DomainMask) -> np.ndarray:
    """Lumped dual-cell masses over the whole node grid (zero at nodes
    of no active cell)."""
    grid = mask.grid
    return mask.incident_counts * (grid.spacing ** grid.dim / 2 ** grid.dim)


def _convolve(spectrum: np.ndarray, shape: tuple[int, ...],
              field: np.ndarray) -> np.ndarray:
    """Convolution of ``field`` with an offset kernel, by real FFTs.

    ``spectrum`` is the ``rfftn`` of the kernel, zero-padded to ``shape``.
    Along an axis where the field has n entries, ``kernel[q]`` is the
    kernel at offset q - (n - 1) for q <= 2n - 2, and zero beyond.  Entry
    i + n - 1 of the result is then the sum over j of field[j] *
    kernel(i - j) for every 0 <= i <= n - 1: the index q = i + n - 1 - j
    stays in 0..2n - 2, so no term wraps around, and padding a length
    up to a fast FFT size adds only zero terms.
    """
    axes = tuple(range(len(shape)))
    return np.fft.irfftn(spectrum * np.fft.rfftn(field, s=shape, axes=axes),
                         s=shape, axes=axes)


def _offset_grid(lo, hi) -> np.ndarray:
    """Integer array of shape (hi - lo + 1) + (dim,) holding the offsets
    lo..hi per axis."""
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _flat_strides(shape) -> np.ndarray:
    """Element strides of a C-ordered array of ``shape``."""
    return np.cumprod((1,) + tuple(shape[:0:-1]))[::-1]


def _embedded(values: np.ndarray, margin: int) -> np.ndarray:
    """``values`` inside a zero (False) margin of ``margin`` entries on
    every side, flattened."""
    out = np.zeros(tuple(n + 2 * margin for n in values.shape), values.dtype)
    out[tuple(slice(margin, margin + n) for n in values.shape)] = values
    return out.ravel()


@dataclass(frozen=True)
class _GridPlan:
    """Everything assembly needs that depends on the grid and sigma
    but not on the mask (see ``_grid_plan``)."""

    far_weights: np.ndarray     # -2 m^2 K[d] over node offsets d
    far_spectrum: np.ndarray    # rfftn of K[d]
    far_shape: tuple
    k_strides: np.ndarray       # of the kernel over node offsets
    a_strides: np.ndarray       # active cells padded by _REACH
    l_strides: np.ndarray       # node labels padded by _REACH
    cells: np.ndarray           # gather offsets of the neighbour cells
    first: np.ndarray           # rows of those cells for the cell pairs
    second: np.ndarray
    columns: np.ndarray         # gather offsets of the half-table's
                                # node offsets (negative, then zero)
    weights: csr_matrix         # its rows scaled by h^(n - 2 sigma)
    comp_spectrum: np.ndarray   # rfftn of the complement far kernel
    comp_shape: tuple
    refined: np.ndarray         # complement near stencil values
    shifts: np.ndarray          # and its offsets in the padded indicator
    p_strides: np.ndarray       # inactive cells padded by 2
    tail: np.ndarray            # complement beyond the box, per node


def _build_plan(table: NearTable, grid: GridSpec, sigma: float) -> _GridPlan:
    dim = grid.dim
    h = grid.spacing
    beta = dim + 2.0 * sigma
    axes = tuple(range(dim))
    node_shape = np.asarray(grid.node_shape)
    cells = np.asarray(grid.cells)

    # far kernel |d h|^-beta on node offsets d, zero at Chebyshev <= 2
    d = _offset_grid(1 - node_shape, node_shape - 1)
    far = np.abs(d).max(axis=-1) >= 3
    kernel = np.zeros(far.shape)
    kernel[far] = (h * h * np.sum(d[far] ** 2, axis=-1)) ** (-beta / 2.0)
    far_shape = tuple(next_fast_len(n, real=True) for n in kernel.shape)
    # every interior node has all 2^n incident cells active, so all
    # interior masses equal and the interior far block is one array
    mass = 2 ** dim * (h ** dim / 2 ** dim)

    # complement: node-to-centre offsets in units of h, for node minus
    # cell index 1 - cells .. cells; squared lengths are sums of squares
    # of half-integers, which never equal 4, so the split at 2h is exact
    r = _offset_grid(1 - cells, cells) - 0.5
    r2 = np.sum(r * r, axis=-1)
    near = r2 <= 4.0
    comp = np.where(near, 0.0, h ** dim * (h * h * r2) ** (-beta / 2.0))
    comp_shape = tuple(next_fast_len(n, real=True) for n in comp.shape)
    steps = (np.arange(4) - 1.5) / 4.0
    sub = _offset_grid([0] * dim, [3] * dim).reshape(-1, dim)
    diff = h * (r[near][:, None, :] - steps[sub][None, :, :])
    refined = (h / 4.0) ** dim * np.sum(
        np.sum(diff * diff, axis=-1) ** (-beta / 2.0), axis=1)
    # cell j = i - r - 1/2 of the indicator padded by 2, for all nodes i
    p_strides = _flat_strides(tuple(cells + 4))

    # beyond the grid box: radial tail at the distance to the box wall,
    # by the closed form's scaling r^(-2 sigma)
    nodes = grid.node_coords(np.indices(grid.node_shape).reshape(dim, -1).T)
    wall = np.maximum(np.minimum(nodes - np.asarray(grid.origin),
                                 np.asarray(grid.high_corner) - nodes
                                 ).min(axis=1), 0.5 * h)
    tail = tail_integral(dim, sigma, 1.0) * wall ** (-2.0 * sigma)

    # the table's node offsets sort by a key linear in the offset, so -e
    # sits at the mirrored rank, with its weights at the same ranks over
    # the cell pairs moved by -e: the coefficient of -e at node i + e is
    # bitwise that of e at node i, and rows 0..E//2 (the negative offsets,
    # then zero) carry the whole near and gap part.  They read every cell
    # pair in 1-3 d, so the half CSR is the prefix of the table's arrays.
    half = len(table.node_offsets) // 2 + 1
    w = table.weights
    stop = w.indptr[half]
    weights = csr_matrix((w.data[:stop] * h ** (dim - 2.0 * sigma),
                          w.indices[:stop], w.indptr[:half + 1]),
                         shape=(half, w.shape[1]))
    a_strides = _flat_strides(tuple(cells + 2 * _REACH))
    l_strides = _flat_strides(tuple(node_shape + 2 * _REACH))
    # the distinct neighbour cells, and each pair's two rows among them
    neighbours, pair_cells = np.unique(table.cell_pairs @ a_strides,
                                       return_inverse=True)
    pair_cells = pair_cells.reshape(-1, 2)
    return _GridPlan(
        far_weights=-(2.0 * mass * mass) * kernel,
        far_spectrum=np.fft.rfftn(kernel, s=far_shape, axes=axes),
        far_shape=far_shape,
        k_strides=_flat_strides(kernel.shape), a_strides=a_strides,
        l_strides=l_strides, cells=neighbours[:, None],
        first=pair_cells[:, 0], second=pair_cells[:, 1],
        columns=(table.node_offsets[:half] @ l_strides)[:, None],
        weights=weights,
        comp_spectrum=np.fft.rfftn(comp, s=comp_shape, axes=axes),
        comp_shape=comp_shape,
        refined=refined,
        shifts=np.rint(-r[near] - 0.5).astype(np.int64) @ p_strides,
        p_strides=p_strides, tail=tail.reshape(grid.node_shape),
    )


def _grid_plan(table: NearTable, grid: GridSpec, sigma: float) -> _GridPlan:
    """The table's plan for one grid and sigma, built on first use.

    Plans live in the table, so they are shared by every mask assembled
    on the grid with that table and dropped with it.
    """
    key = (grid, sigma)
    plan = table._plans.get(key)
    if plan is None:
        plan = table._plans[key] = _build_plan(table, grid, sigma)
    return plan


def _complement_potential(mask: DomainMask, plan: _GridPlan) -> np.ndarray:
    """Kernel integral over the domain complement, per interior node.

    Inactive in-box cells contribute midpoint terms h^n k(x_i - c_j).
    Node i and cell j sit h (i - j - 1/2) apart, so the sum over cells
    farther than 2h is one FFT convolution of the inactive-cell
    indicator with a fixed kernel; the cells within 2h are refined 4x
    per axis, and their values form a fixed stencil (12 cells in 2-d)
    applied by one gather.  The region beyond the grid box contributes
    the kernel integral outside the ball whose radius is the node's
    distance to the nearest wall.  That region holds the box's
    complement and more, so kappa is overcounted at every node except
    the centre of a 1-d box, by 13-20% at the centre of a 2-d box
    (sigma 0.6-0.9).
    """
    cells = np.asarray(mask.grid.cells)
    idx = mask.interior_idx
    kappa = np.zeros(len(idx))
    inactive = ~mask.active
    if inactive.any():
        kappa += _convolve(plan.comp_spectrum, plan.comp_shape,
                           inactive.astype(float))[tuple((idx + cells - 1).T)]
        hit = _embedded(inactive, 2)[
            plan.shifts[:, None] + ((idx + 2) @ plan.p_strides)[None, :]]
        kappa += np.sum(plan.refined[:, None] * hit, axis=0)
    kappa += plan.tail[tuple(idx.T)]
    return kappa


# Entries per row block of assembly (rows times the larger of N and the
# half-table's cell-pair count) and of the eigensolver's check of the
# matrix.  At N = 245 / 1089 / 4477, against 2^20, 2^18 is as fast,
# faster and within 3%, and cuts the 1089-node assembly's traced peak
# from 20.8 to 12.4 MB; 2^17 is 6-9% slower at 4477.  The matrix does
# not depend on it: each entry gets one far value, at most one near add
_BLOCK_ENTRIES = 2 ** 18


def assemble(mask: DomainMask, sigma: float, *,
             table: NearTable | None = None) -> RegionalForm:
    """Assemble the regional form for a mask as a dense N x N matrix.

    Every piece is a lattice operation.  The far weights 2 m_i m_j
    k(x_i - x_j) depend on the node pair only through the index offset
    (every interior mass is h^n), so the interior block is gathered from
    one kernel array over all node-index offsets, in row blocks of about
    ``_BLOCK_ENTRIES`` (2^18) entries, and the far diagonal is one FFT
    convolution of that kernel with the node-mass field.  The near and
    gap parts read only the half of the table whose node offsets are
    negative or zero: per row block, one gather of the neighbour cells'
    activity flags (64 cells in 2-d), row takes of it for the cell
    pairs, one sparse product with the half-table's weights, one gather
    of column labels and one indexed add at (i, i + e) and, for e != 0,
    at the mirrored (i + e, i).  The mirrored coefficient is bitwise the
    one the offset -e gives at row i + e, and that row comes first, so
    its far values are already written.  Deterministic at any BLAS
    thread count: nodes are ordered lexicographically, no step calls
    BLAS, and every accumulation order is fixed.  The matrix takes
    8 N^2 bytes for N interior nodes; the row blocks add a few MB at
    most.  It is a writeable C-ordered float64 array bitwise equal to
    its transpose, as ``spectral.smallest_eigenpair`` requires to factor
    it in place.

    What does not depend on the mask is built once per grid and sigma
    and kept in the table: the far kernel, its spectrum and the far
    block weights, the complement kernel's spectrum and its refined near
    stencil, the tail term per node, the gather offsets of the
    half-table and its rows scaled to the spacing.  Per mask there
    remain the node masses, the gathers of flags and labels, the sparse
    product, the far gather and one FFT of the mass field.  The
    complement potential (one FFT of the inactive-cell field and two
    gathers) is built when ``complement_potential`` is first read.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    grid = mask.grid
    dim = grid.dim
    if table is None:
        table = build_near_table(dim, sigma)
    if table.dim != dim or abs(table.sigma - sigma) > 1e-12:
        raise ValueError("near table does not match mask dimension / sigma")

    masses = _node_masses(mask)
    idx = mask.interior_idx
    interior_m = masses[tuple(idx.T)]
    n_int = len(interior_m)
    if n_int == 0:
        raise ValueError("no interior nodes")
    plan = _grid_plan(table, grid, float(sigma))

    node_shape = np.asarray(grid.node_shape)
    k_off = idx @ plan.k_strides
    k_center = (node_shape - 1) @ plan.k_strides

    # active cells and interior labels (N elsewhere), padded by the reach
    # of the near and gap data; entries touching the boundary ring vanish
    # against u=0, so only entries between two interior nodes are kept
    # (of a pair weight joining an interior and a boundary node, that is
    # its interior diagonal term)
    active = _embedded(mask.active, _REACH)
    labels = np.full(tuple(node_shape + 2 * _REACH), n_int, dtype=np.int64)
    labels[tuple((idx + _REACH).T)] = np.arange(n_int)
    labels = labels.ravel()
    cell_base = (idx + _REACH) @ plan.a_strides
    node_base = (idx + _REACH) @ plan.l_strides

    A = np.empty((n_int, n_int))
    flat = A.reshape(-1)
    rows = min(n_int, max(1, _BLOCK_ENTRIES // max(n_int, len(plan.first))))
    gather = np.empty((rows, n_int), dtype=np.intp)
    for s in range(0, n_int, rows):
        sl = slice(s, min(s + rows, n_int))
        m = sl.stop - s
        np.subtract(k_off[None, :] + k_center, k_off[sl, None], out=gather[:m])
        np.take(plan.far_weights, gather[:m], out=A[sl], mode="clip")
        flags = active[plan.cells + cell_base[sl]]
        coef = plan.weights @ (flags[plan.first] & flags[plan.second])
        col = labels[plan.columns + node_base[sl]]
        row = np.arange(s, sl.stop)
        keep = col < n_int
        flat[(col + row * n_int)[keep]] += coef[keep]
        keep[-1] = False        # the zero offset, added once
        flat[(col * n_int + row)[keep]] += coef[keep]

    far_sums = _convolve(plan.far_spectrum, plan.far_shape, masses)[
        tuple((idx + node_shape - 1).T)]
    A[np.arange(n_int), np.arange(n_int)] += 2.0 * interior_m * far_sums
    return RegionalForm(mask=mask, sigma=float(sigma), table=table,
                        node_weights=interior_m, _matrix=A)
