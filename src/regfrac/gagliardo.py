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

The near and gap data depend only on the offset D between the two cells
they couple, so the kernel table sums them into one stencil per cell
offset (Chebyshev norm <= 3: 7, 49 and 343 offsets in 1-, 2- and 3-d).
Assembly applies each stencil at every pair of active cells (K, K+D) in
one scatter; only the far part sums over node pairs.

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
import struct
from dataclasses import dataclass, field

import numpy as np

from .geometry import DomainMask
from .quadrature import tensor_rule
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


def _basis_matrix(local: np.ndarray, verts: list[tuple[int, ...]],
                  cols: list[int], width: int) -> np.ndarray:
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


def _quad_classes(offsets: np.ndarray, corners: np.ndarray,
                  weights: np.ndarray, size: float, delta: tuple[int, ...],
                  beta: float, nodes: list[tuple[int, ...]],
                  points: int) -> np.ndarray:
    """Tensor-Gauss integral of k (b_a(x)-b_a(y))(b_b(x)-b_b(y)) over
    weighted separated box pairs, accumulated into a patch matrix.

    Pair (c, r) has its x box at ``corners[r]`` in cell 0, its y box at
    ``corners[r] + size * offsets[c]`` and weight ``weights[c, r]``; the
    kernel block depends only on the offset, so it is evaluated once
    per class c.
    """
    dim = corners.shape[1]
    width = len(nodes)
    node_col = {a: i for i, a in enumerate(nodes)}
    verts0 = _cell_vertices(dim)
    cols0 = [node_col[v] for v in verts0]
    colsd = [node_col[tuple(d + v for d, v in zip(delta, e))] for e in verts0]
    xi, wq = tensor_rule(dim, points)  # on [0,1]^dim
    npts = len(xi)
    x = corners[:, None, :] + size * xi[None, :, :]         # (R,P,dim)
    X = _basis_matrix(x, verts0, cols0, width)               # x is in cell 0
    Xt = np.swapaxes(X, 1, 2)
    chunk = max(1, 2_000_000 // (len(corners) * npts * max(npts, width)))
    Q = np.zeros((width, width))
    # sums over classes and corners are numpy reductions and BLAS only
    # sees per-pair products far below its threading threshold, so the
    # result does not depend on the BLAS thread count
    for start in range(0, len(offsets), chunk):
        off = offsets[start:start + chunk]                  # (m,dim)
        w = weights[start:start + chunk]                    # (m,R)
        diff = size * (xi[None, :, None, :] - xi[None, None, :, :]
                       - off[:, None, None, :])              # (m,P,P,dim)
        ker = np.sum(diff * diff, axis=-1) ** (-beta / 2.0)
        K = ker * wq[None, :, None] * wq[None, None, :]      # (m,P,P)
        y = x[None, :, :, :] + size * off[:, None, None, :]  # (m,R,P,dim)
        Y = _basis_matrix(y - np.asarray(delta, float), verts0, colsd, width)
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
    return np.unique([0.0, 0.5 * (1.0 - size), 1.0 - size])


def _lagrange(nodes: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Quadratic Lagrange basis on three nodes at points: (3, len(at))."""
    return np.array([np.prod([(at - nodes[s]) / (nodes[t] - nodes[s])
                              for s in range(3) if s != t], axis=0)
                     for t in range(3)])


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
    2o + c' - c.  Returns (patch nodes, increments, complete), complete
    when no touching pair is left.
    """
    beta = dim + 2.0 * sigma
    nodes = _patch_nodes(dim, delta)
    size = 1.0
    classes = {tuple(delta): np.ones(1)}
    shifts = _cell_vertices(dim)
    increments: list[np.ndarray] = []
    for level in range(depth + 1):
        corners = _corner_nodes(size)
        grid = np.array(list(itertools.product(corners, repeat=dim)))
        # two forced subdivision levels give every accepted box pair a
        # separation-to-size ratio of at least one at a refined scale
        offsets = sorted(classes)
        sep = [o for o in offsets if level >= 2 and max(map(abs, o)) >= 2]
        if sep:
            increments.append(_quad_classes(
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
        # per_axis[c][t', t]: weight on child corner node t' of parent
        # corner node t moved by half * c; kron over the axes gives 3^dim
        per_axis = [_lagrange(_corner_nodes(half), corners + half * c)
                    for c in (0, 1)]
        children: dict[tuple[int, ...], np.ndarray] = {}
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


def _offsets_within(dim: int, radius: int) -> list[tuple[int, ...]]:
    return [off for off in itertools.product(range(-radius, radius + 1), repeat=dim)
            if any(off)]


# ---------------------------------------------------------- gap stencils


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

    Returns (layout, squared midpoint distance per class, coefficients
    (classes, W^2), slots (classes, W^2)).  ``layout`` maps the n cell
    offsets, in sorted order, to the node offsets (o1, o2) of their W^2
    stencil entries; slot s * W^2 + e holds entry e of offset s, so
    weighting the classes by sigma is one multiply and one bincount.
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
    layout = {}
    for off in offsets:
        nodes = np.concatenate([verts, off + verts])
        layout[tuple(off.tolist())] = (nodes[rows], nodes[cols])
    return layout, np.sum(mid * mid, axis=1), coef, slots


_GAP_GEOMETRY_CACHE: dict[int, tuple] = {}


def _gap_geometry_cached(dim: int):
    if dim not in _GAP_GEOMETRY_CACHE:
        _GAP_GEOMETRY_CACHE[dim] = _gap_geometry(dim)
    return _GAP_GEOMETRY_CACHE[dim]


def _summed_entries(o1: np.ndarray, o2: np.ndarray, vals: np.ndarray):
    """Local form entries with repeated (o1, o2) node pairs summed."""
    dim = o1.shape[1]
    pairs, inv = np.unique(np.concatenate([o1, o2], axis=1), axis=0,
                           return_inverse=True)
    summed = np.bincount(inv.reshape(-1), weights=vals, minlength=len(pairs))
    return pairs[:, :dim], pairs[:, dim:], summed


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
    interactions.  ``stencils[D]`` is what assembly reads: for every cell
    offset D with Chebyshev norm <= 3, the summed local form (o1, o2,
    vals) of the ordered cell pair (K, K+D), with o1 and o2 node offsets
    from the low vertex of K — the pair-weight expansion for norm <= 1,
    the gap classes regrouped by the offset of their quadrant cells for
    norm 2 and 3.  Scaling to spacing h multiplies every coefficient by
    h^(dim - 2*sigma).
    """

    dim: int
    sigma: float
    depth: int
    points: int
    hat_energies: dict
    pair_weights: dict
    stencils: dict
    error_estimate: float

    def hat_energy(self, offset: tuple[int, ...]) -> float:
        return self.hat_energies[tuple(offset)]


_TABLE_CACHE: dict[tuple, NearTable] = {}


def build_near_table(dim: int, sigma: float, depth: int | None = None,
                     points: int | None = None,
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
    if points is None:
        points = _DEFAULT_POINTS[dim]
    key = (dim, round(sigma, 12), depth, points, convergence_tol)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]

    # canonical cell-pair forms: adjacency classes (for the assembly
    # expansion) plus the Chebyshev-2 classes (for stored hat energies)
    canon_forms: dict[tuple[int, ...], tuple[list, np.ndarray]] = {}
    worst_change = 0.0
    for cls in sorted({_canonical(off) for off in _offsets_within(dim, 2)}
                      | {(0,) * dim}):
        nodes, Q, change = _patch_form(dim, sigma, cls, depth, points)
        canon_forms[cls] = (nodes, Q)
        worst_change = max(worst_change, change)
    if worst_change > convergence_tol:
        raise NearFieldError(
            f"near-field quadrature failed: relative change {worst_change:.3e} "
            f"exceeds {convergence_tol:.1e} at depth {depth}")

    # expansion weights for every adjacency offset, relabeled from the
    # canonical class so the offset-group symmetry is exact
    pair_weights: dict[tuple[int, ...], tuple] = {}
    for off in [(0,) * dim] + [o for o in _offsets_within(dim, 1)]:
        cls = _canonical(off)
        nodes, Q = canon_forms[cls]
        node_map = _offset_transform(off)
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

    # stored hat energies: diagonal entries at the contact vertices
    hat_energies: dict[tuple[int, ...], float] = {}
    for off in _offsets_within(dim, 2):
        cls = _canonical(off)
        nodes, Q = canon_forms[cls]
        verts0 = _cell_vertices(dim)
        best = None
        contact = []
        for v in verts0:
            d2 = sum(max(0, c - vk, vk - (c + 1)) ** 2
                     for c, vk in zip(cls, v))
            if best is None or d2 < best - 1e-12:
                best = d2
                contact = [v]
            elif abs(d2 - best) <= 1e-12:
                contact.append(v)
        idx = {a: i for i, a in enumerate(nodes)}
        hat_energies[off] = float(np.mean([Q[idx[v], idx[v]] for v in contact]))

    # stencils: the pair-weight expansions for adjacent cells, and the
    # gap classes weighted by the block volume product and the kernel at
    # the midpoint offset, summed per cell offset
    stencils: dict[tuple[int, ...], tuple] = {}
    for off, (a, b, w) in pair_weights.items():
        stencils[off] = _summed_entries(np.concatenate([a, b, a, b]),
                                        np.concatenate([a, b, b, a]),
                                        np.concatenate([w, w, -w, -w]))
    layout, mid2, coef, slots = _gap_geometry_cached(dim)
    kernel = 4.0 ** -dim * mid2 ** (-(dim + 2.0 * sigma) / 2.0)
    vals = np.bincount(slots.ravel(), weights=(coef * kernel[:, None]).ravel(),
                       minlength=len(layout) * coef.shape[1])
    for (off, (o1, o2)), v in zip(layout.items(),
                                  vals.reshape(len(layout), -1)):
        stencils[off] = (o1, o2, v)
    stencils = dict(sorted(stencils.items()))

    table = NearTable(dim=dim, sigma=float(sigma), depth=depth, points=points,
                      hat_energies=hat_energies, pair_weights=pair_weights,
                      stencils=stencils, error_estimate=worst_change)
    _TABLE_CACHE[key] = table
    return table


# ---------------------------------------------------------------- forms


@dataclass
class RegionalForm:
    """Assembled quadratic form for one mask and order sigma.

    ``energy(u)`` is the regional double integral; ``full_energy(u)``
    adds the complement term 2 * sum m_i u_i^2 kappa_i, which makes the
    full-space/regional decomposition an identity of the discretization.
    Vectors index the mask's interior nodes in lexicographic order.
    """

    mask: DomainMask
    sigma: float
    table: NearTable
    node_weights: np.ndarray        # interior lumped masses m_i
    boundary_weights: np.ndarray
    complement_potential: np.ndarray  # kappa_i on interior nodes
    _matrix: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.node_weights)

    def matrix(self) -> np.ndarray:
        return self._matrix

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

    def full_energy(self, u: np.ndarray) -> float:
        u = np.asarray(u, dtype=float)
        zero_order = 2.0 * float(
            np.sum(self.node_weights * u * u * self.complement_potential))
        return self.energy(u) + zero_order

    def _dump_header(self, fh) -> None:
        fh.write(b"RFRM")
        fh.write(struct.pack("<i", self.mask.grid.dim))
        fh.write(struct.pack("<d", self.sigma))
        fh.write(struct.pack("<q", self.size))

    def dump_matrix(self, path) -> None:
        """Binary dump of the assembled matrix: magic 'RFRM', int32 dim,
        float64 sigma, int64 node count, then the dense matrix row-major
        little-endian float64."""
        A = self.matrix()
        with open(path, "wb") as fh:
            self._dump_header(fh)
            fh.write(A.astype("<f8").tobytes(order="C"))

    def dump_potential(self, path) -> None:
        """Binary dump of the complement potential, same header as
        ``dump_matrix`` followed by the per-node values as little-endian
        float64."""
        with open(path, "wb") as fh:
            self._dump_header(fh)
            fh.write(self.complement_potential.astype("<f8").tobytes())


def _node_masses(mask: DomainMask) -> tuple[np.ndarray, np.ndarray]:
    """Lumped dual-cell masses for interior and boundary nodes."""
    grid = mask.grid
    dim = grid.dim
    padded = np.pad(mask.active, 1, constant_values=False)
    counts = np.zeros(grid.node_shape, dtype=np.int64)
    for offset in np.ndindex(*([2] * dim)):
        sl = tuple(slice(o, o + grid.node_shape[k]) for k, o in enumerate(offset))
        counts += padded[sl]
    unit = grid.spacing ** dim / 2 ** dim
    interior_m = counts[tuple(mask.interior_idx.T)] * unit
    boundary_m = counts[tuple(mask.boundary_idx.T)] * unit
    return interior_m.astype(float), boundary_m.astype(float)


def _complement_potential(mask: DomainMask, sigma: float) -> np.ndarray:
    """Kernel integral over the domain complement, per interior node.

    Inactive in-box cells contribute midpoint terms h^n k(x_i - c_j),
    refined 4x per axis within 2h of the node; the region beyond the
    grid box contributes the radial tail at the node's distance to the
    box boundary (a deliberate overcount at box corners — the full-space
    comparisons only need an upper-consistent complement term).
    """
    grid = mask.grid
    dim = grid.dim
    h = grid.spacing
    beta = dim + 2.0 * sigma
    nodes = mask.interior_coords              # (N, dim)
    n_nodes = len(nodes)
    centers = grid.cell_centers().reshape(-1, dim)
    inactive = ~mask.active.ravel()
    inact_centers = centers[inactive]
    kappa = np.zeros(n_nodes)
    if len(inact_centers):
        sub_offs = None
        chunk = max(1, (1 << 20) // len(inact_centers))
        for s in range(0, n_nodes, chunk):
            sl = slice(s, min(s + chunk, n_nodes))
            dx = nodes[sl, None, :] - inact_centers[None, :, :]
            dist2 = np.sum(dx * dx, axis=-1)
            near = dist2 <= (2.0 * h) ** 2 + 1e-12 * h * h
            far_ker = dist2 ** (-beta / 2.0)
            far_ker[near] = 0.0
            kappa[sl] += h ** dim * far_ker.sum(axis=1)
            # refine close cells on a 4^dim midpoint subgrid
            rows, cols = np.nonzero(near)
            if len(rows):
                if sub_offs is None:
                    steps = (np.arange(4) - 1.5) * (h / 4.0)
                    grids = np.meshgrid(*([steps] * dim), indexing="ij")
                    sub_offs = np.stack([g.ravel() for g in grids], axis=-1)
                pts = (inact_centers[cols][:, None, :] + sub_offs[None, :, :])
                ddx = nodes[sl][rows][:, None, :] - pts
                dker = np.sum(ddx * ddx, axis=-1) ** (-beta / 2.0)
                np.add.at(kappa, np.arange(s, min(s + chunk, n_nodes))[rows],
                          (h / 4.0) ** dim * dker.sum(axis=1))
    # beyond the grid box: radial tail at the distance to the box wall
    lo = np.asarray(grid.origin)
    hi = np.asarray(grid.high_corner)
    wall = np.minimum(nodes - lo, hi - nodes).min(axis=1)
    wall = np.maximum(wall, 0.5 * h)
    kappa += np.array([tail_integral(dim, sigma, float(r)) for r in wall])
    return kappa


def assemble(mask: DomainMask, sigma: float, *,
             table: NearTable | None = None) -> RegionalForm:
    """Assemble the regional form for a mask as a dense N x N matrix.

    The near and gap parts take one pass per stencil of the table: the
    cell pairs (K, K+D) with both cells active gather the labels of the
    stencil's nodes, and the entries whose two nodes are interior are
    added to the matrix.  The far part sums the midpoint rule over node
    pairs in row blocks.  Deterministic: nodes are ordered
    lexicographically and every accumulation order is fixed.  The
    matrix takes 8 N^2 bytes for N interior nodes.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    grid = mask.grid
    dim = grid.dim
    if table is None:
        table = build_near_table(dim, sigma)
    if table.dim != dim or abs(table.sigma - sigma) > 1e-12:
        raise ValueError("near table does not match mask dimension / sigma")
    h = grid.spacing
    scale = h ** (dim - 2.0 * sigma)
    beta = dim + 2.0 * sigma

    interior_m, boundary_m = _node_masses(mask)
    n_int = len(interior_m)
    if n_int == 0:
        raise ValueError("no interior nodes")

    # interior labels 0..N-1 over the node grid, N elsewhere: entries
    # touching the boundary ring vanish against u=0, so only entries
    # between two interior nodes are kept (of a pair weight joining an
    # interior and a boundary node, that is its interior diagonal term)
    labels = np.full(grid.node_shape, n_int, dtype=np.int64)
    labels[tuple(mask.interior_idx.T)] = np.arange(n_int)
    strides = np.asarray(labels.strides) // labels.itemsize
    labels = labels.ravel()
    A = np.zeros((n_int, n_int))
    diag = np.zeros(n_int)

    # ---- near and gap parts: one summed stencil per cell offset D,
    # applied at every cell pair (K, K+D) of active cells
    padded = np.pad(mask.active, 3, constant_values=False)
    # node index of each cell's low vertex
    low_vertex = np.arange(labels.size).reshape(grid.node_shape)[
        tuple(slice(n) for n in grid.cells)]
    for off, (o1, o2, vals) in table.stencils.items():
        sl = tuple(slice(3 + o, 3 + o + n) for o, n in zip(off, grid.cells))
        low = low_vertex[mask.active & padded[sl]]
        if not len(low):
            continue
        r = labels[low[:, None] + (o1 @ strides)[None, :]]
        c = labels[low[:, None] + (o2 @ strides)[None, :]]
        keep = (r < n_int) & (c < n_int)
        np.add.at(A.reshape(-1), (r * n_int + c)[keep],
                  np.broadcast_to(vals * scale, r.shape)[keep])

    # ---- far part: midpoint rule at node offsets Chebyshev >= 3, in
    # row blocks of about 2^20 pairs that reuse three scratch buffers
    all_idx = np.concatenate([mask.interior_idx, mask.boundary_idx])
    all_coords = np.concatenate([mask.interior_coords, mask.boundary_coords])
    all_m = np.concatenate([interior_m, boundary_m])
    n_all = len(all_idx)
    rows = min(n_int, max(1, (1 << 20) // n_all))
    sq_buf = np.empty((rows, n_all, dim))
    ker_buf = np.empty((rows, n_all))
    w_buf = np.empty((rows, n_all))
    for s in range(0, n_int, rows):
        sl = slice(s, min(s + rows, n_int))
        m = sl.stop - s
        sq, ker, w = sq_buf[:m], ker_buf[:m], w_buf[:m]
        np.subtract(mask.interior_coords[sl, None, :], all_coords[None, :, :],
                    out=sq)
        np.multiply(sq, sq, out=sq)
        np.sum(sq, axis=-1, out=ker)
        with np.errstate(divide="ignore"):
            ker **= -beta / 2.0
        near = np.ones((m, n_all), dtype=bool)    # Chebyshev offset <= 2
        for k in range(dim):
            near &= np.abs(mask.interior_idx[sl, None, k]
                           - all_idx[None, :, k]) <= 2
        ker[near] = 0.0
        np.multiply(2.0 * interior_m[sl, None], all_m[None, :], out=w)
        w *= ker
        diag[sl] += w.sum(axis=1)
        A[sl, :] -= w[:, :n_int]

    A[np.arange(n_int), np.arange(n_int)] += diag
    return RegionalForm(
        mask=mask, sigma=float(sigma), table=table,
        node_weights=interior_m, boundary_weights=boundary_m,
        complement_potential=_complement_potential(mask, sigma), _matrix=A,
    )
