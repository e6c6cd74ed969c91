"""Low-level quadrature helpers shared across the package.

Two pieces live here:

* a stack-based adaptive Gauss-Kronrod (G7/K15) integrator for 1-d
  integrals with endpoint singularities that are merely integrable, and
* cached Gauss-Legendre tensor rules used by the kernel-table builder.
"""
from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

# QUADPACK qk15 constants: 15-point Kronrod nodes (positive half), the
# matching Kronrod weights, and the embedded 7-point Gauss weights.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])


# absolute target of the summed error indicator, and the interval budget
_ABS_TOL = 1e-12
_MAX_INTERVALS = 20000


class QuadratureError(RuntimeError):
    """Raised when an adaptive rule cannot meet the requested tolerance."""


def _kronrod_panel(f, a: float, b: float) -> tuple[float, float]:
    """Return (K15 estimate, |K15-G7| error indicator) on [a, b]."""
    c = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    x = np.concatenate((c - hw * _XGK[:-1], [c], c + hw * _XGK[-2::-1]))
    fx = f(x)
    fx = np.asarray(fx, dtype=float)
    # fold symmetric points onto the positive-half weight table
    folded = np.empty(8)
    folded[:7] = fx[:7] + fx[-1:-8:-1]
    folded[7] = fx[7]
    k15 = hw * float(np.dot(_WGK, folded))
    g7 = hw * float(np.dot(_WG, folded[1::2]))
    return k15, abs(k15 - g7)


def adaptive_gauss_kronrod(f, a: float, b: float) -> tuple[float, float]:
    """Integrate ``f`` over [a, b] by bisecting G7/K15 panels.

    ``f`` must accept a numpy array of abscissae.  Returns the integral
    together with the summed error indicator of the final partition.
    Raises :class:`QuadratureError` if the budget of ``_MAX_INTERVALS``
    intervals is exhausted before the global indicator drops below
    ``_ABS_TOL``.
    """
    if not b > a:
        if b == a:
            return 0.0, 0.0
        raise ValueError("integration bounds out of order")
    val, err = _kronrod_panel(f, a, b)
    # worst-first refinement via a max-heap keyed on the error indicator;
    # the running total is maintained incrementally and resynced
    # periodically against float drift.
    counter = 0
    heap = [(-err, counter, a, b, val)]
    total_err = err
    done: list[tuple[float, float, float, float]] = []  # frozen intervals
    steps = 0
    while total_err > _ABS_TOL:
        if not heap:
            break
        if len(heap) + len(done) >= _MAX_INTERVALS:
            raise QuadratureError(
                f"adaptive Gauss-Kronrod stalled at error {total_err:.3e} "
                f"with {len(heap) + len(done)} intervals")
        neg_e, _, lo, hi, v = heapq.heappop(heap)
        e = -neg_e
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at float resolution: freeze it, accept its estimate
            done.append((0.0, lo, hi, v))
            total_err -= e
            continue
        v1, e1 = _kronrod_panel(f, lo, mid)
        v2, e2 = _kronrod_panel(f, mid, hi)
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        total_err += e1 + e2 - e
        steps += 1
        if steps % 512 == 0:
            total_err = sum(-s[0] for s in heap) + sum(s[0] for s in done)
    total = float(sum(s[4] for s in heap) + sum(s[3] for s in done))
    final_err = float(sum(-s[0] for s in heap) + sum(s[0] for s in done))
    return total, final_err


@lru_cache(maxsize=32)
def gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] for a ``points``-point Gauss rule."""
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=16)
def tensor_rule(dim: int, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensorized Gauss rule on the unit cube [0, 1]^dim.

    Returns (nodes, weights) with nodes of shape (points**dim, dim).
    """
    x1, w1 = gauss_legendre(points)
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(len(nodes))
    for axis in range(dim):
        idx = np.meshgrid(*([np.arange(points)] * dim), indexing="ij")[axis].ravel()
        weights *= w1[idx]
    return nodes, weights
