"""Gauss-Legendre rules on the unit interval and the unit cube.

The near-table build uses the tensor rules; the Hardy profile
integral in :mod:`regfrac.special` builds its composite rule from the
one-dimensional one.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np


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
