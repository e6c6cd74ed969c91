"""Smallest eigenpair of the regional form under the lumped mass matrix.

The lumped mass matrix is h^n I: every unknown is an interior node, all of
whose 2^n incident cells are active, so the solver takes the mass as one
number m and A u = lambda m u is a plain symmetric problem.  Only the
ground pair is computed.  Up to ``_DENSE_ORDER`` nodes one dense ``eigh``
finds it; larger forms are Cholesky-factored once and ARPACK's
implicitly restarted Lanczos (Lehoucq, Sorensen & Yang 1998) finds the
largest eigenvalue of the scaled inverse from a seeded start, one
``potrs`` per operator application.  The pair must meet the caller's
tolerance on the mass-weighted residual; reruns repeat it bit for bit at
a fixed BLAS thread count.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, eigh, get_lapack_funcs
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .gagliardo import _BLOCK_ENTRIES, RegionalForm

# ARPACK's restart cap: a safety bound that no measured solve reaches.
# ARPACK returns within three Lanczos cycles on every 1-3 d form
# measured, even at a tolerance it cannot meet (1e-20)
_MAX_RESTARTS = 200

# Largest order solved by one dense eigh.  Median solve, Lanczos -> dense,
# 2-d balls, sigma 0.75, tol 1e-8, one BLAS thread: N 137 1.18 -> 0.79 ms,
# 177 1.48 -> 1.20, 245 2.46 -> 2.31, 293 2.89 -> 3.23; the bound stays
# where dense clearly wins, as moving it changes the bits of moved forms
_DENSE_ORDER = 160


@dataclass(frozen=True)
class EigenResult:
    """Converged (or best-effort) smallest eigenpair.

    ``vector`` is normalized to unit lumped-L2 norm and sign-fixed to
    nonnegative mean; ``residual`` is the mass-weighted defect
    ||A u - lambda m u|| / sqrt(m).  ``iterations`` counts the inverse
    solves made, 0 when a dense ``eigh`` solved the order.
    ``min_entry`` is the most negative entry of the unit-norm vector
    before roundoff-size negatives are clamped (0.0 when there is none);
    well below zero, the discrete ground state changes sign and is not a
    ground state in the continuous sense.
    """

    eigenvalue: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool
    min_entry: float = 0.0


def rayleigh_quotient(form: RegionalForm, u: np.ndarray) -> float:
    """energy(u) / (m <u, u>); rejects the zero vector."""
    u = np.asarray(u, dtype=float)
    norm = float(np.dot(form.mass * u, u))
    if not norm > 0.0:
        raise ValueError("rayleigh quotient requires a nonzero vector")
    return form.energy(u) / norm


def _check_factorable(a: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``a`` can hold its own factor: a
    writeable, C-ordered float64 array, finite and bitwise equal to its
    transpose (an int64 view, so a signed zero counts).  One pass in
    row blocks, with no N x N mask."""
    if a.dtype != np.float64 or not (a.flags.c_contiguous
                                     and a.flags.writeable):
        raise ValueError("matrix must be a writeable C-ordered float64 "
                         "array: the solver factors it in its own storage")
    n = len(a)
    rows = max(1, _BLOCK_ENTRIES // n)
    for s in range(0, n, rows):
        block = a[s:s + rows]
        if not np.isfinite(block).all():
            raise ValueError("matrix is not finite and positive definite: "
                             "array must not contain infs or NaNs")
        if not np.array_equal(block.view(np.int64),
                              a[:, s:s + rows].T.view(np.int64)):
            raise ValueError("matrix is not bitwise symmetric: its factor "
                             "would be read from the upper triangle alone")


def _solve_pencil(matrix: np.ndarray, mass: float, tol: float,
                  seed: int) -> EigenResult:
    """``smallest_eigenpair`` on the pencil (matrix, mass I)."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not mass > 0.0:
        raise ValueError(f"mass must be positive, got {mass}")
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = len(a)
    if n == 0:
        raise ValueError("no interior nodes")
    # both paths take only matrices potrf can factor in place: a symmetric
    # a's view a.T holds in its upper triangle what an F-ordered copy would
    _check_factorable(a)
    # work in scaled coordinates v = r u, r = sqrt(m): A u = lambda m u
    # becomes (A / r^2) v = lambda v
    root = math.sqrt(mass)
    solves = 0
    if n <= _DENSE_ORDER:
        # root * root, not mass, which can differ in the last bit: the
        # Lanczos path scales by root on either side of the inverse, so
        # both paths scale A alike
        lams, vecs = eigh(a / (root * root), check_finite=False,
                          subset_by_index=[0, 0], overwrite_a=True)
        if not lams[0] > 0.0:
            raise ValueError("matrix is not finite and positive definite: "
                             f"its smallest eigenvalue is {lams[0]:.3e}")
    else:
        diagonal = a.diagonal().copy()
        start = np.random.default_rng(seed).standard_normal(n)
        try:
            try:
                c, lower = cho_factor(a.T, overwrite_a=True,
                                      check_finite=False)
            except ValueError as exc:  # LinAlgError is a ValueError too
                raise ValueError("matrix is not finite and positive "
                                 f"definite: {exc}") from exc
            potrs, = get_lapack_funcs(("potrs",), (c,))

            def inverse(x):
                nonlocal solves
                solves += 1
                y, info = potrs(c, root * x, lower=lower, overwrite_b=True)
                if info != 0:
                    raise ValueError(f"LAPACK potrs failed with info {info}")
                return root * y

            # ARPACK stops when the Ritz value meets ``tol`` relative to
            # its size, after one Lanczos cycle on every form measured;
            # ``tol`` is then checked below on the mass-weighted residual
            op = LinearOperator((n, n), matvec=inverse, dtype=float)
            try:
                theta, vecs = eigsh(op, k=1, which="LA", v0=start, tol=tol,
                                    maxiter=_MAX_RESTARTS)
            except ArpackNoConvergence as exc:
                theta, vecs = exc.eigenvalues, exc.eigenvectors
        finally:
            # rebuild the lower triangle from a's intact strict upper one, by
            # blocks of 64 rows (32 KB temporaries), then the diagonal
            for s in range(0, n, 64):
                e = min(s + 64, n)
                a[s:e, :s] = a[:s, s:e].T
                block = a[s:e, s:e]
                np.copyto(block, block.T.copy(),
                          where=np.tri(e - s, k=-1, dtype=bool))
            np.fill_diagonal(a, diagonal)
        lams = 1.0 / theta
    if len(lams):
        lam, u = float(lams[0]), vecs[:, 0] / root
    else:  # ARPACK stopped before any Ritz pair converged
        u = start / root
        lam = float(u @ (a @ u)) / float(np.sum(mass * u * u))

    # sign convention: nonnegative lumped mean, then clamp roundoff-size
    # negative entries to zero and renormalize
    if float(np.sum(u * mass)) < 0.0:
        u = -u
    min_entry = min(0.0, float(u.min() / np.sqrt(np.sum(mass * u * u))))
    u = np.where((u < 0.0) & (u > -1e-12), 0.0, u)
    u = u / np.sqrt(float(np.sum(mass * u * u)))
    defect = a @ u - lam * (mass * u)
    residual = float(np.sqrt(np.sum(defect * defect / mass)))
    return EigenResult(eigenvalue=lam, vector=u, residual=residual,
                       iterations=solves, converged=residual <= tol,
                       min_entry=min_entry)


def smallest_eigenpair(form: RegionalForm, *, tol: float = 1e-8,
                       seed: int = 0) -> EigenResult:
    """Ground eigenpair of A u = lambda m u for the assembled form: A its
    matrix, m = h^n its lumped mass, the same at every node.

    Up to ``_DENSE_ORDER`` nodes, one ``eigh`` of the scaled copy A / m
    gives its smallest eigenpair (``seed`` unused).  Above it, A is
    Cholesky-factored once; ARPACK's ``eigsh``, started from a vector
    drawn from ``seed``, then finds the largest eigenvalue of m A^(-1),
    1/lambda_1, by ``potrs`` on the factor.
    ARPACK stops when that Ritz value meets ``tol`` relative to its size,
    after one Lanczos cycle on the 1-3 d forms measured and never near
    its restart cap.  Either way the result is converged when the
    mass-weighted residual of the returned pair is at most ``tol``, so
    an early or loose stop (an unattainable ``tol`` included) is
    flagged, not raised.  A ``RuntimeWarning`` names the calling line
    when the vector's negativity exceeds the clamp tolerance.

    Above ``_DENSE_ORDER`` the matrix holds its own factor: its lower
    triangle and diagonal are overwritten, then rebuilt before the call
    returns or raises, so no N x N array is allocated beside it; other
    threads must not read it meanwhile.  Every matrix ``assemble``
    returns qualifies.  Raises ``ValueError``, and writes nothing, on a
    matrix that is not a writeable C-ordered float64 array, finite and
    bitwise equal to its transpose; also on a non-positive ``tol``, a
    form without interior nodes, a matrix that is not positive definite
    or a failed ``potrs``.
    """
    result = _solve_pencil(form.matrix(), form.mass, tol, seed)
    if result.min_entry < -1e-8:
        warnings.warn(f"eigenvector negativity {result.min_entry:.3e} "
                      "exceeds clamp tolerance", RuntimeWarning, stacklevel=2)
    return result
