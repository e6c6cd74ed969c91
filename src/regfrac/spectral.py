"""Smallest eigenpair of the regional form under the lumped mass matrix.

The lumped mass matrix is h^n I: every unknown is an interior node, all
of whose 2^n incident cells are active, so A u = lambda M u reduces
cleanly to a symmetric one.  The form is Cholesky-factored once and
ARPACK's implicitly restarted Lanczos iteration (Lehoucq, Sorensen &
Yang 1998) runs on the symmetrized inverse: spectral-transformation
Lanczos, where every operator application is one LAPACK ``potrs`` on
the factor.  ARPACK stops at the caller's tolerance, and the returned
pair must then meet it on the mass-weighted residual.  Two Ritz pairs
are kept, the second for gap diagnostics.  A seeded start vector makes
equal seeds reproduce results bit for bit at a fixed BLAS thread count.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class EigenResult:
    """Converged (or best-effort) smallest eigenpair.

    ``vector`` is normalized to unit lumped-L2 norm and sign-fixed to
    nonnegative mean; ``residual`` is the mass-weighted defect
    ||A u - lambda M u||_{M^-1}.  ``second_estimate`` is the second Ritz
    value, an estimate of the next eigenvalue reported for gap
    diagnostics (equal to ``eigenvalue`` when there is none).
    ``iterations`` counts the inverse solves made.  ``min_entry`` is the
    most negative entry of the unit-norm vector before roundoff-size
    negatives are clamped (0.0 when there is none); well below zero, the
    discrete ground state changes sign and is not a ground state in the
    continuous sense.
    """

    eigenvalue: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool
    second_estimate: float
    min_entry: float = 0.0


def rayleigh_quotient(form: RegionalForm, u: np.ndarray) -> float:
    """energy(u) / <M u, u>; rejects the zero vector."""
    u = np.asarray(u, dtype=float)
    mass = float(np.dot(form.node_weights * u, u))
    if not mass > 0.0:
        raise ValueError("rayleigh quotient requires a nonzero vector")
    return form.energy(u) / mass


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


def _solve_pencil(matrix: np.ndarray, mass_diag: np.ndarray, tol: float,
                  seed: int) -> EigenResult:
    """``smallest_eigenpair`` on the pencil (matrix, diag(mass_diag))."""
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a = np.asarray(matrix)
    m = np.asarray(mass_diag, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if m.shape != (a.shape[0],):
        raise ValueError(f"mass diagonal shape {m.shape} does not match "
                         f"matrix order {a.shape[0]}")
    n = len(m)
    if n == 0:
        raise ValueError("no interior nodes")
    if not np.all(m > 0.0):
        raise ValueError("mass diagonal must be positive")
    # potrf factors an F-ordered array in place from its upper triangle,
    # where a symmetric a's view a.T holds what an F-ordered copy would
    _check_factorable(a)
    diagonal = a.diagonal().copy()
    # work in mass-symmetrized coordinates: the pencil (A, M) becomes the
    # plain symmetric problem with operator M^(-1/2) A M^(-1/2), whose
    # eigenvectors are those of A u = lambda M u scaled by M^(1/2)
    sqrt_m = np.sqrt(m)
    start = np.random.default_rng(seed).standard_normal(n)
    solves = 0
    try:
        try:
            c, lower = cho_factor(a.T, overwrite_a=True, check_finite=False)
        except ValueError as exc:  # LinAlgError is a ValueError too
            raise ValueError(
                f"matrix is not finite and positive definite: {exc}") from exc
        if n >= 3:  # ARPACK needs k < ncv <= n for k = 2 Ritz pairs
            potrs, = get_lapack_funcs(("potrs",), (c,))

            def inverse(x):
                nonlocal solves
                solves += 1
                y, info = potrs(c, sqrt_m * x, lower=lower, overwrite_b=True)
                if info != 0:
                    raise ValueError(f"LAPACK potrs failed with info {info}")
                return sqrt_m * y

            # ARPACK stops when both Ritz values meet ``tol`` relative to
            # their size, most often after one Lanczos cycle; ``tol`` is
            # then checked below on the mass-weighted residual
            op = LinearOperator((n, n), matvec=inverse, dtype=float)
            try:
                theta, vecs = eigsh(op, k=2, which="LA", v0=start, tol=tol,
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
    if n < 3:
        lams, vecs = eigh(a / np.outer(sqrt_m, sqrt_m))
    else:
        order = np.argsort(theta)[::-1]
        lams, vecs = 1.0 / theta[order], vecs[:, order]
    if len(lams):
        lam, u = float(lams[0]), vecs[:, 0] / sqrt_m
    else:  # ARPACK stopped before any Ritz pair converged
        u = start / sqrt_m
        lam = float(u @ (a @ u)) / float(np.sum(m * u * u))
    second = float(lams[1]) if len(lams) > 1 else lam

    # sign convention: nonnegative lumped mean, then clamp roundoff-size
    # negative entries to zero and renormalize
    if float(np.sum(u * m)) < 0.0:
        u = -u
    min_entry = min(0.0, float(u.min() / np.sqrt(np.sum(m * u * u))))
    u = np.where((u < 0.0) & (u > -1e-12), 0.0, u)
    u = u / np.sqrt(float(np.sum(m * u * u)))
    defect = a @ u - lam * (m * u)
    residual = float(np.sqrt(np.sum(defect * defect / m)))
    return EigenResult(eigenvalue=lam, vector=u, residual=residual,
                       iterations=solves, converged=residual <= tol,
                       second_estimate=second, min_entry=min_entry)


def smallest_eigenpair(form: RegionalForm, *, tol: float = 1e-8,
                       seed: int = 0) -> EigenResult:
    """Ground eigenpair of A u = lambda M u for the assembled form: A its
    matrix, M the diagonal of its lumped node masses.

    A is Cholesky-factored once; ARPACK's ``eigsh``, started from a
    vector drawn from ``seed``, then finds the two largest eigenvalues
    of M^(1/2) A^(-1) M^(1/2): 1/lambda_1 and 1/lambda_2.  Each operator
    application is one LAPACK ``potrs`` on the factor.  ARPACK stops
    when both Ritz values meet ``tol`` relative to their size, usually
    after its first Lanczos cycle and never near its fixed restart cap;
    the result is converged when the mass-weighted residual of the
    returned pair is at most ``tol``, so an early or loose stop (an
    unattainable ``tol`` included) is flagged, not raised.
    ``second_estimate`` is a Ritz value, whose error is quadratic in its
    residual: at ``tol`` 1e-8 it is within 1e-13 relative of a dense
    eigensolve on 1-3 d balls, boxes and annuli, near-double second
    eigenvalues included.  Orders below 3, which ARPACK cannot take, use
    a dense ``eigh``.  A ``RuntimeWarning`` names the calling line when
    the vector's negativity exceeds the clamp tolerance.

    The matrix holds its own factor: its lower triangle and diagonal
    are overwritten, then rebuilt before the call returns or raises, so
    no N x N array is allocated beside it; other threads must not read
    it meanwhile.  Every matrix ``assemble`` returns qualifies.  Raises
    ``ValueError``, and writes nothing, on a matrix that is not a
    writeable C-ordered float64 array, finite and bitwise equal to its
    transpose; also on a non-positive ``tol``, a form without interior
    nodes, a matrix that is not positive definite or a failed ``potrs``.
    """
    result = _solve_pencil(form.matrix(), form.node_weights, tol, seed)
    if result.min_entry < -1e-8:
        warnings.warn(f"eigenvector negativity {result.min_entry:.3e} "
                      "exceeds clamp tolerance", RuntimeWarning, stacklevel=2)
    return result
