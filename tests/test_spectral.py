"""Tests for the smallest-eigenpair solver and its residual certificates."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

import regfrac.spectral
from regfrac.gagliardo import _node_masses, assemble, build_near_table
from regfrac.geometry import Annulus, Ball, Box, DomainMask, GridSpec, make_mask
from regfrac.spectral import (
    EigenResult,
    _orbits,
    _solve_pencil,
    rayleigh_quotient,
    smallest_eigenpair,
)


@pytest.fixture(scope="module")
def ball_pair(ball_form):
    return smallest_eigenpair(ball_form, tol=1e-10, seed=0)


@pytest.fixture(scope="module")
def ball24_form(table2):
    # a 24^2 ball off the grid's centre on both axes and off the diagonal,
    # N = 253: above the dense order, and with no symmetry to fold on, so
    # solved by factor + Lanczos
    grid = GridSpec(cells=(24, 24), spacing=2.0 / 24, origin=(-1.0, -1.0))
    form = assemble(make_mask(grid, Ball(center=(0.03, 0.05), radius=0.8)),
                    0.75, table=table2)
    assert form.size > regfrac.spectral._DENSE_ORDER
    assert _orbits(form.mask) is None
    return form


@pytest.fixture(scope="module")
def centred_ball24_form(table2):
    # the eigen-ladder's 24^2 ball, N = 245 in 39 orbits of the eight
    # symmetries of the square: solved on its orbit basis
    grid = GridSpec(cells=(24, 24), spacing=2.0 / 24, origin=(-1.0, -1.0))
    return assemble(make_mask(grid, Ball(center=(0.0, 0.0), radius=0.8)),
                    0.75, table=table2)


def _residual_report(form, result, threshold=0.0):
    """Split the eigen-equation defect across the support of the vector.

    Restricting to nodes with u > threshold mirrors testing the
    eigen-equation against functions supported where u is positive; on
    the remaining nodes only a one-sided (subsolution) bound is
    meaningful, so the largest signed defect is reported instead.
    """
    if not result.converged:
        raise ValueError("residual report requires a converged result")
    u = np.asarray(result.vector, dtype=float)
    m = form.mass
    defect = form.apply(u) - result.eigenvalue * (m * u)
    support = u > threshold
    inside, outside = defect[support], defect[~support]
    return SimpleNamespace(
        support_count=int(support.sum()),
        support_residual=float(np.sqrt(np.sum(inside * inside / m))),
        complement_defect=float(outside.max()) if outside.size else 0.0)


def test_injected_two_by_two():
    # Known eigensystem: eigenvalues 1 and 3, ground vector (1,1)/sqrt(2).
    matrix = np.array([[2.0, -1.0], [-1.0, 2.0]])
    res = _solve_pencil(matrix, 1.0, 1e-12, 1)
    assert res.converged
    assert abs(res.eigenvalue - 1.0) < 1e-12
    assert np.allclose(res.vector, np.full(2, 1.0 / np.sqrt(2.0)), atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_smallest_orders_match_generalized_eigh(n):
    # orders 1 to 3: the smallest the dense path takes
    rng = np.random.default_rng(10 + n)
    matrix = (np.diag(2.0 + rng.uniform(0.0, 1.0, n))
              - np.eye(n, k=1) - np.eye(n, k=-1))
    mass = rng.uniform(0.5, 2.0)
    res = _solve_pencil(matrix, mass, 1e-12, 0)
    exact, vecs = scipy.linalg.eigh(matrix, mass * np.eye(n))
    assert res.converged
    assert abs(res.eigenvalue - exact[0]) <= 1e-12 * exact[0]
    ref = vecs[:, 0] * np.sign(np.sum(vecs[:, 0]))
    assert float(np.max(np.abs(res.vector - ref))) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lumped_mass_is_the_cell_volume(dim, table1, table2):
    """Every unknown is an interior node, all of whose 2^n incident
    cells are active, so its lumped mass is exactly h^n: the form's one
    mass is bitwise the dual-cell mass at every interior node."""
    cells = {1: 24, 2: 16, 3: 10}[dim]
    grid = GridSpec(cells=(cells,) * dim, spacing=2.0 / cells,
                    origin=(-1.0,) * dim)
    sigma, table = {1: (0.25, table1), 2: (0.75, table2),
                    3: (0.5, build_near_table(3, 0.5))}[dim]
    ell = np.ones(grid.cells, dtype=bool)
    ell[(slice(cells // 2, None),) * dim] = False
    h = grid.spacing
    for mask in (make_mask(grid, Ball(center=(0.0,) * dim, radius=0.9)),
                 make_mask(grid, Annulus(center=(0.0,) * dim, r_inner=0.3,
                                         r_outer=0.95)),
                 DomainMask(grid, ell)):
        form = assemble(mask, sigma, table=table)
        assert form.size > 0
        assert form.mass == h ** dim
        masses = _node_masses(mask)[tuple(mask.interior_idx.T)]
        assert np.array_equal(masses.view(np.int64),
                              np.full(form.size, form.mass).view(np.int64))


def test_ground_state_contract(ball_form, ball_pair):
    res = ball_pair
    assert res.converged
    assert res.eigenvalue > 0.0
    assert res.residual <= 1e-10
    assert res.vector.min() >= -1e-12
    assert -1e-12 <= res.min_entry <= 0.0
    mass_norm = float(np.sum(ball_form.mass * res.vector ** 2))
    assert abs(mass_norm - 1.0) <= 1e-12


def test_eigenvalue_scaling_law(ball_form, table2, ball_pair):
    # Dilating the domain by t scales the ground eigenvalue by t^(-2*sigma).
    mask = ball_form.mask
    dilated = DomainMask(mask.grid.scaled(2.0), mask.active)
    form_t = assemble(dilated, 0.75, table=table2)
    res_t = smallest_eigenpair(form_t, tol=1e-10, seed=0)
    expected = ball_pair.eigenvalue * 2.0 ** -1.5
    assert abs(res_t.eigenvalue - expected) <= 1e-10 * expected


def test_eigenvalue_strictly_positive(box_form, table1):
    assert smallest_eigenpair(box_form, tol=1e-8).eigenvalue > 0.0
    grid = GridSpec(cells=(6,), spacing=1.0 / 6.0, origin=(0.0,))
    skinny = assemble(make_mask(grid, Box(lo=(0.0,), hi=(1.0,))), 0.25,
                      table=table1)
    assert smallest_eigenpair(skinny, tol=1e-8).eigenvalue > 0.0


def test_solver_deterministic(ball_form):
    a = smallest_eigenpair(ball_form, tol=1e-9, seed=7)
    b = smallest_eigenpair(ball_form, tol=1e-9, seed=7)
    assert a.eigenvalue == b.eigenvalue
    assert np.array_equal(a.vector, b.vector)
    assert a.iterations == b.iterations


def test_eigenvalue_is_quotient_below_start(ball_form, ball_pair):
    lam = ball_pair.eigenvalue
    assert abs(rayleigh_quotient(ball_form, ball_pair.vector) - lam) <= 1e-12 * lam
    # the start vector the Lanczos path would draw, in mass-symmetrized
    # coordinates
    start = (np.random.default_rng(0).standard_normal(ball_form.size)
             / np.sqrt(ball_form.mass))
    assert lam <= rayleigh_quotient(ball_form, start)


def test_refinement_decreases_eigenvalue(table1):
    # Same continuum interval, three nested node refinements.
    values = []
    for cells in (8, 16, 32):
        grid = GridSpec(cells=(cells,), spacing=1.0 / cells, origin=(0.0,))
        form = assemble(make_mask(grid, Box(lo=(0.0,), hi=(1.0,))), 0.25,
                        table=table1)
        values.append(smallest_eigenpair(form, tol=1e-10).eigenvalue)
    assert values[0] > values[1] > values[2] > 0.0


def test_eigenvalue_falls_to_zero_below_one_half(table1):
    # at sigma 1/4 the infimum over domains is 0: on [-1, 1], lambda_h
    # falls like h^(1 - 2 sigma) = h^(1/2) on every halving from 64 to
    # 1024 cells (measured 0.495-0.496) instead of converging to a
    # positive limit, which is why optimize requires sigma > 1/2
    values = []
    for cells in (64, 128, 256, 512, 1024):
        grid = GridSpec(cells=(cells,), spacing=2.0 / cells, origin=(-1.0,))
        form = assemble(make_mask(grid, Box(lo=(-1.0,), hi=(1.0,))), 0.25,
                        table=table1)
        values.append(smallest_eigenpair(form, tol=1e-10).eigenvalue)
    orders = np.log2(np.divide(values[:-1], values[1:]))
    assert np.all((0.45 <= orders) & (orders <= 0.55)), orders


def test_rayleigh_quotient_contract(ball_form, ball_pair):
    lam = ball_pair.eigenvalue
    assert abs(rayleigh_quotient(ball_form, ball_pair.vector) - lam) <= 1e-12 * lam
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = rng.standard_normal(ball_form.size)
        q = rayleigh_quotient(ball_form, u)
        assert q >= lam - 1e-10
        scaled = rayleigh_quotient(ball_form, 7.0 * u)
        assert abs(scaled - q) <= 1e-13 * q


def test_rayleigh_quotient_rejects_zero(ball_form):
    with pytest.raises(ValueError, match="nonzero"):
        rayleigh_quotient(ball_form, np.zeros(ball_form.size))


def test_residual_report_on_solution(ball_form, ball_pair):
    report = _residual_report(ball_form, ball_pair)
    assert report.support_count == ball_form.size
    assert report.support_residual <= 1e-10
    assert report.complement_defect <= 1e-8
    # raising the threshold exposes the one-sided check on the rest
    peak = float(ball_pair.vector.max())
    clipped = _residual_report(ball_form, ball_pair, threshold=0.5 * peak)
    assert 0 < clipped.support_count < ball_form.size
    assert clipped.complement_defect <= 1e-8


def test_residual_report_detects_non_solution(ball_form, ball_pair):
    rng = np.random.default_rng(9)
    vec = ball_pair.vector + 0.05 * rng.standard_normal(ball_form.size)
    fake = EigenResult(eigenvalue=rayleigh_quotient(ball_form, vec),
                       vector=vec, residual=0.0, iterations=0, converged=True)
    report = _residual_report(ball_form, fake)
    assert report.support_residual > 10 * 1e-10


def test_residual_report_requires_convergence(ball_form, ball_pair):
    stale = EigenResult(eigenvalue=ball_pair.eigenvalue,
                        vector=ball_pair.vector, residual=1.0, iterations=5,
                        converged=False)
    with pytest.raises(ValueError, match="converged"):
        _residual_report(ball_form, stale)


def test_unconverged_is_flagged_not_raised(ball24_form, monkeypatch):
    # count the operator applications ARPACK makes, outside the solver
    applied = []
    real = regfrac.spectral.eigsh

    def counting(op, k, **kwargs):
        def matvec(x):
            applied.append(1)
            return op.matvec(x)

        return real(LinearOperator(op.shape, matvec=matvec, dtype=op.dtype),
                    k, **kwargs)

    monkeypatch.setattr(regfrac.spectral, "eigsh", counting)
    res = smallest_eigenpair(ball24_form, tol=1e-14, seed=0)
    assert not res.converged
    assert res.iterations == len(applied) > 0
    assert np.isfinite(res.residual)


def test_one_lanczos_cycle_on_near_double_second_eigenvalue(table2):
    # an off-centre near-ball: lambda_2 and lambda_3 split by under 1%,
    # which at a Ritz-value tolerance of 1e-14 cost a second restart
    # cycle (38 solves); at the caller's 1e-8 ARPACK stops after its
    # first cycle, 21 solves at scipy's default ncv = 20
    grid = GridSpec(cells=(20, 20), spacing=0.1, origin=(-1.0, -1.0))
    mask = make_mask(grid, Ball(center=(0.02, 0.0), radius=0.87))
    form = assemble(mask, 0.75, table=table2)
    exact = scipy.linalg.eigh(
        form.matrix() / form.mass,
        eigvals_only=True, subset_by_index=[0, 2])
    assert exact[2] / exact[1] - 1.0 < 1e-2
    res = smallest_eigenpair(form, tol=1e-8, seed=0)
    assert res.iterations <= 21
    assert res.converged
    assert abs(res.eigenvalue - exact[0]) <= 1e-10 * exact[0]


def test_one_lanczos_cycle_on_off_centre_three_dimensional_ball():
    # N = 220, above the dense order: one Lanczos cycle of 21 solves
    # meets 1e-8 on the ground Ritz value; a second Ritz pair, were it
    # asked for, would take this form a second cycle (38 solves)
    grid = GridSpec(cells=(12, 12, 12), spacing=2.0 / 12,
                    origin=(-1.0, -1.0, -1.0))
    mask = make_mask(grid, Ball(center=(0.1, 0.0, 0.0), radius=0.75))
    form = assemble(mask, 0.5, table=build_near_table(3, 0.5))
    assert form.size == 220
    exact = scipy.linalg.eigh(
        form.matrix() / form.mass,
        eigvals_only=True, subset_by_index=[0, 0])
    res = smallest_eigenpair(form, tol=1e-8, seed=0)
    assert res.converged
    assert res.iterations <= 21
    assert abs(res.eigenvalue - exact[0]) <= 1e-12


def test_no_converged_pair_returns_start_vector(ball24_form, monkeypatch):
    def stalled(op, k, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0),
                                  np.empty((op.shape[0], 0)))

    monkeypatch.setattr(regfrac.spectral, "eigsh", stalled)
    # a random start vector is far from nonnegative
    with pytest.warns(RuntimeWarning, match="negativity"):
        res = smallest_eigenpair(ball24_form, tol=1e-8, seed=0)
    assert not res.converged
    assert res.iterations == 0
    assert np.isfinite(res.residual) and res.residual > 1e-8
    m = ball24_form.mass
    start = (np.random.default_rng(0).standard_normal(ball24_form.size)
             / np.sqrt(m))
    start = start * np.sign(np.sum(m * start)) / np.sqrt(np.sum(m * start ** 2))
    assert float(np.max(np.abs(res.vector - start))) <= 1e-12
    assert abs(res.eigenvalue - rayleigh_quotient(ball24_form, start)) \
        <= 1e-12 * res.eigenvalue


def test_empty_and_invalid_inputs():
    with pytest.raises(ValueError, match="no interior nodes"):
        _solve_pencil(np.zeros((0, 0)), 1.0, 1e-8, 0)
    with pytest.raises(ValueError, match="tolerance"):
        _solve_pencil(np.eye(2), 1.0, 0.0, 0)
    with pytest.raises(ValueError, match="square"):
        _solve_pencil(np.ones((2, 3)), 1.0, 1e-8, 0)
    with pytest.raises(ValueError, match="square"):
        _solve_pencil(np.ones(4), 1.0, 1e-8, 0)
    for mass in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="mass must be positive"):
            _solve_pencil(np.eye(2), mass, 1e-8, 0)


def test_indefinite_matrix_rejected():
    # eigenvalues -1 and 3: the Cholesky factorization fails at pivot 2
    with pytest.raises(ValueError, match="positive definite"):
        _solve_pencil(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0, 1e-8, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_matrix_rejected(bad):
    # the factorization never reads the lower triangle, so only the
    # solver's own pass over every entry rejects a value there; with its
    # mirror in the upper triangle the matrix is bitwise symmetric
    for pair in (False, True):
        matrix = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0],
                           [0.0, -1.0, 2.0]])
        matrix[2, 0] = bad
        if pair:
            matrix[0, 2] = bad
        before = matrix.copy()
        with pytest.raises(ValueError, match="not finite.*infs or NaNs"):
            _solve_pencil(matrix, 1.0, 1e-8, 0)
        assert _same_bits(matrix, before)


def _rounded_product(n):
    # ground vector (1, ..., 1, -1/2) up to scale: its mean is positive,
    # so the sign convention keeps the negative last entry.  The product
    # is symmetric only up to rounding
    ground = np.ones(n)
    ground[-1] = -0.5
    basis, _ = np.linalg.qr(np.column_stack(
        [ground, np.random.default_rng(3).standard_normal((n, n - 1))]))
    return basis @ np.diag(np.arange(1.0, n + 1.0)) @ basis.T


def _mirrored(matrix):
    """``matrix`` with its strict lower triangle copied from the upper
    one: bitwise symmetric."""
    out = matrix.copy()
    i, j = np.tril_indices(len(out), -1)
    out[i, j] = out[j, i]
    return out


def test_negativity_warning_names_the_caller(box_form):
    # the warning points at the line that called the solver, not at a
    # line inside spectral.py.  The pencil (M^1/2 B M^1/2, M) has the
    # vectors M^-1/2 v of B's
    root = np.sqrt(box_form.mass)
    matrix = _mirrored(root * _rounded_product(box_form.size) * root)
    form = dataclasses.replace(box_form, _matrix=matrix)
    with pytest.warns(RuntimeWarning, match="negativity") as record:
        assert smallest_eigenpair(form).min_entry < -1e-8
    assert [w.filename for w in record] == [__file__]


def test_failed_inner_solve_raises(ball24_form, monkeypatch):
    # potrs flags an illegal argument with info < 0: its output is
    # never used as an operator application
    def failing(c, b, **kwargs):
        return np.zeros_like(b), -2

    monkeypatch.setattr(regfrac.spectral, "get_lapack_funcs",
                        lambda names, arrays: (failing,))
    before = ball24_form.matrix().copy()
    with pytest.raises(ValueError, match="potrs failed with info -2"):
        smallest_eigenpair(ball24_form, tol=1e-8, seed=0)
    # the factor sat in the form's matrix: an error rebuilds it too
    assert _same_bits(ball24_form.matrix(), before)


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.fixture
def factored(monkeypatch):
    """Per call of cho_factor in the solver: the array it was given and,
    when it succeeded, the factor it returned."""
    calls = []
    real = regfrac.spectral.cho_factor

    def recording(a, **kwargs):
        call = {"given": a}
        calls.append(call)
        call["factor"], lower = real(a, **kwargs)
        return call["factor"], lower

    monkeypatch.setattr(regfrac.spectral, "cho_factor", recording)
    return calls


def test_solve_factors_the_form_matrix_in_place(ball24_form, factored,
                                                monkeypatch):
    # the factor is computed in the form's own storage (a SciPy that
    # copied the transposed view fails here), the matrix is bitwise the
    # same afterwards, and every result field is bitwise that of the
    # reference solve, which factors an F-ordered copy instead
    matrix = ball24_form.matrix()
    before = matrix.copy()
    res = smallest_eigenpair(ball24_form, tol=1e-10, seed=3)
    assert np.shares_memory(factored[0]["factor"], matrix)
    assert _same_bits(matrix, before)
    in_place = regfrac.spectral.cho_factor
    monkeypatch.setattr(regfrac.spectral, "cho_factor",
                        lambda a, **kwargs: in_place(np.array(a, order="F"),
                                                     **kwargs))
    ref = smallest_eigenpair(ball24_form, tol=1e-10, seed=3)
    assert not np.shares_memory(factored[1]["given"], matrix)
    assert _same_bits(matrix, before)
    for f in dataclasses.fields(EigenResult):
        assert _same_bits(np.asarray(getattr(res, f.name)),
                          np.asarray(getattr(ref, f.name))), f.name


def test_lanczos_post_processing_replayed(ball24_form, monkeypatch):
    # ARPACK's Ritz pair, recorded, and the solver's steps after it
    # replayed by hand: lambda = 1/theta, u = v / sqrt(m), the sign, the
    # most negative entry, the clamp, the renormalization and the
    # residual.  Every result field is bitwise the replay's, so a slip
    # of one bit in the scaling fails here.
    recorded = []
    real = regfrac.spectral.eigsh

    def recording(op, **kwargs):
        def counted(x):
            recorded.append(None)
            return op.matvec(x)

        out = real(LinearOperator(op.shape, matvec=counted, dtype=float),
                   **kwargs)
        recorded.append(tuple(np.array(a) for a in out))
        return out

    monkeypatch.setattr(regfrac.spectral, "eigsh", recording)
    tol = 1e-10
    res = smallest_eigenpair(ball24_form, tol=tol, seed=3)
    *calls, (theta, vecs) = recorded
    mass = ball24_form.mass
    lam, u = float((1.0 / theta)[0]), vecs[:, 0] / math.sqrt(mass)
    if float(np.sum(u * mass)) < 0.0:
        u = -u
    min_entry = min(0.0, float(u.min() / np.sqrt(np.sum(mass * u * u))))
    u = np.where((u < 0.0) & (u > -1e-12), 0.0, u)
    u = u / np.sqrt(float(np.sum(mass * u * u)))
    defect = ball24_form.matrix() @ u - lam * (mass * u)
    residual = float(np.sqrt(np.sum(defect * defect / mass)))
    replay = EigenResult(eigenvalue=lam, vector=u, residual=residual,
                         iterations=len(calls), converged=residual <= tol,
                         min_entry=min_entry)
    assert len(calls) > 0
    for f in dataclasses.fields(EigenResult):
        assert _same_bits(np.asarray(getattr(res, f.name)),
                          np.asarray(getattr(replay, f.name))), f.name


def test_matrix_restored_when_factorization_fails(ball24_form, factored):
    # a negative pivot halfway down: potrf has overwritten half of the
    # lower triangle and diagonal when it stops
    matrix = ball24_form.matrix().copy()
    k = len(matrix) // 2
    matrix[k, k] = -matrix[k, k]
    before = matrix.copy()
    with pytest.raises(ValueError, match=f"{k + 1}-th leading minor"):
        _solve_pencil(matrix, ball24_form.mass, 1e-8, 0)
    assert np.shares_memory(factored[0]["given"], matrix)
    assert _same_bits(matrix, before)


def _rejected_unwritten(form, matrix, match, factored):
    """``smallest_eigenpair`` on ``form`` with ``matrix`` raises a
    ``ValueError`` matching ``match`` before any factorization, and
    leaves ``matrix`` bitwise as it was."""
    before = matrix.copy()
    with pytest.raises(ValueError, match=match):
        smallest_eigenpair(dataclasses.replace(form, _matrix=matrix))
    assert not factored
    assert _same_bits(matrix, before)


@pytest.mark.parametrize("flip", ["ulp", "signed zero", "rounded"])
def test_asymmetric_matrix_is_never_written(flip, box_form, factored):
    # rebuilding the lower triangle from the upper one would change a
    # matrix that is not bitwise symmetric, so it is rejected.  The flips
    # differ from the transpose in one last bit, in the sign of one zero,
    # and by rounding in many entries
    matrix = box_form.matrix().copy()
    if flip == "ulp":
        matrix[0, 1] = np.nextafter(matrix[0, 1], 0.0)
    elif flip == "signed zero":
        matrix[0, -1], matrix[-1, 0] = -0.0, 0.0
    else:
        matrix = _rounded_product(box_form.size)
        assert not np.array_equal(matrix, matrix.T)
    _rejected_unwritten(box_form, matrix, "not bitwise symmetric", factored)


def _read_only(matrix):
    matrix.flags.writeable = False
    return matrix


@pytest.mark.parametrize("make, match", [
    (_read_only, "writeable C-ordered float64"),
    (np.asfortranarray, "writeable C-ordered float64"),
    (lambda a: np.where(np.eye(len(a), dtype=bool), np.inf, a),
     "not finite.*infs or NaNs"),
], ids=["read-only", "F-ordered", "non-finite"])
def test_unfit_matrix_is_rejected_unwritten(make, match, box_form, factored):
    _rejected_unwritten(box_form, make(box_form.matrix().copy()), match,
                        factored)


def _negative_pivot(matrix):
    k = len(matrix) // 2
    matrix[k, k] = -matrix[k, k]
    return matrix


@pytest.mark.parametrize("name", ["box_form", "ball24_form",
                                  "centred_ball24_form"],
                         ids=["dense", "lanczos", "fold"])
@pytest.mark.parametrize("make, match", [
    (_negative_pivot, "not finite and positive definite"),
    (lambda a: np.where(np.eye(len(a), dtype=bool), np.nan, a),
     "not finite.*infs or NaNs"),
    (lambda a: _mirrored(a) + np.eye(len(a), k=1) * 1e-3,
     "not bitwise symmetric"),
    (_read_only, "writeable C-ordered float64"),
], ids=["indefinite", "non-finite", "asymmetric", "read-only"])
def test_unfit_matrix_leaves_it_untouched_on_both_paths(name, make, match,
                                                        request):
    # every input check sits in front of both paths and of the fold, so
    # each rejects the same matrices with the same message and writes
    # nothing; an indefinite matrix reaches the dense eigh, the Cholesky
    # factor or, its negated pivot being the centre node's own orbit,
    # the dense eigh of the folded form
    form = request.getfixturevalue(name)
    dense = form.size <= regfrac.spectral._DENSE_ORDER
    assert dense == (name == "box_form")
    matrix = make(form.matrix().copy())
    before = matrix.copy()
    with pytest.raises(ValueError, match=match):
        smallest_eigenpair(dataclasses.replace(form, _matrix=matrix))
    assert _same_bits(matrix, before)


@pytest.mark.parametrize("name", ["box_form", "ball_form", "ball24_form"])
def test_dense_and_lanczos_paths_agree(name, request, monkeypatch):
    # N = 81 and 137 sit at or below the dense order, 253 above it: each
    # form is solved unfolded by both paths, forced by moving the order,
    # and the unforced solve, which does not fold at these forms, is
    # bitwise the forced one of its own side
    form = request.getfixturevalue(name)
    own = "dense" if form.size <= regfrac.spectral._DENSE_ORDER else "lanczos"
    default = smallest_eigenpair(form, tol=1e-10, seed=4)
    results = {}
    for path, order in (("dense", form.size), ("lanczos", form.size - 1)):
        monkeypatch.setattr(regfrac.spectral, "_DENSE_ORDER", order)
        results[path] = _solve_pencil(form.matrix(), form.mass, 1e-10, 4)
    dense, lanczos = results["dense"], results["lanczos"]
    assert dense.converged and lanczos.converged
    assert dense.iterations == 0 < lanczos.iterations
    lam = dense.eigenvalue
    assert abs(lanczos.eigenvalue - lam) <= 1e-12 * lam
    assert float(np.max(np.abs(lanczos.vector - dense.vector))) <= 1e-10
    for f in dataclasses.fields(EigenResult):
        assert _same_bits(np.asarray(getattr(default, f.name)),
                          np.asarray(getattr(results[own], f.name))), f.name


@pytest.fixture(scope="module")
def box48_form(table2):
    # the largest eigen-ladder form of the benchmark, N = 1089
    grid = GridSpec(cells=(48, 48), spacing=2.0 / 48, origin=(-1.0, -1.0))
    return assemble(make_mask(grid, Box(lo=(-0.7, -0.7), hi=(0.7, 0.7))),
                    0.75, table=table2)


def test_solve_allocates_no_matrix_beside_the_form(box48_form):
    # a factor copy would take A.nbytes, and a finiteness mask over
    # all of A an eighth of it
    tracemalloc.start()
    try:
        smallest_eigenpair(box48_form, tol=1e-8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < box48_form.matrix().nbytes / 8


def test_mass_diagonal_bookkeeping(box_form):
    m = box_form.mass
    assert m > 0.0
    boundary = _node_masses(box_form.mask)[tuple(box_form.mask.boundary_idx.T)]
    total = float(m * box_form.size + np.sum(boundary))
    assert abs(total - box_form.mask.volume) <= 1e-12 * box_form.mask.volume


def _reference_pcg(apply_a, pre_inv, b, threshold, max_steps):
    """The Jacobi-preconditioned CG inner solve the eigensolver used
    before it factored the form; kept as the reference."""
    x = np.zeros_like(b)
    r = b.copy()
    z = pre_inv * r
    p = z.copy()
    rz = float(np.dot(r, z))
    for _ in range(max_steps):
        ap = apply_a(p)
        denom = float(np.dot(p, ap))
        if denom <= 0.0:
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        if float(np.linalg.norm(r)) <= threshold * float(np.linalg.norm(x)):
            break
        z = pre_inv * r
        rz_next = float(np.dot(r, z))
        beta = rz_next / rz
        rz = rz_next
        p = z + beta * p
    return x


def _reference_orthonormalize(block):
    q, r = np.linalg.qr(block)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs[None, :]


def _reference_pencil(matrix, m, tol, seed):
    """Block-2 inverse iteration with PCG inner solves at a tenth of
    ``tol``: (eigenvalue, mass-normalized vector, outer steps)."""
    n = len(matrix)
    sqrt_m = np.sqrt(m)

    def apply_sym(v):
        return (matrix @ (v / sqrt_m)) / sqrt_m

    pre_inv = m / np.diag(matrix)
    block = np.random.default_rng(seed).standard_normal((n, 2))
    block = _reference_orthonormalize(block)
    for iterations in range(1, 201):
        solved = np.column_stack([
            _reference_pcg(apply_sym, pre_inv, block[:, j], 0.1 * tol, n + 100)
            for j in range(2)])
        block = _reference_orthonormalize(solved)
        images = np.column_stack([apply_sym(block[:, j]) for j in range(2)])
        gram = block.T @ images
        theta, ritz = np.linalg.eigh(0.5 * (gram + gram.T))
        block = block @ ritz
        images = images @ ritz
        lam = float(theta[0])
        if np.linalg.norm(images[:, 0] - lam * block[:, 0]) <= tol:
            break
    u = block[:, 0] / sqrt_m
    u = u if float(np.sum(u * m)) >= 0.0 else -u
    return lam, u / np.sqrt(float(np.sum(m * u * u))), iterations


@pytest.fixture(scope="module")
def annulus_form(table2):
    # thin 40x40 annulus: the smallest spectral gap of the three cases
    grid = GridSpec(cells=(40, 40), spacing=2.0 / 40, origin=(-1.0, -1.0))
    mask = make_mask(grid, Annulus(center=(0.0, 0.0), r_inner=0.3, r_outer=0.8))
    return assemble(mask, 0.75, table=table2)


@pytest.mark.parametrize("name", ["ball_form", "box_form", "annulus_form"])
def test_factored_solves_match_reference_and_dense_oracle(name, request):
    form = request.getfixturevalue(name)
    matrix, m = form.matrix(), form.mass
    res = smallest_eigenpair(form, tol=1e-10, seed=5)
    assert res.converged
    lam_ref, u_ref, iters_ref = _reference_pencil(matrix, m, 1e-10, seed=5)
    assert abs(res.eigenvalue - lam_ref) <= 1e-12 * lam_ref
    assert float(np.max(np.abs(res.vector - u_ref))) <= 1e-8
    assert res.iterations <= 2 * iters_ref
    # dense oracle on the matrix scaled by the mass
    exact = scipy.linalg.eigh(matrix / m, eigvals_only=True,
                              subset_by_index=[0, 0])
    assert abs(res.eigenvalue - exact[0]) <= 1e-10 * exact[0]


@pytest.fixture
def solved_orders(monkeypatch):
    """The order of every matrix the solver hands to its dense or
    factor + Lanczos step, in call order."""
    orders = []
    real = regfrac.spectral._ground_pair

    def recording(a, *args):
        orders.append(len(a))
        return real(a, *args)

    monkeypatch.setattr(regfrac.spectral, "_ground_pair", recording)
    return orders


def _symmetric_form(name, table1, table2):
    if name == "interval400":
        # 399 nodes in 200 orbits: the folded form, above the dense
        # order too, is factored and solved by Lanczos
        grid = GridSpec(cells=(400,), spacing=2.0 / 400, origin=(-1.0,))
        return assemble(make_mask(grid, Box(lo=(-1.0,), hi=(1.0,))), 0.25,
                        table=table1)
    if name == "ball56":
        # 1481 nodes in 204 orbits: fold + Lanczos in 2-d
        grid = GridSpec(cells=(56, 56), spacing=2.0 / 56, origin=(-1.0, -1.0))
        return assemble(make_mask(grid, Ball(center=(0.0, 0.0), radius=0.8)),
                        0.75, table=table2)
    # 24 x 32 cells: flips apply, the axis swap does not
    grid = GridSpec(cells=(24, 32), spacing=1.0 / 16, origin=(-0.75, -1.0))
    return assemble(make_mask(grid, Box(lo=(-0.6, -0.8), hi=(0.6, 0.8))),
                    0.75, table=table2)


@pytest.mark.parametrize("name", ["interval400", "centred_ball24_form",
                                  "annulus_form", "box48_form", "box24x32",
                                  "ball56"])
def test_folded_and_unfolded_solves_agree(name, request, table1, table2,
                                          solved_orders):
    form = (request.getfixturevalue(name) if name.endswith("_form")
            else _symmetric_form(name, table1, table2))
    orbit, sizes = _orbits(form.mask)
    assert form.size > regfrac.spectral._DENSE_ORDER
    assert len(sizes) < form.size == len(orbit) == sizes.sum()
    if name == "box24x32":
        assert sizes.max() == 4
    matrix = form.matrix()
    before = matrix.copy()
    folded = smallest_eigenpair(form, tol=1e-10, seed=2)
    # the folded pair was accepted: no unfolded solve followed it
    assert solved_orders == [len(sizes)]
    assert _same_bits(matrix, before)
    unfolded = _solve_pencil(matrix, form.mass, 1e-10, 2)
    assert folded.converged and unfolded.converged
    assert folded.min_entry == 0.0 and folded.vector.min() > 0.0
    assert (folded.iterations > 0) == (len(sizes)
                                       > regfrac.spectral._DENSE_ORDER)
    lam = unfolded.eigenvalue
    assert abs(folded.eigenvalue - lam) <= 1e-12 * lam
    assert float(np.max(np.abs(folded.vector - unfolded.vector))) <= 1e-10


def test_orbits_of_symmetric_masks(centred_ball24_form):
    # the centred 24^2 ball has the eight symmetries of the square: its
    # 245 nodes fall into 39 orbits, of 1 (the centre), 4 or 8 nodes, and
    # the image of a node under any of them lies in the node's orbit
    mask = centred_ball24_form.mask
    orbit, sizes = _orbits(mask)
    assert len(sizes) == 39
    assert sorted(set(sizes.tolist())) == [1, 4, 8]
    labels = np.full(mask.grid.node_shape, -1)
    labels[tuple(mask.interior_idx.T)] = orbit
    for image in (labels[::-1], labels[:, ::-1], labels.T, labels.T[::-1]):
        assert np.array_equal(image, labels)
    # a triangle is symmetric under the diagonal swap alone
    active = np.tril(np.ones((12, 12), dtype=bool))
    orbit, sizes = _orbits(DomainMask(GridSpec(cells=(12, 12), spacing=0.1,
                                               origin=(0.0, 0.0)), active))
    assert sizes.max() == 2


def test_asymmetric_masks_get_the_trivial_group(ball24_form):
    rng = np.random.default_rng(5)
    ell = np.ones((12, 12), dtype=bool)
    ell[6:, 8:] = False
    masks = [ball24_form.mask,
             DomainMask(GridSpec(cells=(12, 12), spacing=0.1,
                                 origin=(0.0, 0.0)), ell),
             DomainMask(GridSpec(cells=(20,), spacing=0.1, origin=(0.0,)),
                        np.arange(20) != 3)]
    for dim in (2, 3):
        active = rng.random((9,) * dim) < 0.8
        masks.append(DomainMask(GridSpec(cells=(9,) * dim, spacing=0.1,
                                         origin=(0.0,) * dim), active))
    for mask in masks:
        assert len(mask.interior_idx) > 0
        assert _orbits(mask) is None


@pytest.mark.parametrize("case", ["ball3d", "positive2d"])
def test_forms_with_positive_couplings_are_never_folded(case, solved_orders):
    # a symmetric mask whose form has a positive off-diagonal entry: a 3-d
    # ball (positive face couplings) and a 2-d ball at sigma 1/4 (offset
    # (1, 0)); the result is bitwise the unfolded solve's
    if case == "ball3d":
        grid = GridSpec(cells=(12, 12, 12), spacing=2.0 / 12,
                        origin=(-1.0, -1.0, -1.0))
        form = assemble(make_mask(grid, Ball(center=(0.0,) * 3,
                                             radius=0.75)),
                        0.5, table=build_near_table(3, 0.5))
    else:
        grid = GridSpec(cells=(24, 24), spacing=2.0 / 24, origin=(-1.0, -1.0))
        form = assemble(make_mask(grid, Ball(center=(0.0, 0.0), radius=0.8)),
                        0.25, table=build_near_table(2, 0.25))
    matrix = form.matrix()
    assert form.size > regfrac.spectral._DENSE_ORDER
    assert _orbits(form.mask) is not None
    assert (matrix - np.diag(np.diag(matrix))).max() > 0.0
    res = smallest_eigenpair(form, tol=1e-8, seed=1)
    assert solved_orders == [form.size]
    ref = _solve_pencil(matrix, form.mass, 1e-8, 1)
    for f in dataclasses.fields(EigenResult):
        assert _same_bits(np.asarray(getattr(res, f.name)),
                          np.asarray(getattr(ref, f.name))), f.name


def test_fold_rejected_when_the_matrix_breaks_invariance(centred_ball24_form,
                                                         solved_orders):
    # the centred ball's mask keeps its symmetries, but one node's
    # diagonal entry is raised by a tenth: the matrix is still a
    # symmetric positive definite Z-matrix, the fold is tried and its
    # pair misses the tolerance on the full matrix, so the result is
    # bitwise the unfolded solve's
    form = centred_ball24_form
    matrix = form.matrix().copy()
    matrix[7, 7] *= 1.1
    form = dataclasses.replace(form, _matrix=matrix)
    res = smallest_eigenpair(form, tol=1e-8, seed=0)
    assert solved_orders == [39, form.size]
    assert res.converged
    ref = _solve_pencil(matrix, form.mass, 1e-8, 0)
    for f in dataclasses.fields(EigenResult):
        assert _same_bits(np.asarray(getattr(res, f.name)),
                          np.asarray(getattr(ref, f.name))), f.name


def test_folded_reruns_bitwise(box48_form, factored):
    # the fold reads the form's matrix and never factors or writes it
    matrix = box48_form.matrix()
    before = matrix.copy()
    a = smallest_eigenpair(box48_form, tol=1e-8, seed=0)
    b = smallest_eigenpair(box48_form, tol=1e-8, seed=0)
    assert not factored
    assert _same_bits(matrix, before)
    for f in dataclasses.fields(EigenResult):
        assert _same_bits(np.asarray(getattr(a, f.name)),
                          np.asarray(getattr(b, f.name))), f.name


def test_fold_rejected_when_its_vector_changes_sign(centred_ball24_form,
                                                   solved_orders,
                                                   monkeypatch):
    # the folded solve is made to return its second eigenpair: an exact
    # eigenpair of the full matrix too, within tolerance, but one that
    # changes sign, so it is not the ground pair and the result is
    # bitwise the unfolded solve's
    form = centred_ball24_form
    real = regfrac.spectral.eigh

    def second(a, **kwargs):
        return real(a, **dict(kwargs, subset_by_index=[1, 1]))

    monkeypatch.setattr(regfrac.spectral, "eigh", second)
    res = smallest_eigenpair(form, tol=1e-8, seed=0)
    assert solved_orders == [39, form.size]
    ref = _solve_pencil(form.matrix(), form.mass, 1e-8, 0)
    for f in dataclasses.fields(EigenResult):
        assert _same_bits(np.asarray(getattr(res, f.name)),
                          np.asarray(getattr(ref, f.name))), f.name
    # the rejected pair met the tolerance: only its sign rejected it
    orbit, sizes = _orbits(form.mask)
    lam, v, _ = regfrac.spectral._ground_pair(
        regfrac.spectral._fold(form.matrix(), orbit, sizes), form.mass, 1e-8,
        0)
    rejected = regfrac.spectral._result(form.matrix(), form.mass, 1e-8, lam,
                                        v[orbit] / np.sqrt(sizes[orbit]), 0)
    assert rejected.converged and rejected.vector.min() < 0.0
