"""Tests for the pseudo-distance quadrature and Hardy certificates."""
from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from regfrac import hardy
from regfrac.gagliardo import assemble, build_near_table
from regfrac.geometry import (
    Ball,
    Box,
    DirectionSet,
    DomainMask,
    GridSpec,
    direction_set,
    make_mask,
    march_exit_distances,
)
from regfrac.hardy import (
    deep_interior,
    equivalence_check,
    hardy_check,
    pseudo_distance,
    standard_test_functions,
)
from regfrac.special import exit_scale_prefactor, hardy_constant


@pytest.fixture(scope="module")
def ball_mask_128():
    grid = GridSpec(cells=(128, 128), spacing=2.0 / 128, origin=(-1.0, -1.0))
    return make_mask(grid, Ball(center=(0.0, 0.0), radius=1.0))


@pytest.fixture(scope="module")
def box16_form(table2):
    grid = GridSpec(cells=(16, 16), spacing=1.0 / 16, origin=(0.0, 0.0))
    mask = make_mask(grid, Box(lo=(0.0, 0.0), hi=(1.0, 1.0)))
    return assemble(mask, 0.75, table=table2)


def _sine_bump(form):
    corpus = dict(standard_test_functions(form))
    assert "sine-product" in corpus, "corpus must provide the sine bump"
    return corpus["sine-product"]


# ------------------------------------------------------- pseudo-distance


def test_interval_center_closed_form():
    # On the interval the angular constant cancels: both exit distances
    # are 1, so the pseudo-distance equals (c(1,a)/2)^(1/a) exactly.
    grid = GridSpec(cells=(64,), spacing=2.0 / 64, origin=(-1.0,))
    mask = make_mask(grid, Box(lo=(-1.0,), hi=(1.0,)))
    got = pseudo_distance(mask, np.array([0.0]), 0.75, direction_set(1, 4))
    want = (exit_scale_prefactor(1, 1.5) / 2.0) ** (2.0 / 3.0)
    assert abs(got - want) < 1e-12


def test_ball_center_reference_value():
    # All exit distances from the center are the radius, leaving a pure
    # Gamma-function expression; 720 directions on a fine mask must hit
    # it to a part in a thousand.
    grid = GridSpec(cells=(256, 256), spacing=2.0 / 256, origin=(-1.0, -1.0))
    mask = make_mask(grid, Ball(center=(0.0, 0.0), radius=1.0))
    got = pseudo_distance(mask, np.array([0.0, 0.0]), 0.75,
                          direction_set(2, 720))
    want = (exit_scale_prefactor(2, 1.5) / (2.0 * math.pi)) ** (2.0 / 3.0)
    assert abs(got - want) <= 1e-3 * want


def test_radius_scaling_doubles(ball_mask_128):
    dirs = direction_set(2, 720)
    base = pseudo_distance(ball_mask_128, np.array([0.0, 0.0]), 0.75, dirs)
    doubled = DomainMask(ball_mask_128.grid.scaled(2.0), ball_mask_128.active)
    got = pseudo_distance(doubled, np.array([0.0, 0.0]), 0.75, dirs)
    assert abs(got - 2.0 * base) <= 1e-12 * base


def test_direction_count_convergence(ball_mask_128):
    coarse = pseudo_distance(ball_mask_128, np.array([0.0, 0.0]), 0.75,
                             direction_set(2, 720))
    fine = pseudo_distance(ball_mask_128, np.array([0.0, 0.0]), 0.75,
                           direction_set(2, 1440))
    assert abs(coarse - fine) <= 1e-3 * coarse


def test_upper_bound_by_largest_exit(box16_form):
    mask = box16_form.mask
    dirs = direction_set(2, 180)
    pts = mask.interior_coords[deep_interior(mask)][::7]
    fw = march_exit_distances(mask, pts, dirs.directions)
    bw = march_exit_distances(mask, pts, -dirs.directions)
    largest = np.minimum(fw, bw).max(axis=1)
    vals = pseudo_distance(mask, pts, 0.75, dirs)
    cap = exit_scale_prefactor(2, 1.5) ** (2.0 / 3.0) * largest
    assert np.all(vals <= cap)


def test_boundary_point_rejected(box16_form):
    mask = box16_form.mask
    with pytest.raises(ValueError, match="boundary point"):
        pseudo_distance(mask, np.array([0.0, 0.5]), 0.75,
                        direction_set(2, 32))


def test_point_close_to_boundary_has_exact_exit(box16_form):
    # h/16 from the face x = 0 the exit distance is h/16, and the
    # pseudo-distance is defined
    mask = box16_form.mask
    h = mask.grid.spacing
    x = np.array([h / 16.0, 0.5])
    got = march_exit_distances(mask, x, np.array([[-1.0, 0.0]]))[0, 0]
    assert abs(got - h / 16.0) <= 1e-12
    both = march_exit_distances(mask, x, np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert abs(both.min() - h / 16.0) <= 1e-12
    assert 0.0 < pseudo_distance(mask, x, 0.75, direction_set(2, 32)) < h


def _full_line_march(mask, points, sigma, dirs):
    """The pseudo-distance from a march of every row of [dirs; -dirs]."""
    alpha = 2.0 * sigma
    both = march_exit_distances(
        mask, points, np.concatenate([dirs.directions, -dirs.directions]))
    dist = np.minimum(*np.split(both, 2, axis=1))
    return (exit_scale_prefactor(mask.grid.dim, alpha) ** (1.0 / alpha)
            * np.sum(dist ** -alpha * dirs.weights, axis=1) ** (-1.0 / alpha))


def _random_mask_points(dim, seed):
    """A random mask, its interior nodes and 30 points strictly inside
    active cells."""
    rng = np.random.default_rng(seed)
    n = {1: 40, 2: 12, 3: 6}[dim]
    grid = GridSpec((n,) * dim, 0.3, (-0.7,) * dim)
    mask = DomainMask(grid, rng.random(grid.cells) < 0.8)
    cells = np.argwhere(mask.active)[rng.integers(0, mask.active.sum(), 30)]
    return mask, np.concatenate([
        mask.interior_coords,
        grid.node_coords(cells + rng.uniform(0.02, 0.98, cells.shape))])


@pytest.mark.parametrize("dim, count, traced", [
    (1, 4, 2), (2, 4, 4), (2, 96, 96), (2, 97, 194), (3, 50, 100)])
def test_pseudo_distance_traces_each_line_once(monkeypatch, dim, count,
                                               traced):
    # marching the distinct rays once gives the full march bitwise
    mask, points = _random_mask_points(dim, 100 * dim + count)
    dirs = direction_set(dim, count)
    want = _full_line_march(mask, points, 0.75, dirs)

    rays = []
    march = hardy.march_exit_distances

    def counting_march(m, p, d):
        rays.append(len(d))
        return march(m, p, d)

    monkeypatch.setattr(hardy, "march_exit_distances", counting_march)
    got = pseudo_distance(mask, points, 0.75, dirs)
    assert np.array_equal(got, want)
    assert rays == [traced]
    single = _full_line_march(mask, points[-1:], 0.75, dirs)[0]
    assert pseudo_distance(mask, points[-1], 0.75, dirs) == single


@pytest.mark.parametrize("dim, count", [(1, 4), (2, 96), (3, 50)])
def test_pseudo_distance_point_equals_its_row(dim, count):
    # the directional sum runs in one order whatever the stack size
    mask, points = _random_mask_points(dim, 7 * dim)
    dirs = direction_set(dim, count)
    stack = pseudo_distance(mask, points, 0.75, dirs)
    rows = [pseudo_distance(mask, x, 0.75, dirs) for x in points]
    assert np.array_equal(rows, stack)


def test_pseudo_distance_independent_of_blas_threads():
    # byte-identical stacks across processes at one and two BLAS threads
    code = ("import hashlib, sys, numpy as np\n"
            "from regfrac.geometry import DomainMask, GridSpec, direction_set\n"
            "from regfrac.hardy import pseudo_distance\n"
            "out = hashlib.sha256()\n"
            "for dim, count, n in ((1, 4, 40), (2, 96, 12), (3, 50, 6)):\n"
            "    grid = GridSpec((n,) * dim, 0.3, (-0.7,) * dim)\n"
            "    active = np.random.default_rng(dim).random(grid.cells) < 0.8\n"
            "    mask = DomainMask(grid, active)\n"
            "    out.update(pseudo_distance(mask, mask.interior_coords, 0.75,\n"
            "                               direction_set(dim, count)).tobytes())\n"
            "sys.stdout.write(out.hexdigest())\n")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] == outs[1] != ""


def test_pseudo_distance_validation(ball_mask_128):
    dirs = direction_set(2, 32)
    with pytest.raises(ValueError, match="sigma"):
        pseudo_distance(ball_mask_128, np.array([0.0, 0.0]), 0.5, dirs)
    with pytest.raises(ValueError, match="dimension"):
        pseudo_distance(ball_mask_128, np.array([0.0, 0.0, 0.0]), 0.75, dirs)


# ------------------------------------------------------------ hardy check


def test_hardy_ratio_on_box(table2):
    # The continuum inequality guarantees ratio >= 1; the discrete check
    # certifies >= 0.9 for the sine product on the 32x32 unit box.
    grid = GridSpec(cells=(32, 32), spacing=1.0 / 32, origin=(0.0, 0.0))
    form = assemble(make_mask(grid, Box(lo=(0.0, 0.0), hi=(1.0, 1.0))), 0.75,
                    table=table2)
    report = hardy_check(form, _sine_bump(form), direction_set(2, 180),
                         label="sine-product")
    assert report.ratio >= 0.9
    assert report.dim == 2
    assert report.sigma == 0.75
    assert report.constant == hardy_constant(2, 2.0, 0.75).value
    assert report.lhs > 0.0
    assert report.rhs > 0.0
    assert report.margin == report.ratio - 1.0
    assert report.label == "sine-product"


def test_hardy_ratio_scale_invariant(box16_form):
    dirs = direction_set(2, 120)
    u = _sine_bump(box16_form)
    base = hardy_check(box16_form, u, dirs)
    tripled = hardy_check(box16_form, 3.0 * u, dirs)
    assert abs(tripled.ratio - base.ratio) <= 1e-12 * base.ratio
    dilated = assemble(
        DomainMask(box16_form.mask.grid.scaled(2.0), box16_form.mask.active),
        0.75, table=box16_form.table)
    moved = hardy_check(dilated, u, dirs)
    assert abs(moved.ratio - base.ratio) <= 1e-10 * base.ratio


def test_hardy_rejects_shallow_support(box16_form):
    u = np.zeros(box16_form.size)
    shallow = np.flatnonzero(~deep_interior(box16_form.mask))
    u[shallow[0]] = 1.0
    with pytest.raises(ValueError, match="unsupported u"):
        hardy_check(box16_form, u, direction_set(2, 32))


def test_hardy_rejects_zero_and_mismatch(box16_form):
    dirs = direction_set(2, 32)
    with pytest.raises(ValueError, match="nonzero"):
        hardy_check(box16_form, np.zeros(box16_form.size), dirs)
    with pytest.raises(ValueError, match="length"):
        hardy_check(box16_form, np.ones(3), dirs)


# ------------------------------------------------- one march per node


def _counting_march(monkeypatch):
    """Record the number of points of every march the checks make."""
    calls = []
    march = hardy.march_exit_distances

    def counting(mask, points, directions):
        calls.append(len(points))
        return march(mask, points, directions)

    monkeypatch.setattr(hardy, "march_exit_distances", counting)
    return calls


def _halves(form, u):
    """u cut to the nodes below and above the mask's middle in x."""
    x = form.mask.interior_coords[:, 0]
    middle = 0.5 * (x.min() + x.max())
    return np.where(x < middle, u, 0.0), np.where(x < middle, 0.0, u)


def test_corpus_checks_on_one_form_march_once(monkeypatch, box16_form):
    form = dataclasses.replace(box16_form)  # nothing marched yet
    corpus = standard_test_functions(form)
    deep = deep_interior(form.mask)
    assert all(np.array_equal(u != 0.0, deep) for _, u in corpus)
    calls = _counting_march(monkeypatch)
    for label, u in corpus:
        hardy_check(form, u, direction_set(2, 96), label)
    assert calls == [np.count_nonzero(deep)]


def test_checks_march_only_nodes_not_yet_marched(monkeypatch, box16_form):
    form = dataclasses.replace(box16_form)
    u = _sine_bump(form)
    low, high = _halves(form, u)
    dirs = direction_set(2, 96)
    calls = _counting_march(monkeypatch)
    hardy_check(form, low, dirs)
    hardy_check(form, u, dirs)        # marches the upper half only
    hardy_check(form, high, dirs)     # marches nothing
    hardy_check(form, 2.0 * low, dirs)
    assert calls == [np.count_nonzero(low), np.count_nonzero(high)]
    (scales,) = form._scales.values()
    assert np.array_equal(np.isnan(scales), u == 0.0)


def test_new_rule_or_new_form_marches_again(monkeypatch, box16_form):
    form = dataclasses.replace(box16_form)
    u = _sine_bump(form)
    rule = direction_set(2, 96)
    calls = _counting_march(monkeypatch)
    hardy_check(form, u, rule)
    hardy_check(form, u, direction_set(2, 97))
    hardy_check(form, u, DirectionSet(rule.directions, 2.0 * rule.weights))
    hardy_check(form, u, direction_set(2, 96))
    hardy_check(dataclasses.replace(form), u, rule)
    assert calls == [np.count_nonzero(u)] * 4
    assert len(form._scales) == 3


def test_rejected_support_leaves_marched_distances_alone(monkeypatch,
                                                         box16_form):
    form = dataclasses.replace(box16_form)
    u = _sine_bump(form)
    dirs = direction_set(2, 32)
    hardy_check(form, 0.5 * _halves(form, u)[0], dirs)
    before = {key: scales.copy() for key, scales in form._scales.items()}
    shallow = u.copy()
    shallow[np.flatnonzero(~deep_interior(form.mask))[0]] = 1.0
    calls = _counting_march(monkeypatch)
    for rule in (dirs, direction_set(2, 40)):
        with pytest.raises(ValueError, match="unsupported u"):
            hardy_check(form, shallow, rule)
    assert calls == []
    assert form._scales.keys() == before.keys()
    for key, scales in before.items():
        assert np.array_equal(form._scales[key], scales, equal_nan=True)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_shared_march_reports_equal_fresh_forms(dim, ball_form):
    # every check on one form, in an order that mixes nodes marched
    # earlier with new ones, has the bits of the check on a fresh form
    if dim == 1:
        grid = GridSpec((64,), 1.0 / 32, (-1.0,))
        form = assemble(make_mask(grid, Box((-1.0,), (1.0,))), 0.75,
                        table=build_near_table(1, 0.75))
    elif dim == 2:
        form = dataclasses.replace(ball_form)
    else:
        grid = GridSpec((8, 8, 8), 0.125, (0.0, 0.0, 0.0))
        form = assemble(make_mask(grid, Box((0.0,) * 3, (1.0,) * 3)), 0.75,
                        table=build_near_table(3, 0.75, depth=4,
                                               convergence_tol=1.0))
    dirs = direction_set(dim, {1: 4, 2: 96, 3: 50}[dim])
    for label, u in standard_test_functions(form):
        for v in (_halves(form, u)[1], u, _halves(form, u)[0]):
            fresh = hardy_check(dataclasses.replace(form), v, dirs, label)
            assert hardy_check(form, v, dirs, label) == fresh
            on = v != 0.0
            scale = pseudo_distance(form.mask, form.mask.interior_coords[on],
                                    0.75, dirs)
            assert fresh.rhs == fresh.constant * float(np.sum(
                form.mass * v[on] ** 2 * scale ** -1.5))
    (scales,) = form._scales.values()
    assert np.array_equal(np.isnan(scales), ~deep_interior(form.mask))


# ------------------------------------------------------------ equivalence


def test_equivalence_on_corpus(box16_form):
    for label, u in standard_test_functions(box16_form, seed=0):
        report = equivalence_check(box16_form, u)
        assert report.satisfied, label
        assert report.ratio <= report.composed_bound * report.slack
        assert report.full >= report.regional


def test_equivalence_random_nonnegative(box16_form):
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(50):
        u = rng.uniform(0.0, 1.0, box16_form.size)
        report = equivalence_check(box16_form, u)
        assert report.satisfied
        worst = max(worst, report.ratio)
    assert worst <= report.composed_bound * report.slack


def test_equivalence_zero_vector(box16_form):
    report = equivalence_check(box16_form, np.zeros(box16_form.size))
    assert report.satisfied
    assert report.full == 0.0
    assert report.regional == 0.0
    assert report.ratio == 0.0


def test_equivalence_rejects_negative(box16_form):
    u = np.zeros(box16_form.size)
    u[0] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        equivalence_check(box16_form, u)


def test_equivalence_rejects_wrong_length(box16_form):
    with pytest.raises(ValueError, match="vector length"):
        equivalence_check(box16_form, np.ones(box16_form.size + 1))


def test_corpus_contract(box16_form):
    corpus = standard_test_functions(box16_form, seed=0)
    labels = [label for label, _ in corpus]
    assert len(set(labels)) == len(labels)
    assert "ground-eigenfunction" in labels
    deep = deep_interior(box16_form.mask)
    for label, u in corpus:
        assert u.shape == (box16_form.size,)
        assert np.all(u >= 0.0), label
        assert np.any(u > 0.0), label
        assert not np.any((u != 0.0) & ~deep), label
    analytic = [label for label in labels if label != "ground-eigenfunction"]
    assert analytic == ["sine-product", "centered-gaussian",
                        "offset-gaussian-0", "offset-gaussian-1"]
