"""Special-function checks: gamma accuracy, closed forms, Hardy constant.

The Hardy constant gets two independent checks: 40-digit mpmath values
of its profile integral, and an oracle that applies a composite Gauss
rule on a million uniform panels after a power substitution that
removes the endpoint singularity analytically.  The production path
never sees this code.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from regfrac.special import (
    HardyConstant,
    exit_scale_prefactor,
    gamma,
    hardy_constant,
    sphere_area,
    tail_integral,
)


def hardy_integral_oracle(p: float, sigma: float, panels: int = 1_000_000) -> float:
    """Fixed high-order quadrature of the profile integral.

    Substituting s = t^m with m = 1/(p - 2*sigma) makes the integrand
    bounded at the origin, after which uniform panels with an 8-point
    Gauss rule converge far beyond 1e-8.
    """
    m = 1.0 / (p - 2.0 * sigma)
    beta = (2.0 * sigma - 1.0) / p
    gx, gw = np.polynomial.legendre.leggauss(8)
    gx = 0.5 * (gx + 1.0)
    gw = 0.5 * gw
    total = 0.0
    chunk = 20_000
    edges = np.linspace(0.0, 1.0, panels + 1)
    for start in range(0, panels, chunk):
        lo = edges[start:start + chunk]
        hi = edges[start + 1:start + chunk + 1]
        width = hi - lo
        t = lo[:, None] + width[:, None] * gx[None, :]
        s = t ** m
        bracket = -np.expm1(beta * np.log1p(-s))
        vals = np.abs(bracket) ** p * np.where(s > 0, s, 1.0) ** (-1.0 - 2.0 * sigma)
        vals *= m * np.where(t > 0, t, 1.0) ** (m - 1.0)
        vals[s == 0] = 0.0
        total += float(np.sum(width[:, None] * gw[None, :] * vals))
    return total


# ---------------------------------------------------------------- gamma


def test_gamma_reference_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(0.5) == pytest.approx(1.772453850905516, rel=1e-12)
    assert gamma(2.5) == pytest.approx(1.329340388179137, rel=1e-12)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


def test_gamma_against_stdlib_on_grid():
    # agreement across the working range pins gamma to the stdlib
    for x in np.linspace(0.05, 50.0, 777):
        assert gamma(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)


def test_gamma_recurrence_sweep():
    xs = np.linspace(0.1, 30.0, 1000)
    worst = 0.0
    for x in xs:
        x = float(x)
        ratio = gamma(x + 1.0) / (x * gamma(x))
        worst = max(worst, abs(ratio - 1.0))
    assert worst <= 1e-12


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, -7.3])
def test_gamma_rejects_nonpositive(bad):
    with pytest.raises(ValueError, match="pole or nonpositive"):
        gamma(bad)


# ---------------------------------------------------- sphere area, tail


def test_sphere_area_small_dimensions():
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-14)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


def test_tail_integral_closed_form_and_scaling():
    assert tail_integral(2, 0.75, 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    for n in (1, 2, 3):
        for sigma in (0.3, 0.6, 0.9):
            base = tail_integral(n, sigma, 1.0)
            for r in (0.5, 2.0, 3.7):
                assert tail_integral(n, sigma, r) == pytest.approx(
                    base * r ** (-2.0 * sigma), rel=1e-13)


def test_tail_integral_validation():
    with pytest.raises(ValueError, match="sigma"):
        tail_integral(2, 1.5, 1.0)
    with pytest.raises(ValueError, match="radius"):
        tail_integral(2, 0.5, 0.0)


# --------------------------------------------------- exit-scale prefactor


def test_exit_scale_prefactor_reference_values():
    assert exit_scale_prefactor(1, 2.0) == pytest.approx(2.0, rel=1e-13)
    expected_2d = (2.0 * math.sqrt(math.pi)
                   * math.gamma(1.25) / math.gamma(1.75))
    assert exit_scale_prefactor(2, 1.5) == pytest.approx(expected_2d, rel=1e-13)
    expected_3d = 2.0 * math.pi * math.gamma(1.25) / math.gamma(2.25)
    assert exit_scale_prefactor(3, 1.5) == pytest.approx(expected_3d, rel=1e-13)


def test_exit_scale_prefactor_requires_alpha_above_one():
    with pytest.raises(ValueError, match="alpha"):
        exit_scale_prefactor(2, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        exit_scale_prefactor(2, 0.8)


# --------------------------------------------------------- Hardy constant


def test_hardy_constant_matches_panel_oracle():
    for n, p, sigma in [(1, 2.0, 0.6), (2, 2.0, 0.75), (3, 2.0, 0.9),
                        (2, 3.0, 0.8), (1, 2.0, 0.75)]:
        got = hardy_constant(n, p, sigma)
        oracle = got.prefactor * hardy_integral_oracle(p, sigma)
        assert got.value == pytest.approx(oracle, rel=1e-8)


def test_hardy_constant_dimension_ratio():
    # The profile integral is dimension-independent, so the ratio of
    # constants across dimensions reduces to a pure Gamma-function
    # expression: sqrt(pi) * Gamma(1.25) / Gamma(1.75).
    ratio = hardy_constant(2, 2.0, 0.75).value / hardy_constant(1, 2.0, 0.75).value
    exact = math.sqrt(math.pi) * gamma(1.25) / gamma(1.75)
    assert ratio == pytest.approx(exact, rel=1e-12)


def test_hardy_constant_error_estimate_is_small():
    for sigma in (0.55, 0.75, 0.95):
        c = hardy_constant(2, 2.0, sigma)
        assert isinstance(c, HardyConstant)
        assert 0.0 < c.quadrature_error < 1e-12 * c.value
        assert c.value > 0.0


# The profile integral to 20 digits: the closed-form head below 1e-30
# plus the tail on [1e-30, 1] by mpmath at 40 digits.
@pytest.mark.parametrize("p, sigma, reference", [
    (2.0, 0.55, 0.0078100592627908493778),
    (2.0, 0.6, 0.030383278633844117399),
    (2.0, 0.75, 0.20735251809737327015),
    (2.0, 0.9, 0.96401898065331500142),
    (2.0, 0.95, 2.217658441322770365),
    (3.0, 0.8, 0.027979052442047115693),
    (1.6, 0.7, 0.66058933029309300926),
])
def test_hardy_profile_integral_matches_mpmath(p, sigma, reference):
    c = hardy_constant(2, p, sigma)
    assert abs(c.integral - reference) <= 1e-14 * reference
    assert 0.0 < c.quadrature_error < 1e-12 * c.integral


def test_hardy_constant_gamma_ratio_decreasing_in_dimension():
    # The Gamma-ratio factor of the prefactor is the strictly decreasing
    # piece; the full constant also carries pi^((n-1)/2), which grows
    # faster over n = 1..3, so only the ratio is monotone here.
    sigma = 0.75
    ratios = [gamma((1 + 2 * sigma) / 2) / gamma((n + 2 * sigma) / 2)
              for n in (1, 2, 3)]
    assert ratios[0] > ratios[1] > ratios[2]
    values = [hardy_constant(n, 2.0, sigma).value for n in (1, 2, 3)]
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("n,p,sigma", [
    (2, 2.0, 0.5),    # sigma at the lower endpoint
    (2, 2.0, 0.4),
    (2, 2.0, 1.0),    # sigma at the upper endpoint
    (2, 1.0, 0.6),    # sigma >= p/2
    (2, 1.5, 0.75),
])
def test_hardy_constant_outside_range(n, p, sigma):
    with pytest.raises(ValueError, match="outside Loss-Sloane range"):
        hardy_constant(n, p, sigma)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
def test_hardy_prefactor_is_the_exit_scale_prefactor(n, sigma):
    assert (hardy_constant(n, 2.0, sigma).prefactor
            == exit_scale_prefactor(n, 2.0 * sigma))


def test_hardy_constant_prefactor_times_integral():
    c = hardy_constant(2, 2.0, 0.75)
    assert c.value == pytest.approx(c.prefactor * c.integral, rel=1e-15)
