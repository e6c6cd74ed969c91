"""Special-function layer: gamma, sphere areas, and the sharp Hardy data.

Everything downstream (kernel normalizations, exit-scale prefactors,
complement tails) funnels through these few closed forms, so they are
implemented once here with pinned accuracy targets instead of being
scattered across modules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre


def gamma(x: float) -> float:
    """Gamma function for positive real arguments (``math.gamma``).

    Raises ValueError for zero or negative input rather than following
    the analytic continuation: those only arise from bad parameters.
    """
    if not x > 0.0:
        raise ValueError(f"pole or nonpositive argument: gamma({x})")
    return math.gamma(x)


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (n=1 gives 2)."""
    if n < 1 or n != int(n):
        raise ValueError(f"dimension must be a positive integer, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)


def exit_scale_prefactor(n: int, alpha: float) -> float:
    """Angular normalization 2 pi^((n-1)/2) Gamma((1+alpha)/2) / Gamma((n+alpha)/2).

    This is the constant that turns an inverse-power average of
    directional exit distances into the pseudo-distance scale; it is
    only meaningful for alpha > 1.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if n < 1 or n != int(n):
        raise ValueError(f"dimension must be a positive integer, got {n}")
    return (2.0 * math.pi ** ((n - 1) / 2.0)
            * gamma((1.0 + alpha) / 2.0) / gamma((n + alpha) / 2.0))


def tail_integral(n: int, sigma: float, radius: float) -> float:
    """Integral of |z|^(-n-2*sigma) over the exterior of a ball.

    Closed form: sphere_area(n) * radius^(-2*sigma) / (2*sigma).  Used
    for complement-potential tails beyond the assembled bounding box.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if not radius > 0.0:
        raise ValueError(f"radius must be positive, got {radius}")
    return sphere_area(n) * radius ** (-2.0 * sigma) / (2.0 * sigma)


@dataclass(frozen=True)
class HardyConstant:
    """Sharp constant of the half-space Hardy inequality, with provenance.

    ``value = prefactor * integral`` where the integral is the
    one-dimensional profile integral; ``quadrature_error`` is its
    distance from a lower-order rule on the same panels (absolute, on
    the integral).
    """

    n: int
    p: float
    sigma: float
    value: float
    prefactor: float
    integral: float
    quadrature_error: float


# Below this s = 1 - r the profile integral is taken in closed form.
_S0 = 1e-30


def _profile_rule(points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite ``points``-point Gauss rule for the profile integral on
    r in [0, 1 - _S0], as (log r, 1 - r, weight) per node.

    Dyadic panels grade toward both endpoints: [2^-(k+1), 2^-k] in
    s = 1 - r for k = 1..98, then [_S0, 2^-99]; the same in t = r down
    to 2^-60, then [0, 2^-60].  log r is log1p(-s) on the s side and
    log(t) on the t side, so r = 0 and r = 1 are never formed.
    """
    x, w = gauss_legendre(points)

    def panels(edges):
        lo, width = edges[1:, None], (edges[:-1] - edges[1:])[:, None]
        return (lo + width * x).ravel(), (width * w).ravel()

    s, ws = panels(np.append(2.0 ** -np.arange(1, 100), _S0))
    t, wt = panels(np.append(2.0 ** -np.arange(1, 61), 0.0))
    return (np.concatenate([np.log1p(-s), np.log(t)]),
            np.concatenate([s, 1.0 - t]), np.concatenate([ws, wt]))


# the rule and the lower-order rule that measures its error
_PROFILE_RULES = (_profile_rule(12), _profile_rule(8))


def _hardy_profile_integral(p: float, sigma: float) -> tuple[float, float]:
    """integral_0^1 |1 - r^((2s-1)/p)|^p (1-r)^(-1-2s) dr and its error.

    The integrand is singular at r = 1 and its bracket at r = 0.  Below
    s0 = 1e-30, with s = 1 - r, the bracket equals beta*s to relative
    accuracy ~1e-29, so that head is integrated in closed form.  The
    rest is one fixed composite 12-point Gauss rule, graded by dyadic
    panels toward both endpoints (see ``_profile_rule``); the bracket is
    evaluated through expm1 of log r, so cancellation stays benign.  The
    error is the rule's distance from the 8-point rule on the same
    panels, plus the head's own bound.
    """
    beta = (2.0 * sigma - 1.0) / p
    head = beta ** p * _S0 ** (p - 2.0 * sigma) / (p - 2.0 * sigma)
    fine, coarse = (
        float(np.sum(weight * np.abs(np.expm1(beta * log_r)) ** p
                     * dist ** (-1.0 - 2.0 * sigma)))
        for log_r, dist, weight in _PROFILE_RULES)
    return head + fine, abs(fine - coarse) + head * 1e-29


def hardy_constant(n: int, p: float, sigma: float) -> HardyConstant:
    """Sharp Hardy constant C(n, p, sigma) for the regional kernel.

    Valid on the Loss-Sloane range 1/2 < sigma < min(1, p/2); outside it
    the defining integral diverges and a ValueError is raised.
    """
    if n < 1 or n != int(n):
        raise ValueError(f"dimension must be a positive integer, got {n}")
    if not p >= 1.0:
        raise ValueError(f"exponent p must be at least 1, got {p}")
    if not (0.5 < sigma < 1.0 and 2.0 * sigma < p):
        raise ValueError(
            "outside Loss-Sloane range: need 1/2 < sigma < min(1, p/2), "
            f"got sigma={sigma}, p={p}")
    prefactor = (2.0 * math.pi ** ((n - 1) / 2.0)
                 * gamma((1.0 + 2.0 * sigma) / 2.0)
                 / gamma((n + 2.0 * sigma) / 2.0))
    integral, err = _hardy_profile_integral(p, sigma)
    return HardyConstant(
        n=int(n), p=float(p), sigma=float(sigma),
        value=prefactor * integral,
        prefactor=prefactor,
        integral=integral,
        quadrature_error=err,
    )
