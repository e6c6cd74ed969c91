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

from .quadrature import adaptive_gauss_kronrod


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
    one-dimensional profile integral; ``quadrature_error`` is the
    integrator's own error indicator (absolute, on the integral).
    """

    n: int
    p: float
    sigma: float
    value: float
    prefactor: float
    integral: float
    quadrature_error: float


def _hardy_profile_integral(p: float, sigma: float) -> tuple[float, float]:
    """integral_0^1 |1 - r^((2s-1)/p)|^p (1-r)^(-1-2s) dr, singularity at r=1.

    Substituting s = 1 - r moves the singularity to the origin.  Below
    s0 = 1e-30 the bracket equals beta*s to relative accuracy ~1e-29,
    so that head is integrated in closed form; the bisecting adaptive
    rule grades into the remaining [s0, 1] piece.  The bracket is
    evaluated through expm1/log1p so cancellation stays benign.
    """
    beta = (2.0 * sigma - 1.0) / p

    def integrand(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        bracket = -np.expm1(beta * np.log1p(-s))
        return np.abs(bracket) ** p * s ** (-1.0 - 2.0 * sigma)

    s0 = 1e-30
    head = beta ** p * s0 ** (p - 2.0 * sigma) / (p - 2.0 * sigma)
    tail, err = adaptive_gauss_kronrod(integrand, s0, 1.0)
    return head + tail, err + head * 1e-29


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
