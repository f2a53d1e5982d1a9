"""Closed forms for a pair of counter-propagating Gaussian wave packets.

The family describes two equal-mass free particles prepared either as a
product of single-particle Gaussian packets (width parameter ``a``, momentum
centers ``+k_c`` and ``-k_c``) or as an EPR-like superposition of such
products whose total momentum is concentrated around zero with a width set
by a second parameter ``b``.  Finite ``b`` entangles the pair; ``b = inf``
is the exactly separable product state.  All of the ``b`` dependence enters
through the combinations ``f_n = 1 + n a^2/b^2`` (n = 1, 2), which reduce to
1 exactly at ``b = inf``, so no special casing of the separable limit is
needed anywhere.

Everything here is analytic: dispersions and the factors and normalisation
of the t = 0 two-particle amplitude.  The :mod:`localent.oracle` module
samples that amplitude and re-derives the dispersions by brute-force
quadrature on a spectral grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PairParams",
    "entanglement_factor",
    "position_dispersion",
    "momentum_dispersion",
]


@dataclass(frozen=True)
class PairParams:
    """Parameters selecting one member of the two-particle Gaussian family.

    a
        Width parameter of the single-particle packets (> 0).
    b
        Width of the momentum anticorrelation (> 0).  ``math.inf`` selects
        the exactly separable product state; smaller ``b`` means stronger
        entanglement.
    k_c
        Packet center wavenumber (finite): particle 1 moves with ``+k_c``,
        particle 2 with ``-k_c``.
    """

    a: float
    b: float
    k_c: float = 0.0

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise DomainError(f"width parameter a must be positive, got {self.a}")
        if not self.b > 0:
            raise DomainError(
                f"anticorrelation width b must be positive (or math.inf), got {self.b}"
            )
        if not math.isfinite(self.k_c):
            raise DomainError(f"packet center wavenumber k_c must be finite, got {self.k_c}")


def entanglement_factor(n: int, params: PairParams) -> float:
    """The combination 1 + n a^2/b^2 for n in {1, 2}; exactly 1 when b = inf."""
    if n not in (1, 2):
        raise DomainError(f"entanglement factor index must be 1 or 2, got {n}")
    r = params.a / params.b
    return 1.0 + n * r * r


def _fourth_power(u):
    """``u**4``, but inf where a float's ``u**4`` raises OverflowError
    (from u ~ 1.16e77)."""
    try:
        return u**4
    except OverflowError:
        return math.inf


def _dispersion_curve(u: float, alpha: float, t):
    """sqrt(alpha + 4 u^4 t^2) / (2u) at scalar or array t >= 0.

    The family's position-dispersion curve in the observer's coordinates: u is
    the momentum dispersion, alpha = f1^2 / f2 the constant term (1 when
    separable).  The radicand is clamped at 0 so that a fitted alpha below the
    physical floor still gives a finite model.  Where u^4 overflows, for a
    scalar u from ~1.16e77, the curve is hypot(sqrt(alpha) / (2u), u t).
    Returns a float for scalar t.
    """
    t = np.asarray(t, dtype=float)[()]  # scalar t as a numpy scalar: cheaper arithmetic
    if not (t >= 0).all():  # NaN fails too
        raise DomainError(f"time must be nonnegative, got {float(np.extract(~(t >= 0), t)[0])}")
    # huge t spreads to inf, as float arithmetic does; an infinite u4 at t = 0 is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        u4 = _fourth_power(u)
        radicand = alpha + 4.0 * u4 * t * t
    if isinstance(u4, float) and math.isinf(u4):  # a scalar u from ~1.16e77
        dx = np.hypot(math.sqrt(max(alpha, 0.0)) / (2.0 * u), u * t)
    else:
        dx = np.sqrt(np.maximum(radicand, 0.0)) / (2.0 * u)
    return dx if np.ndim(dx) else float(dx)


def position_dispersion(t: float | np.ndarray, params: PairParams) -> float | np.ndarray:
    """Standard deviation of particle 1's position at time t (scalar or array).

    Separable pairs spread as (a/2) sqrt(1 + F(t)); entangled pairs start
    narrower by sqrt(f1/f2) and spread faster by the factor f2 inside the
    square root.  The two expressions coincide exactly at b = inf.  In terms
    of u = momentum_dispersion(params) this is the protocols' curve with
    constant term f1^2 / f2.
    """
    f1 = entanglement_factor(1, params)
    f2 = entanglement_factor(2, params)
    return _dispersion_curve(momentum_dispersion(params), f1 * f1 / f2, t)


def momentum_dispersion(params: PairParams) -> float:
    """Standard deviation of particle 1's momentum; constant under free evolution."""
    f1 = entanglement_factor(1, params)
    return math.sqrt(f1) / params.a


def _prefactor(params: PairParams) -> float:
    """The constant that normalises the product of :func:`_envelope_factors`
    on the plane."""
    a2 = params.a * params.a
    return math.sqrt(2.0 / (math.pi * a2)) * entanglement_factor(2, params) ** 0.25


def _envelope_factors(total, difference, params: PairParams) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of the real t = 0 envelope: exp(-s^2/(2a^2)) at
    ``total`` s = x1 + x2 and exp(-d^2 (1/(2a^2) + 1/b^2)) at ``difference``
    d = x1 - x2, each on the shape of its own argument.

    Their product is exp(-(f1/a^2)(x1^2 + x2^2) + (2/b^2) x1 x2), a centre
    of mass Gaussian times a relative-coordinate Gaussian.  Both exponents
    are <= 0, so neither factor overflows, and neither is a difference of
    large terms that cancel as (a/b)^2.
    """
    s = np.asarray(total, dtype=float)
    d = np.asarray(difference, dtype=float)
    a2 = params.a * params.a
    centre = np.exp(s * s * (-0.5 / a2))
    relative = np.exp(d * d * -(0.5 / a2 + 1.0 / (params.b * params.b)))
    return centre, relative
