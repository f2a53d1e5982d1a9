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

Everything here is analytic: dispersions, marginal densities and the t = 0
two-particle amplitude.  The :mod:`localent.oracle` module re-derives the
same quantities by brute-force quadrature on a spectral grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PairParams",
    "GaussianDensity",
    "entanglement_factor",
    "spreading_factor",
    "drift_velocity",
    "position_dispersion",
    "momentum_dispersion",
    "marginal_position",
    "marginal_momentum",
    "initial_amplitude",
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
        Packet center wavenumber: particle 1 moves with ``+k_c``,
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


@dataclass(frozen=True)
class GaussianDensity:
    """Normalized one-dimensional normal density with mean and standard deviation."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, self.sigma, size=n)


def entanglement_factor(n: int, params: PairParams) -> float:
    """The combination 1 + n a^2/b^2 for n in {1, 2}; exactly 1 when b = inf."""
    if n not in (1, 2):
        raise DomainError(f"entanglement factor index must be 1 or 2, got {n}")
    r = params.a / params.b
    return 1.0 + n * r * r


def spreading_factor(t: float, params: PairParams) -> float:
    """Dimensionless free-spreading term 4 t^2 / a^4 at time t >= 0."""
    if not t >= 0:  # NaN fails too
        raise DomainError(f"time must be nonnegative, got {t}")
    q = 2.0 * t / (params.a * params.a)
    return q * q


def drift_velocity(params: PairParams) -> float:
    """Group velocity k_c of particle 1's packet center."""
    return float(params.k_c)


def _dispersion_curve(u: float, alpha: float, t):
    """sqrt(alpha + 4 u^4 t^2) / (2u) at scalar or array t >= 0.

    The family's position-dispersion curve in the observer's coordinates: u is
    the momentum dispersion, alpha = f1^2 / f2 the constant term (1 when
    separable).  The radicand is clamped at 0 so that a fitted alpha below the
    physical floor still gives a finite model.  Returns a float for scalar t.
    """
    t = np.asarray(t, dtype=float)[()]  # scalar t as a numpy scalar: cheaper arithmetic
    if not (t >= 0).all():  # NaN fails too
        raise DomainError(f"time must be nonnegative, got {float(np.extract(~(t >= 0), t)[0])}")
    with np.errstate(over="ignore"):  # huge t spreads to inf, as float arithmetic does
        radicand = alpha + 4.0 * u**4 * t * t
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


def marginal_position(t: float, params: PairParams) -> GaussianDensity:
    """Position-space marginal density of particle 1 at time t.

    The marginal stays Gaussian for all t because free evolution preserves
    Gaussianity; mean drifts with the group velocity, width follows
    :func:`position_dispersion`.  (The spectral-grid oracle validates this
    for the entangled branch, where only the t = 0 form is obvious.)
    """
    return GaussianDensity(drift_velocity(params) * t, position_dispersion(t, params))


def marginal_momentum(params: PairParams) -> GaussianDensity:
    """Momentum-representation marginal of particle 1; time independent.

    Centered at the packet wavenumber ``k_c`` with width equal to
    :func:`momentum_dispersion`.
    """
    return GaussianDensity(params.k_c, momentum_dispersion(params))


def _prefactor(params: PairParams) -> float:
    """The constant that normalises :func:`_envelope` on the plane."""
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


def _envelope(x1, x2, params: PairParams) -> np.ndarray:
    """The real t = 0 envelope exp(-(f1/a^2)(x1^2 + x2^2) + (2/b^2) x1 x2),
    unnormalised, on the broadcast shape of ``x1`` and ``x2``: the product
    of :func:`_envelope_factors` at x1 + x2 and x1 - x2."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    centre, relative = _envelope_factors(x1 + x2, x1 - x2, params)
    return centre * relative


def initial_amplitude(x1, x2, params: PairParams):
    """Two-particle amplitude at t = 0, vectorized over positions.

    The squared modulus integrates to 1 over the plane.  For finite b the
    exponent carries the cross term (2/b^2) x1 x2, which is what makes the
    state non-separable; at b = inf the cross term vanishes and the
    amplitude factorizes into a product of single-particle packets.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    # exp(i k_c (x1 - x2)) as a product: n + n exponentials on a broadcast grid
    phase = np.exp(1j * params.k_c * x1) * np.exp(-1j * params.k_c * x2)
    return _prefactor(params) * phase * _envelope(x1, x2, params)
