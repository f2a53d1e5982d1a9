"""Closed-form state family: values, limits and invariants."""

import decimal
import math

import numpy as np
import pytest

from localent.covariance import _pt_eigenvalue
from localent.errors import DomainError
from localent.states import (
    PairParams,
    entanglement_factor,
    momentum_dispersion,
    _power,
    position_dispersion,
)
from oracle_reference import envelope, initial_amplitude

INF = math.inf


def test_entanglement_factor_values():
    assert entanglement_factor(2, PairParams(a=1.0, b=INF)) == 1.0
    assert entanglement_factor(1, PairParams(a=1.0, b=2.0)) == pytest.approx(1.25, abs=1e-15)
    assert entanglement_factor(2, PairParams(a=1.0, b=2.0)) == pytest.approx(1.5, abs=1e-15)


def test_entanglement_factor_rejects_other_indices():
    with pytest.raises(DomainError):
        entanglement_factor(3, PairParams(a=1.0, b=2.0))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 10.0])
def test_factor_ordering(a, b):
    p = PairParams(a=a, b=b)
    f1 = entanglement_factor(1, p)
    f2 = entanglement_factor(2, p)
    assert 1.0 < f1 < f2
    assert f2 - f1 == pytest.approx((a / b) ** 2, rel=1e-12)


def test_position_dispersion_values():
    assert position_dispersion(0.0, PairParams(a=1.0, b=INF)) == 0.5
    assert position_dispersion(0.0, PairParams(a=1.0, b=2.0)) == pytest.approx(
        0.45643546458763845, rel=1e-12
    )
    assert position_dispersion(1.0, PairParams(a=1.0, b=2.0)) == pytest.approx(
        1.20761472884912, rel=1e-12
    )


def test_momentum_dispersion_values():
    assert momentum_dispersion(PairParams(a=1.0, b=INF)) == 1.0
    assert momentum_dispersion(PairParams(a=2.0, b=INF)) == 0.5
    assert momentum_dispersion(PairParams(a=1.0, b=2.0)) == pytest.approx(
        math.sqrt(1.25), rel=1e-14
    )


def test_amplitude_peak_density():
    p = PairParams(a=1.0, b=2.0)
    peak = abs(initial_amplitude(0.0, 0.0, p)) ** 2
    assert peak == pytest.approx(2.0 / math.pi * math.sqrt(1.5), rel=1e-12)


def test_amplitude_factorizes_when_separable():
    p = PairParams(a=1.0, b=INF, k_c=0.7)
    x = np.linspace(-3.0, 3.0, 41)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    psi = initial_amplitude(x1, x2, p)
    psi_left = initial_amplitude(x, np.zeros_like(x), p)
    psi_right = initial_amplitude(np.zeros_like(x), x, p)
    product = np.outer(psi_left, psi_right) / initial_amplitude(0.0, 0.0, p)
    assert np.max(np.abs(psi - product)) < 1e-10


def test_amplitude_normalized_by_quadrature():
    p = PairParams(a=1.0, b=2.0)
    x = np.linspace(-10.0, 10.0, 1001)
    dx = x[1] - x[0]
    psi = initial_amplitude(x[:, None], x[None, :], p)
    total = np.sum(np.abs(psi) ** 2) * dx * dx
    assert abs(total - 1.0) < 1e-8


def _reference_envelope(x1: float, x2: float, a: float, b: float) -> float:
    """exp(-(f1/a^2)(x1^2 + x2^2) + (2/b^2) x1 x2) in 40-digit arithmetic,
    from the exact values of the float inputs."""
    with decimal.localcontext(decimal.Context(prec=40)):
        x1, x2 = decimal.Decimal(x1), decimal.Decimal(x2)
        a2, b2 = decimal.Decimal(a) ** 2, decimal.Decimal(b) ** 2
        f1 = 1 + a2 / b2
        return float((-(f1 / a2) * (x1 * x1 + x2 * x2) + 2 / b2 * x1 * x2).exp())


@pytest.mark.parametrize("ratio", [10.0, 2.0, 1 / 4, 1 / 8, 1 / 30, 1 / 100])
def test_envelope_matches_a_40_digit_reference_near_the_ridge(ratio):
    # the exponent, written as one expression, cancels as (a/b)^2 when b << a
    a = 1.3
    b = a * ratio
    rng = np.random.default_rng(13)
    x1 = rng.uniform(-3.0 * a, 3.0 * a, 300)
    x2 = x1 + rng.uniform(-3.0 * b, 3.0 * b, 300)
    got = envelope(x1, x2, PairParams(a=a, b=b))
    want = np.array([_reference_envelope(p, q, a, b) for p, q in zip(x1, x2)])
    kept = want > 1e-30
    assert kept.sum() > 50
    assert np.max(np.abs(got[kept] - want[kept]) / want[kept]) <= 3e-14


def test_separable_limit_continuity():
    for a in (0.7, 1.0, 2.0):
        near = PairParams(a=a, b=1e6)
        exact = PairParams(a=a, b=INF)
        for t in np.linspace(0.0, 2.0, 9):
            lim = position_dispersion(t, exact)
            assert abs(position_dispersion(t, near) - lim) / lim < 1e-10
        assert abs(momentum_dispersion(near) - momentum_dispersion(exact)) < 1e-10


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_uncertainty_product(a):
    hbar = 1.0
    sep = PairParams(a=a, b=INF)
    assert position_dispersion(0.0, sep) * momentum_dispersion(sep) == pytest.approx(
        hbar / 2.0, rel=1e-14
    )
    for b in (0.5, 2.0, 100.0):
        p = PairParams(a=a, b=b)
        product = position_dispersion(0.0, p) * momentum_dispersion(p)
        f1 = entanglement_factor(1, p)
        f2 = entanglement_factor(2, p)
        assert product == pytest.approx(0.5 * hbar * f1 / math.sqrt(f2), rel=1e-14)
        assert product > hbar / 2.0


@pytest.mark.parametrize("b", [2.0, INF])
def test_monotone_spreading(b):
    p = PairParams(a=1.0, b=b)
    grid = np.linspace(0.0, 3.0, 31)
    widths = [position_dispersion(t, p) for t in grid]
    assert all(w2 > w1 for w1, w2 in zip(widths, widths[1:]))


def test_parameter_validation():
    with pytest.raises(DomainError):
        PairParams(a=0.0, b=1.0)
    with pytest.raises(DomainError):
        PairParams(a=-1.0, b=1.0)
    with pytest.raises(DomainError):
        PairParams(a=1.0, b=0.0)
    with pytest.raises(DomainError):
        PairParams(a=1.0, b=-2.0)
    # separability is the kernel's verdict, 1 - nu > 0 iff entangled
    assert _pt_eigenvalue(1.0, INF)[1] == 0.0
    assert _pt_eigenvalue(1.0, 5.0)[1] > 0.0


def _pow_or_inf(x: float, n: int) -> float:
    try:
        return x**n  # Python's float ** is libm's pow
    except OverflowError:
        return math.inf


def test_power_is_libms_pow_entry_by_entry():
    u = np.exp(np.random.default_rng(4).uniform(-250.0, 250.0, (50, 3)))
    u[7, 1], u[0, 0] = 1e78, 0.0  # u^4 past the float range, and zero
    for n in (3, 4):
        want = [[_pow_or_inf(x, n) for x in row] for row in u.tolist()]
        assert sum(row.count(math.inf) for row in want) > 1
        assert _power(u, n).tolist() == want
        assert _power(u[:, :1], n).tolist() == [row[:1] for row in want]
        assert [_power(x, n) for x in u.ravel().tolist()] == sum(want, [])
    assert _power(np.array(2.0), 4).shape == ()
