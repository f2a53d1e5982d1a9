"""Correlation matrix, separability invariant and EoF."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localent.covariance import (
    CovMatrix4,
    _check_physical,
    covariance_matrix,
    entanglement_of_formation,
    entropy_from_symplectic_eigenvalue,
    reduced_symplectic_eigenvalue,
    simon_invariant,
    simon_invariant_closed_form,
)
from localent.errors import DomainError
from localent.states import PairParams
from eof_reference import eof_reference, entropy_reference

INF = math.inf

SWEEP_A = [0.5, 1.0, 2.0, 5.0]
SWEEP_B = [0.5, 1.0, 2.0, 10.0, 100.0]


def scaled(cm: CovMatrix4, s1: float, s2: float) -> CovMatrix4:
    scale = np.diag([s1, 1.0 / s1, s2, 1.0 / s2])
    return CovMatrix4.from_matrix(scale @ cm.matrix @ scale.T)


def test_block_values_a1_b2():
    cm = covariance_matrix(PairParams(a=1.0, b=2.0))
    assert np.allclose(np.diag(cm.A), [0.41666667, 2.5], atol=1e-8)
    assert np.allclose(np.diag(cm.C), [0.08333333, -0.5], atol=1e-8)
    assert np.allclose(cm.A, cm.B)
    assert cm.A[0, 1] == cm.C[0, 1] == 0.0


def test_block_values_a2_b2():
    cm = covariance_matrix(PairParams(a=2.0, b=2.0))
    assert np.allclose(np.diag(cm.A), [4.0 / 3.0, 1.0], atol=1e-12)
    assert np.allclose(np.diag(cm.C), [2.0 / 3.0, -0.5], atol=1e-12)


def test_separable_blocks():
    cm = covariance_matrix(PairParams(a=1.0, b=INF))
    assert np.allclose(np.diag(cm.A), [0.5, 2.0])
    assert np.all(cm.C == 0.0)


def test_covariance_matrix_is_physical():
    for a in SWEEP_A:
        for b in SWEEP_B + [INF]:
            _check_physical(covariance_matrix(PairParams(a=a, b=b)))


def test_covariance_matrix_is_physical_over_the_family():
    # the CLI's simon skips the check on the family's own matrices
    for a in np.logspace(-3.0, 3.0, 7):
        for b in [*(a / np.logspace(-4.0, 4.0, 9)), INF]:
            _check_physical(covariance_matrix(PairParams(a=float(a), b=float(b))))


def test_check_physical_rejects_sub_vacuum():
    bad = CovMatrix4(A=np.diag([0.1, 0.1]), B=np.diag([0.1, 0.1]), C=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        _check_physical(bad)
    with pytest.raises(DomainError):  # simon_invariant validates by default
        simon_invariant(bad)


def test_invariant_value_a1_b2():
    cm = covariance_matrix(PairParams(a=1.0, b=2.0))
    invariant = simon_invariant(cm)
    assert type(invariant) is float
    assert invariant == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert not invariant >= 0.0


def test_invariant_boundary_at_infinite_b():
    invariant = simon_invariant(covariance_matrix(PairParams(a=1.0, b=INF)))
    assert invariant == pytest.approx(0.0, abs=1e-14)
    assert invariant >= 0.0


def test_closed_form_values():
    assert simon_invariant_closed_form(PairParams(a=1.0, b=2.0)) == pytest.approx(
        -1.0 / 6.0, rel=1e-14
    )
    assert simon_invariant_closed_form(PairParams(a=2.0, b=2.0)) == pytest.approx(
        -4.0 / 3.0, rel=1e-14
    )
    assert simon_invariant_closed_form(PairParams(a=1.0, b=INF)) == 0.0


@pytest.mark.parametrize("a", SWEEP_A)
@pytest.mark.parametrize("b", SWEEP_B)
def test_general_matches_closed_form(a, b):
    p = PairParams(a=a, b=b)
    general = simon_invariant(covariance_matrix(p))
    closed = simon_invariant_closed_form(p)
    assert abs(general - closed) <= 1e-10 * max(1.0, abs(closed))
    assert closed < 0.0


def test_invariant_monotone_to_zero():
    values = [simon_invariant_closed_form(PairParams(a=1.0, b=b)) for b in (1, 2, 5, 20, 100)]
    assert all(v < 0 for v in values)
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_invariant_unchanged_by_symplectic_scaling():
    cm = covariance_matrix(PairParams(a=1.0, b=2.0))
    base = simon_invariant(cm)
    for s1, s2 in [(2.0, 2.0), (0.5, 0.5), (3.0, 0.7), (1.3, 1.3)]:
        moved = simon_invariant(scaled(cm, s1, s2))
        assert abs(moved - base) < 1e-12 * max(1.0, abs(base))


@given(
    a=st.floats(min_value=0.3, max_value=5.0),
    b=st.floats(min_value=0.4, max_value=60.0),
)
@settings(max_examples=150, deadline=None)
def test_equivalence_property(a, b):
    p = PairParams(a=a, b=b)
    general = simon_invariant(covariance_matrix(p))
    closed = simon_invariant_closed_form(p)
    assert abs(general - closed) <= 1e-9 * max(1.0, abs(closed))


def test_eof_zero_at_delta_one():
    assert entanglement_of_formation(PairParams(a=1.0, b=INF)) == 0.0


def test_eof_spot_value():
    eof = entanglement_of_formation(PairParams(a=1.0, b=2.0))
    assert eof == pytest.approx(0.08299706200713872, rel=1e-10)


def test_eof_coefficient_identity():
    # c+ - c- = 1 for every delta
    for delta in (0.2, 0.5, 0.816497, 0.99, 1.0, 1.5):
        root = math.sqrt(delta)
        c_plus = (1.0 / root + root) ** 2 / 4.0
        c_minus = (1.0 / root - root) ** 2 / 4.0
        assert c_plus - c_minus == pytest.approx(1.0, rel=1e-12)


def test_eof_rejects_an_overflowing_ratio():
    # a/b itself overflows: no finite EoF to give
    for a, b in [(1e300, 1e-10), (1e200, 1e-200)]:
        with pytest.raises(OverflowError):
            entanglement_of_formation(PairParams(a=a, b=b))
    # 2 (a/b)^2 overflows from a/b ~ 9.5e153, but its logarithm does not
    for a, b in [(1.0, 1e-200), (1e154, 1.0), (9.5e153, 1.0), (1.7e308, 1.0)]:
        want = eof_reference(a, b)
        assert abs(entanglement_of_formation(PairParams(a=a, b=b)) - want) <= 1e-15 * want


def test_reduced_symplectic_eigenvalue():
    assert reduced_symplectic_eigenvalue(covariance_matrix(PairParams(a=1.0, b=INF))) == 1.0
    assert reduced_symplectic_eigenvalue(
        covariance_matrix(PairParams(a=1.0, b=2.0))
    ) == pytest.approx(1.0206207261596576, rel=1e-12)
    assert reduced_symplectic_eigenvalue(
        covariance_matrix(PairParams(a=2.0, b=2.0))
    ) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


def test_entropy_values():
    assert entropy_from_symplectic_eigenvalue(1.0) == 0.0
    assert entropy_from_symplectic_eigenvalue(3.0) == pytest.approx(2.0, rel=1e-14)
    assert entropy_from_symplectic_eigenvalue(1.0206207261596576) == pytest.approx(
        0.08299706200713872, rel=1e-10
    )
    with pytest.raises(DomainError):
        entropy_from_symplectic_eigenvalue(0.9)


@given(x=st.integers(-15 * 10**6, 12 * 10**6))
@example(x=-15 * 10**6)
@settings(max_examples=200, deadline=None)
def test_entropy_holds_at_every_eigenvalue(x):
    # nu - 1 log-uniform over [1e-15, 1e12], and nu = 1 at the lower end
    nu = 1.0 + 10.0 ** (x / 10**6) if x > -15 * 10**6 else 1.0
    want = entropy_reference(nu)
    assert abs(entropy_from_symplectic_eigenvalue(nu) - want) <= 1e-13 * want


@pytest.mark.parametrize("a", SWEEP_A)
@pytest.mark.parametrize("b", SWEEP_B)
def test_eof_equals_reduced_entropy(a, b):
    p = PairParams(a=a, b=b)
    eof = entanglement_of_formation(p)
    nu = reduced_symplectic_eigenvalue(covariance_matrix(p))
    assert abs(eof - entropy_from_symplectic_eigenvalue(nu)) < 1e-9


@given(
    a=st.floats(min_value=0.3, max_value=5.0),
    b=st.floats(min_value=0.4, max_value=60.0),
)
@settings(max_examples=150, deadline=None)
def test_eof_entropy_identity_property(a, b):
    p = PairParams(a=a, b=b)
    eof = entanglement_of_formation(p)
    nu = reduced_symplectic_eigenvalue(covariance_matrix(p))
    assert abs(eof - entropy_from_symplectic_eigenvalue(nu)) < 1e-9


def test_eof_orderings():
    # strictly decreasing in b at fixed a, strictly increasing in a at fixed b
    b_grid = np.linspace(0.8, 30.0, 40)
    for a in (1.0, 4.0):
        values = [entanglement_of_formation(PairParams(a=a, b=b)) for b in b_grid]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    a_grid = np.linspace(0.5, 10.0, 20)
    for b in (1.0, 5.0):
        values = [entanglement_of_formation(PairParams(a=a, b=b)) for a in a_grid]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_verdict_survives_scaling():
    for a, b in [(1.0, 2.0), (2.0, 2.0), (0.5, 10.0)]:
        cm = covariance_matrix(PairParams(a=a, b=b))
        for s1, s2 in [(2.0, 0.5), (0.9, 1.8)]:
            assert not simon_invariant(scaled(cm, s1, s2)) >= 0.0
    sep = covariance_matrix(PairParams(a=1.0, b=INF))
    assert simon_invariant(scaled(sep, 2.0, 0.5)) >= 0.0
