"""Correlation matrix, separability invariant, standard form and EoF."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localent.covariance import (
    CovMatrix4,
    check_physical,
    covariance_matrix,
    entanglement_of_formation,
    entropy_from_symplectic_eigenvalue,
    reduced_symplectic_eigenvalue,
    simon_invariant,
    simon_invariant_closed_form,
    standard_form,
    standard_form_from_cm,
)
from localent.errors import DomainError
from localent.states import PairParams
from localent.states import PhysicalConstants

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
            check_physical(covariance_matrix(PairParams(a=a, b=b)), hbar=1.0)


def test_covariance_matrix_is_physical_over_the_family():
    # the CLI's simon skips the check on the family's own matrices
    for a in np.logspace(-3.0, 3.0, 7):
        for b in [*(a / np.logspace(-4.0, 4.0, 9)), INF]:
            check_physical(covariance_matrix(PairParams(a=float(a), b=float(b))), hbar=1.0)


def test_check_physical_rejects_sub_vacuum():
    bad = CovMatrix4(A=np.diag([0.1, 0.1]), B=np.diag([0.1, 0.1]), C=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        check_physical(bad, hbar=1.0)


def test_invariant_value_a1_b2():
    cm = covariance_matrix(PairParams(a=1.0, b=2.0))
    result = simon_invariant(cm)
    assert result.invariant_I == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert not result.separable


def test_invariant_boundary_at_infinite_b():
    result = simon_invariant(covariance_matrix(PairParams(a=1.0, b=INF)))
    assert result.invariant_I == pytest.approx(0.0, abs=1e-14)
    assert result.separable


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
    general = simon_invariant(covariance_matrix(p)).invariant_I
    closed = simon_invariant_closed_form(p)
    assert abs(general - closed) <= 1e-10 * max(1.0, abs(closed))
    assert closed < 0.0


def test_invariant_monotone_to_zero():
    values = [simon_invariant_closed_form(PairParams(a=1.0, b=b)) for b in (1, 2, 5, 20, 100)]
    assert all(v < 0 for v in values)
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_invariant_unchanged_by_symplectic_scaling():
    cm = covariance_matrix(PairParams(a=1.0, b=2.0))
    base = simon_invariant(cm).invariant_I
    for s1, s2 in [(2.0, 2.0), (0.5, 0.5), (3.0, 0.7), (1.3, 1.3)]:
        moved = simon_invariant(scaled(cm, s1, s2)).invariant_I
        assert abs(moved - base) < 1e-12 * max(1.0, abs(base))


@given(
    a=st.floats(min_value=0.3, max_value=5.0),
    b=st.floats(min_value=0.4, max_value=60.0),
)
@settings(max_examples=150, deadline=None)
def test_equivalence_property(a, b):
    p = PairParams(a=a, b=b)
    general = simon_invariant(covariance_matrix(p)).invariant_I
    closed = simon_invariant_closed_form(p)
    assert abs(general - closed) <= 1e-9 * max(1.0, abs(closed))


def test_standard_form_values():
    sf = standard_form(PairParams(a=1.0, b=2.0))
    assert sf.n == pytest.approx(1.0206207261596576, rel=1e-12)
    assert sf.k_x == pytest.approx(0.20412414523193154, rel=1e-12)
    assert sf.k_p == sf.k_x


def test_standard_form_scaling_factor():
    # diag(s, 1/s, s, 1/s) with s = (4 f2 / a^4)^(1/4) must produce the pattern
    p = PairParams(a=1.0, b=2.0)
    s = 6.0**0.25
    assert s == pytest.approx(1.565085, abs=1e-6)
    scale = np.diag([s, 1.0 / s, s, 1.0 / s])
    gamma0 = scale @ covariance_matrix(p).matrix @ scale.T
    sf = standard_form(p)
    assert gamma0[0, 0] == pytest.approx(sf.n, rel=1e-12)
    assert gamma0[1, 1] == pytest.approx(sf.n, rel=1e-12)
    assert gamma0[0, 2] == pytest.approx(sf.k_x, rel=1e-12)
    assert gamma0[1, 3] == pytest.approx(-sf.k_p, rel=1e-12)


@pytest.mark.parametrize("hbar, mass", [(1.0, 1.0), (0.3, 2.5), (4.0, 0.2)])
def test_standard_form_congruence(hbar, mass):
    # diag(s, 1/s, s, 1/s) with s = (4 hbar^2 f2 / a^4)^(1/4) carries the
    # correlation matrix onto the pattern of the (n, k) standard_form reports
    constants = PhysicalConstants(hbar=hbar, mass=mass)
    for a in np.logspace(-3.0, 3.0, 7):
        for b in [*(a / np.logspace(-4.0, 4.0, 9)), INF]:
            p = PairParams(a=float(a), b=float(b), constants=constants)
            f2 = 1.0 + 2.0 * (p.a / p.b) ** 2
            s = (4.0 * hbar * hbar * f2 / p.a**4) ** 0.25
            scale = np.diag([s, 1.0 / s, s, 1.0 / s])
            gamma0 = scale @ covariance_matrix(p).matrix @ scale.T
            sf = standard_form(p)
            assert sf.k_x == sf.k_p
            n, k = sf.n, sf.k_x
            expected = np.array(
                [[n, 0.0, k, 0.0], [0.0, n, 0.0, -k], [k, 0.0, n, 0.0], [0.0, -k, 0.0, n]]
            )
            assert np.abs(gamma0 - expected).max() <= 1e-12 * max(1.0, n), (a, b)


def test_standard_form_separable():
    sf = standard_form(PairParams(a=3.0, b=INF))
    assert sf.n == pytest.approx(1.0, rel=1e-14)
    assert sf.k_x == 0.0 and sf.k_p == 0.0


def test_standard_form_recovered_after_scaling():
    p = PairParams(a=1.0, b=2.0)
    reference = standard_form(p)
    cm = covariance_matrix(p)
    for s1, s2 in [(1.0, 1.0), (2.0, 2.0), (0.4, 1.7)]:
        recovered = standard_form_from_cm(scaled(cm, s1, s2))
        assert recovered.n == pytest.approx(reference.n, rel=1e-10)
        assert recovered.k_x == pytest.approx(reference.k_x, rel=1e-10)
        assert recovered.k_p == pytest.approx(reference.k_p, rel=1e-10)


def test_standard_form_from_cm_rejects_asymmetric():
    cm = covariance_matrix(PairParams(a=1.0, b=2.0))
    bent = CovMatrix4(A=cm.A, B=2.0 * cm.B, C=cm.C)
    with pytest.raises(DomainError):
        standard_form_from_cm(bent)


def test_eof_zero_at_delta_one():
    assert entanglement_of_formation(standard_form(PairParams(a=1.0, b=INF))) == 0.0


def test_eof_spot_value():
    eof = entanglement_of_formation(standard_form(PairParams(a=1.0, b=2.0)))
    assert eof == pytest.approx(0.08299706200713872, rel=1e-10)


def test_eof_coefficient_identity():
    # c+ - c- = 1 for every delta
    for delta in (0.2, 0.5, 0.816497, 0.99, 1.0, 1.5):
        root = math.sqrt(delta)
        c_plus = (1.0 / root + root) ** 2 / 4.0
        c_minus = (1.0 / root - root) ** 2 / 4.0
        assert c_plus - c_minus == pytest.approx(1.0, rel=1e-12)


def test_eof_rejects_unphysical_standard_form():
    from localent.covariance import StandardForm

    with pytest.raises(DomainError):
        entanglement_of_formation(StandardForm(n=1.0, k_x=1.5, k_p=1.5))


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


@pytest.mark.parametrize("a", SWEEP_A)
@pytest.mark.parametrize("b", SWEEP_B)
def test_eof_equals_reduced_entropy(a, b):
    p = PairParams(a=a, b=b)
    sf = standard_form(p)
    eof = entanglement_of_formation(sf)
    nu = reduced_symplectic_eigenvalue(covariance_matrix(p))
    assert abs(eof - entropy_from_symplectic_eigenvalue(nu)) < 1e-9
    delta = math.sqrt((sf.n - sf.k_x) * (sf.n - sf.k_p))
    assert delta + 1.0 / delta == pytest.approx(2.0 * nu, rel=1e-12)


@given(
    a=st.floats(min_value=0.3, max_value=5.0),
    b=st.floats(min_value=0.4, max_value=60.0),
)
@settings(max_examples=150, deadline=None)
def test_eof_entropy_identity_property(a, b):
    p = PairParams(a=a, b=b)
    eof = entanglement_of_formation(standard_form(p))
    nu = reduced_symplectic_eigenvalue(covariance_matrix(p))
    assert abs(eof - entropy_from_symplectic_eigenvalue(nu)) < 1e-9


def test_eof_orderings():
    # strictly decreasing in b at fixed a, strictly increasing in a at fixed b
    b_grid = np.linspace(0.8, 30.0, 40)
    for a in (1.0, 4.0):
        values = [entanglement_of_formation(standard_form(PairParams(a=a, b=b))) for b in b_grid]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    a_grid = np.linspace(0.5, 10.0, 20)
    for b in (1.0, 5.0):
        values = [entanglement_of_formation(standard_form(PairParams(a=a, b=b))) for a in a_grid]
        assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


def test_verdict_survives_scaling():
    for a, b in [(1.0, 2.0), (2.0, 2.0), (0.5, 10.0)]:
        cm = covariance_matrix(PairParams(a=a, b=b))
        for s1, s2 in [(2.0, 0.5), (0.9, 1.8)]:
            assert simon_invariant(scaled(cm, s1, s2)).separable is False
    sep = covariance_matrix(PairParams(a=1.0, b=INF))
    assert simon_invariant(scaled(sep, 2.0, 0.5)).separable is True
