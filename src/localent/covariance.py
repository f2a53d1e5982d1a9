"""Correlation-matrix analysis: separability test and entanglement measure.

The two-mode correlation matrix is assembled in the doubled convention
``gamma_ij = <R_i R_j + R_j R_i> - 2 <R_i><R_j>`` with R = (X1, P1, X2, P2),
so a vacuum-width mode has diagonal hbar.  Separability is decided by the
PPT-based determinant inequality for Gaussian states (Simon's criterion),
entanglement is quantified by the entanglement of formation of the symmetric
standard form, and the result is cross-checked against the von Neumann
entropy of the reduced single-mode state -- the two agree for pure states.

Determinants and the trace combination in the criterion are evaluated with
explicit 2x2 closed forms rather than pivoted linear algebra, so there is no
factorization noise near the separability boundary I = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import PairParams, entanglement_factor

__all__ = [
    "CovMatrix4",
    "StandardForm",
    "SimonResult",
    "J_BLOCK",
    "symplectic_form",
    "covariance_matrix",
    "check_physical",
    "simon_invariant",
    "simon_invariant_closed_form",
    "standard_form",
    "standard_form_from_cm",
    "entanglement_of_formation",
    "reduced_symplectic_eigenvalue",
    "entropy_from_symplectic_eigenvalue",
]

J_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])

_PHYSICAL_TOL = 1e-8  # check_physical: relative eigenvalue dip that rounding explains
_STANDARD_FORM_ATOL = 1e-9  # standard_form_from_cm: relative size that counts as zero


def _array_log2(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


# (sqrt, power, log2) of the closed-form kernels for floats and for arrays.  The
# array ones give the float ones' bits: np.float_power calls the C library's pow,
# as float ** 2 and math.pow do, and log2 is math.log2 mapped over the array.
# numpy's own square and log2 differ from those in 0.1% and 0.02% of values, and
# the cancellation in the EoF of a strongly entangled pair turns such an ulp
# into up to 1e9 ulp.
_FLOAT_OPS = (math.sqrt, math.pow, math.log2)
_ARRAY_OPS = (np.sqrt, np.float_power, _array_log2)


def _ops(x) -> tuple:
    return _ARRAY_OPS if isinstance(x, np.ndarray) else _FLOAT_OPS


def symplectic_form() -> np.ndarray:
    """4x4 symplectic form, one J block per particle, ordering (X1,P1,X2,P2)."""
    omega = np.zeros((4, 4))
    omega[:2, :2] = J_BLOCK
    omega[2:, 2:] = J_BLOCK
    return omega


@dataclass(frozen=True)
class CovMatrix4:
    """Two-mode correlation matrix in block form [[A, C], [C^T, B]]."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self) -> None:
        for name in ("A", "B", "C"):
            block = getattr(self, name)
            if np.asarray(block).shape != (2, 2):
                raise DomainError(f"block {name} must be 2x2")

    @classmethod
    def from_matrix(cls, gamma: np.ndarray) -> "CovMatrix4":
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (4, 4):
            raise DomainError("correlation matrix must be 4x4")
        return cls(A=gamma[:2, :2].copy(), B=gamma[2:, 2:].copy(), C=gamma[:2, 2:].copy())

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.A, self.C], [self.C.T, self.B]])


@dataclass(frozen=True)
class StandardForm:
    """Entries (n, k_x, k_p) of the locally scaled symmetric correlation matrix."""

    n: float
    k_x: float
    k_p: float

    def __post_init__(self) -> None:
        if not self.n > 0:
            raise DomainError(f"standard-form diagonal must be positive, got {self.n}")


@dataclass(frozen=True)
class SimonResult:
    """Value of the separability invariant and the verdict it implies (I >= 0)."""

    invariant_I: float
    separable: bool


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def covariance_matrix(params: PairParams) -> CovMatrix4:
    """Correlation matrix of the pair at t = 0.

    Both reduced blocks are equal (the state is symmetric under particle
    exchange) and the cross block is diagonal with a positive position
    correlation and a negative momentum correlation; at b = inf the cross
    block vanishes.
    """
    a2 = params.a * params.a
    h = params.constants.hbar
    f1 = entanglement_factor(1, params)
    f2 = entanglement_factor(2, params)
    inv_b2 = 1.0 / (params.b * params.b)  # exactly 0.0 for the separable state
    A = np.diag([a2 * f1 / (2.0 * f2), 2.0 * h * h * f1 / a2])
    C = np.diag([a2 * a2 * inv_b2 / (2.0 * f2), -2.0 * h * h * inv_b2])
    return CovMatrix4(A=A, B=A.copy(), C=C)


def check_physical(cm: CovMatrix4, hbar: float) -> None:
    """Verify the uncertainty relation gamma + i*hbar*Omega >= 0.

    Raises DomainError when the smallest eigenvalue dips below -_PHYSICAL_TOL
    relative to the matrix scale (pure states sit exactly on the boundary, so
    a strict check would reject them through rounding alone).
    """
    gamma = cm.matrix
    scale = max(1.0, float(np.abs(gamma).max()))
    if not np.allclose(gamma, gamma.T, rtol=0.0, atol=1e-12 * scale):
        raise DomainError("correlation matrix is not symmetric")
    eigs = np.linalg.eigvalsh(gamma + 1j * hbar * symplectic_form())
    if eigs.min() < -_PHYSICAL_TOL * scale:
        raise DomainError(
            f"correlation matrix violates the uncertainty relation "
            f"(min eigenvalue {eigs.min():.3e})"
        )


def simon_invariant(cm: CovMatrix4, hbar: float = 1.0, validate: bool = True) -> SimonResult:
    """Evaluate the Gaussian PPT separability invariant for arbitrary blocks.

    I = det A det B + (hbar^2 - |det C|)^2 - Tr{A J C J B J C^T J}
        - hbar^2 (det A + det B)

    The state is separable iff I >= 0.  Exact at the boundary: all 2x2
    determinants are expanded in closed form.
    """
    if validate:
        check_physical(cm, hbar)
    A, B, C = cm.A, cm.B, cm.C
    det_a = _det2(A)
    det_b = _det2(B)
    det_c = _det2(C)
    J = J_BLOCK
    trace_term = float(np.trace(A @ J @ C @ J @ B @ J @ C.T @ J))
    h2 = hbar * hbar
    invariant = det_a * det_b + (h2 - abs(det_c)) ** 2 - trace_term - h2 * (det_a + det_b)
    return SimonResult(invariant_I=invariant, separable=invariant >= 0.0)


def simon_invariant_closed_form(params: PairParams) -> float:
    """Closed form of the separability invariant for this family.

    I = -4 hbar^4 (a/b)^4 / f2: strictly negative for every finite b and
    exactly 0 in the separable limit.
    """
    h = params.constants.hbar
    r2 = (params.a / params.b) ** 2
    f2 = entanglement_factor(2, params)
    return -4.0 * h**4 * r2 * r2 / f2 + 0.0  # + 0.0 normalizes -0.0 at b = inf


def standard_form(params: PairParams) -> StandardForm:
    """Reduce the correlation matrix to standard form by local scaling.

    The scaling diag(s, 1/s, s, 1/s) with s = (4 hbar^2 f2 / a^4)^(1/4)
    equalizes the diagonal to n = hbar f1 / sqrt(f2) and leaves
    k_x = k_p = hbar a^2 / (b^2 sqrt(f2)).  Only (n, k) are evaluated here;
    the test suite checks the congruence across the parameter range.
    """
    return StandardForm(*_standard_form(params.a, params.b, params.constants.hbar))


def _standard_form(a, b, hbar):
    """Unchecked (n, k_x, k_p) of :func:`standard_form`, elementwise over
    floats or equal-shape arrays a, b.  For floats, an a/b whose square
    overflows raises OverflowError."""
    sqrt, power, _ = _ops(a)
    r = a / b
    sqrt_f2 = sqrt(1.0 + 2 * r * r)  # entanglement_factor(2, ...)
    n = hbar * (1.0 + r * r) / sqrt_f2
    k = hbar * power(a / b, 2) / sqrt_f2
    return n, k, k


def standard_form_from_cm(cm: CovMatrix4) -> StandardForm:
    """Recover (n, k_x, k_p) from a symmetric correlation matrix with diagonal blocks.

    Each party is rescaled by its own s = (A_pp/A_xx)^(1/4); works for any
    locally rescaled version of the family's matrix, which is what the
    invariance tests exercise.
    """
    for name, block in (("A", cm.A), ("B", cm.B), ("C", cm.C)):
        off = max(abs(float(block[0, 1])), abs(float(block[1, 0])))
        if off > _STANDARD_FORM_ATOL * max(1.0, float(np.abs(block).max())):
            raise DomainError(f"block {name} is not diagonal; cannot reduce to standard form")
    n_a = math.sqrt(_det2(cm.A))
    n_b = math.sqrt(_det2(cm.B))
    if abs(n_a - n_b) > _STANDARD_FORM_ATOL * max(1.0, n_a):
        raise DomainError("state is not symmetric: the two reduced blocks differ")
    s1 = (cm.A[1, 1] / cm.A[0, 0]) ** 0.25
    s2 = (cm.B[1, 1] / cm.B[0, 0]) ** 0.25
    k_x = float(s1 * s2 * cm.C[0, 0])
    k_p = float(-cm.C[1, 1] / (s1 * s2))
    return StandardForm(n=n_a, k_x=k_x, k_p=k_p)


def _entropy_terms(plus, minus):
    log2 = _ops(plus)[2]
    # minus*log2(minus) -> 0 as minus -> 0 (continuity at the product state)
    return plus * log2(plus) - minus * log2(np.where(minus > 0.0, minus, 1.0))


def entanglement_of_formation(sf: StandardForm, hbar: float = 1.0) -> float:
    """Entanglement of formation (bits) of a symmetric two-mode Gaussian state.

    EoF = c+ log2 c+ - c- log2 c-  with  c± = (delta^(-1/2) ± delta^(1/2))^2 / 4
    and delta = sqrt((n - k_x)(n - k_p)) in vacuum units (n = hbar, k = 0 gives
    delta = 1 and EoF = 0 exactly).
    """
    gx = sf.n - sf.k_x
    gp = sf.n - sf.k_p
    if gx <= 0 or gp <= 0:
        raise DomainError(
            f"unphysical standard form: n - k_x = {gx}, n - k_p = {gp} must both be positive"
        )
    return _entanglement_of_formation(sf.n, sf.k_x, sf.k_p, hbar)


def _entanglement_of_formation(n, k_x, k_p, hbar):
    """Unchecked :func:`entanglement_of_formation`, elementwise over floats or
    equal-shape arrays of standard-form entries."""
    sqrt, power, _ = _ops(n)
    delta = sqrt((n - k_x) * (n - k_p)) / hbar
    root = sqrt(delta)
    c_plus = power(1.0 / root + root, 2) / 4.0
    c_minus = power(1.0 / root - root, 2) / 4.0
    return _entropy_terms(c_plus, c_minus)


def reduced_symplectic_eigenvalue(cm: CovMatrix4, hbar: float = 1.0) -> float:
    """Symplectic eigenvalue sqrt(det A)/hbar of the reduced one-mode state.

    Equals 1 iff the reduced state is pure, i.e. iff the pair is a product
    state; for this family it evaluates to f1/sqrt(f2).
    """
    return math.sqrt(_det2(cm.A)) / hbar


def entropy_from_symplectic_eigenvalue(nu: float) -> float:
    """Von Neumann entropy (bits) of a one-mode Gaussian state from nu >= 1."""
    if nu < 1.0 - 1e-9:
        raise DomainError(f"symplectic eigenvalue must be >= 1, got {nu}")
    nu = max(nu, 1.0)
    return _entropy_terms((nu + 1.0) / 2.0, (nu - 1.0) / 2.0)
