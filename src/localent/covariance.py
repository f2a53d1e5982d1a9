"""Correlation-matrix analysis: separability test and entanglement measure.

The two-mode correlation matrix is assembled in the doubled convention
``gamma_ij = <R_i R_j + R_j R_i> - 2 <R_i><R_j>`` with R = (X1, P1, X2, P2),
so a vacuum-width mode has diagonal 1.  Separability is decided by the
PPT-based determinant inequality for Gaussian states (Simon's criterion).
For the family, one vectorized kernel gives the smallest symplectic
eigenvalue nu of the partial transpose, which decides separability
(nu < 1 iff entangled) and sets the entanglement of formation; the test
suite cross-checks the latter against the von Neumann entropy of the
reduced single-mode state -- the two agree for pure states.

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
    "SimonResult",
    "J_BLOCK",
    "symplectic_form",
    "covariance_matrix",
    "check_physical",
    "simon_invariant",
    "simon_invariant_closed_form",
    "entanglement_of_formation",
    "reduced_symplectic_eigenvalue",
    "entropy_from_symplectic_eigenvalue",
]

J_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])

_PHYSICAL_TOL = 1e-8  # check_physical: relative eigenvalue dip that rounding explains
_LN2 = math.log(2.0)


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
        gamma = np.empty((4, 4))
        gamma[:2, :2], gamma[:2, 2:] = self.A, self.C
        gamma[2:, :2], gamma[2:, 2:] = self.C.T, self.B
        return gamma


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
    f1 = entanglement_factor(1, params)
    f2 = entanglement_factor(2, params)
    inv_b2 = 1.0 / (params.b * params.b)  # exactly 0.0 for the separable state
    A = np.diag([a2 * f1 / (2.0 * f2), 2.0 * f1 / a2])
    C = np.diag([a2 * a2 * inv_b2 / (2.0 * f2), -2.0 * inv_b2])
    return CovMatrix4(A=A, B=A.copy(), C=C)


def check_physical(cm: CovMatrix4) -> None:
    """Verify the uncertainty relation gamma + i*Omega >= 0.

    Raises DomainError when the smallest eigenvalue dips below -_PHYSICAL_TOL
    relative to the matrix scale (pure states sit exactly on the boundary, so
    a strict check would reject them through rounding alone).
    """
    gamma = cm.matrix
    scale = max(1.0, float(np.abs(gamma).max()))
    if not np.allclose(gamma, gamma.T, rtol=0.0, atol=1e-12 * scale):
        raise DomainError("correlation matrix is not symmetric")
    eigs = np.linalg.eigvalsh(gamma + 1j * symplectic_form())
    if eigs.min() < -_PHYSICAL_TOL * scale:
        raise DomainError(
            f"correlation matrix violates the uncertainty relation "
            f"(min eigenvalue {eigs.min():.3e})"
        )


def simon_invariant(cm: CovMatrix4, validate: bool = True) -> SimonResult:
    """Evaluate the Gaussian PPT separability invariant for arbitrary blocks.

    I = det A det B + (1 - |det C|)^2 - Tr{A J C J B J C^T J} - (det A + det B)

    The state is separable iff I >= 0.  Exact at the boundary: all 2x2
    determinants are expanded in closed form.
    """
    if validate:
        check_physical(cm)
    A, B, C = cm.A, cm.B, cm.C
    det_a = _det2(A)
    det_b = _det2(B)
    det_c = _det2(C)
    J = J_BLOCK
    trace_term = float(np.trace(A @ J @ C @ J @ B @ J @ C.T @ J))
    invariant = det_a * det_b + (1.0 - abs(det_c)) ** 2 - trace_term - (det_a + det_b)
    return SimonResult(invariant_I=invariant, separable=invariant >= 0.0)


def simon_invariant_closed_form(params: PairParams) -> float:
    """Closed form of the separability invariant for this family.

    I = -4 (a/b)^4 / f2: strictly negative for every finite b and exactly 0
    in the separable limit.
    """
    r2 = (params.a / params.b) ** 2
    f2 = entanglement_factor(2, params)
    return -4.0 * r2 * r2 / f2 + 0.0  # + 0.0 normalizes -0.0 at b = inf


def _pt_eigenvalue(a, b):
    """nu = f2^(-1/2), the smaller symplectic eigenvalue of the partially
    transposed correlation matrix, and 1 - nu, elementwise over numpy arrays
    or scalars (a scalar call is a 0-d array call).

    With L = log1p(2 (a/b)^2) both come straight from L, nu = exp(-L/2) and
    1 - nu = -expm1(-L/2), so neither cancels at either end of the range.
    The pair is entangled iff 1 - nu > 0.
    """
    r = a / b
    half_log_f2 = 0.5 * np.log1p(2.0 * r * r)
    return np.exp(-half_log_f2), -np.expm1(-half_log_f2)


def _entropy(c, log_ratio):
    """Entropy in bits, (1 + c) log2(1 + c) - c log2 c, of a one-mode Gaussian
    state with c = (nu - 1)/2 >= 0, given log_ratio = log1p(1/c).

    Taken as (log1p(c) + c log_ratio) / ln 2: both terms are >= 0, so
    nothing cancels at any c.  c = 0 gives exactly 0.
    """
    return (np.log1p(c) + np.where(c > 0.0, c * log_ratio, 0.0)) / _LN2


def _eof(a, b):
    """Entanglement of formation (bits) of the pair, elementwise as
    :func:`_pt_eigenvalue`: the entropy at c = (1 - nu)^2 / (4 nu)."""
    # b = inf divides by gap = 0 (and c * log_ratio is 0 * inf), which
    # _entropy's c = 0 case absorbs; an overflowing a/b ends in NaN
    with np.errstate(all="ignore"):
        nu, gap = _pt_eigenvalue(a, b)
        # log1p(1/c) as 2 log1p(2 nu / gap), since (1 + 2 nu/gap)^2 = 1 + 1/c:
        # 1/c itself overflows once c is subnormal, at a/b below ~1e-77
        return _entropy(gap * gap / (4.0 * nu), 2.0 * np.log1p(2.0 * nu / gap))


def entanglement_of_formation(params: PairParams) -> float:
    """Entanglement of formation (bits) of the pair (Giedke et al., PRL 91,
    107901, 2003).

    EoF = c+ log2 c+ - c- log2 c-  with  c- = (1 - nu)^2 / (4 nu), c+ = 1 + c-
    and nu = f2^(-1/2) (the product state b = inf gives nu = 1 and EoF = 0
    exactly).  Raises OverflowError when a/b is too large for the float range.
    """
    eof = float(_eof(params.a, params.b))
    if not math.isfinite(eof):
        raise OverflowError(f"a/b = {params.a}/{params.b} is outside the float range")
    return eof


def reduced_symplectic_eigenvalue(cm: CovMatrix4) -> float:
    """Symplectic eigenvalue sqrt(det A) of the reduced one-mode state.

    Equals 1 iff the reduced state is pure, i.e. iff the pair is a product
    state; for this family it evaluates to f1/sqrt(f2).
    """
    return math.sqrt(_det2(cm.A))


def entropy_from_symplectic_eigenvalue(nu: float) -> float:
    """Von Neumann entropy (bits) of a one-mode Gaussian state from nu >= 1."""
    if nu < 1.0 - 1e-9:
        raise DomainError(f"symplectic eigenvalue must be >= 1, got {nu}")
    c = np.float64((max(nu, 1.0) - 1.0) / 2.0)
    with np.errstate(all="ignore"):  # 1/c = inf and 0 * inf at nu = 1, as in _eof
        return float(_entropy(c, np.log1p(1.0 / c)))
