"""Brute-force validation on a two-dimensional spectral grid, in factored form.

The t = 0 two-particle amplitude is sampled on an n x n grid and factorised
once into Schmidt factors, psi = left @ right with left n x r and right
r x n.  Free evolution is U (x) U, so it acts on each factor alone and never
changes the rank: ``evolve`` applies the exact free propagator as a phase in
Fourier space to each factor's r columns or rows, with 2r one-dimensional
transforms each way, no 2-D transform and no time-stepping error.  Every
moment, marginal density, norm, edge leakage and correlation-matrix entry is
a contraction of the factors with cost O(n r^2): r x r Gram matrices such
as left^H diag(w) left and right diag(w) right^H, then an elementwise trace
of their product.
None of them assumes orthonormal factors.  Nothing here reuses the
closed-form dispersions, which is what makes these numbers an independent
check of them.

The sampled amplitude is psi[i, j] = c p_i E[i, j] conj(p_j): c is the
renormalized constant, p = exp(i k_c x) the packet phase with |p_i| = 1,
and E the real, symmetric envelope.  A diagonal unitary changes no
singular value, so psi's Schmidt factors are E's with the phase moved onto
them: left = diag(p) U and right = c S U^T diag(conj p).  Only E is
sampled, as one float64 array (8 n^2 bytes, the only n x n array, which
dies inside ``initial_grid``), and the whole factorisation runs in real
arithmetic.  E is a centre-of-mass Gaussian of x1 + x2 times a
relative-coordinate Gaussian of x1 - x2: on the uniform axis a Hankel
matrix times a Toeplitz matrix, sampled from 2n - 1 sums and n differences,
4n exponentials in all, and exactly symmetric.

E is also a positive semidefinite kernel, g_i g_j exp(2 x_i x_j / b^2), and
it is factorised by pivoted Cholesky, E ~ L L^T (Harbrecht, Peters &
Schneider, Appl. Numer. Math. 62, 428 (2012)): each pivot takes the largest
remaining diagonal entry and reads one column of E.  The remaining trace
only says when to look: L is accepted once the exact Frobenius residual
||E - L L^T||, summed over blocks of rows, is at most RESIDUAL_LIMIT ||E||,
which is psi's relative residual too, since |p_i| = 1.  The thin SVD
L = U S V^T then gives E's eigenvectors U and Schmidt values S^2 (Ekert &
Knight, Am. J. Phys. 63, 415 (1995)), and the weakest modes are dropped
while the total error stays within half that limit.  Nothing is random.

Conventions: psi[i, j] = psi(x1_i, x2_j) on the uniform axis [-L/2, L/2)
with n points; wavenumbers follow numpy's FFT ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .covariance import CovMatrix4
from .errors import DomainError, GridError, require_memory
from .states import PairParams, _envelope_factors, _prefactor, drift_velocity, position_dispersion

__all__ = [
    "WaveGrid",
    "MomentSet",
    "default_extent",
    "initial_grid",
    "boundary_leakage",
    "evolve",
    "moments",
    "numeric_covariance_matrix",
    "position_marginal",
    "momentum_marginal",
    "marginal_sigma",
    "marginal_excess_kurtosis",
]

LEAKAGE_LIMIT = 1e-8
RESIDUAL_LIMIT = 1e-13  # relative Frobenius error of an accepted factorisation
PIVOT_BLOCK = 8  # pivots taken after a failed residual check, before the next
SKELETON_COLUMNS = 32  # the Cholesky factor's first capacity, doubled when full
ROW_BLOCK = 64  # rows of the residual formed at once


@dataclass(frozen=True)
class WaveGrid:
    """Discretized two-particle wavefunction at one instant, as Schmidt
    factors: psi(x1_i, x2_j) = (left @ right)[i, j].

    ``left`` (n x r) holds particle 1's modes as columns and ``right``
    (r x n) particle 2's as rows, weighted by the singular values.
    ``schmidt`` holds the r Schmidt coefficients of the sampled state: the
    singular values of psi times dx, whose squares sum to its norm.  All
    three are read-only.
    """

    n: int
    extent: float
    params: PairParams
    t: float
    left: np.ndarray
    right: np.ndarray
    schmidt: np.ndarray

    @property
    def dx(self) -> float:
        return self.extent / self.n

    @property
    def axis(self) -> np.ndarray:
        return _axis(self.n, self.extent)

    @property
    def k_axis(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dx)

    def norm(self) -> float:
        """Quadrature of |psi|^2 over the plane; 1 up to grid error."""
        return _trace(_left_gram(self.left), _right_gram(self.right)) * self.dx * self.dx


def _axis(n: int, extent: float) -> np.ndarray:
    """The n points of the uniform axis [-extent/2, extent/2)."""
    return -0.5 * extent + (extent / n) * np.arange(n)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged so that no caller can corrupt a grid's factors."""
    array.flags.writeable = False
    return array


def _left_gram(left: np.ndarray, weights=1.0, other: np.ndarray | None = None) -> np.ndarray:
    """The r x r matrix left^H diag(weights) other of n x r factors; ``other``
    defaults to ``left``."""
    return (left.conj().T * weights) @ (left if other is None else other)


def _right_gram(right: np.ndarray, weights=1.0, other: np.ndarray | None = None) -> np.ndarray:
    """The r x r matrix other diag(weights) right^H of r x n factors; ``other``
    defaults to ``right``."""
    return ((right if other is None else other) * weights) @ right.conj().T


def _trace(left_gram: np.ndarray, right_gram: np.ndarray) -> float:
    """Re tr(left_gram @ right_gram), as an elementwise sum.

    With psi = L R and psi' = L' R', sum_ij f_i g_j conj(psi_ij) psi'_ij is
    tr((L^H diag(f) L') (R' diag(g) R^H)).
    """
    return float(np.sum(left_gram.T * right_gram).real)


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of positions and wavenumbers by quadrature."""

    mean_x1: float
    mean_x2: float
    mean_k1: float
    mean_k2: float
    var_x1: float
    var_x2: float
    cov_x1x2: float
    var_k1: float
    var_k2: float
    cov_k1k2: float
    sym_x1k1: float
    sym_x1k2: float
    sym_x2k1: float
    sym_x2k2: float


def default_extent(params: PairParams, t_max: float = 0.0) -> float:
    """Axis length holding both the initial support and the spread, drifted packet.

    Eight standard deviations of margin on each side: a Gaussian tail beyond
    8 sigma carries ~1e-15, comfortably under the 1e-8 leakage budget (half
    that margin already leaks ~6e-5).
    """
    spread_now = position_dispersion(0.0, params)
    spread_later = position_dispersion(t_max, params)
    drift = abs(drift_velocity(params)) * t_max
    return max(16.0 * spread_now, 16.0 * spread_later + 2.0 * drift)


def boundary_leakage(grid: WaveGrid) -> float:
    """Probability mass in the outermost two cells along each edge.

    The mass of the edge rows plus that of the edge columns, less the
    corners they share: three sums of that small mass, where the whole mass
    minus the inner mass would cancel two sums near 1."""
    edge = [0, 1, -2, -1]
    left_edge, right_edge = _left_gram(grid.left[edge]), _right_gram(grid.right[:, edge])
    rows = _trace(left_edge, _right_gram(grid.right))
    columns = _trace(_left_gram(grid.left), right_edge)
    corners = _trace(left_edge, right_edge)
    return (rows + columns - corners) * grid.dx * grid.dx


def _peak_bytes(n: int, capacity: int) -> int:
    """Bytes alive at ``initial_grid``'s peak once the Cholesky skeleton
    holds c = ``capacity`` columns.  Beside the n x n envelope and the
    skeleton, the largest of: the smaller skeleton during a growth, one
    residual row block, or the SVD of the skeleton's columns (LAPACK's copy
    of them, its and numpy's left singular vectors and c x c work arrays,
    3nc + 9c^2 words).  After it, with the envelope gone: the complex
    factors, the copies that the leakage check makes of them and its c x c
    Grams (8nc + 8c^2 words)."""
    c = capacity
    return 8 * max(n * n + 4 * n * c + 9 * c * c, 8 * c * (n + c))


def _grid_envelope(x: np.ndarray, params: PairParams) -> np.ndarray:
    """The real envelope E[i, j] on the uniform axis ``x``, its one n x n
    allocation: the centre-of-mass factor at x_i + x_j, a Hankel matrix of
    2n - 1 sums, times the relative factor at x_i - x_j, a Toeplitz matrix
    of n differences.  Exactly symmetric, from 4n exponentials."""
    n = len(x)
    k = np.arange(2 * n - 1)
    centre, relative = _envelope_factors(x[k // 2] + x[(k + 1) // 2], x - x[0], params)
    relative = np.concatenate([relative[:0:-1], relative])  # entry m at (m - n + 1) dx
    # window i holds the factors at i + j and, reversed, at i - j
    return sliding_window_view(centre, n) * sliding_window_view(relative, n)[:, ::-1]


def _sampled_amplitude(
    params: PairParams, n: int, extent: float | None, t_max: float
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The t = 0 amplitude on the n x n grid as psi = c diag(p) E diag(conj p):
    the packet phase p = exp(i k_c x), the real envelope E, ||E||_F^2, and
    the extent.

    c is the closed-form normalisation.  The quadrature of |psi|^2 is
    c^2 m^2 ||E||_F^2 dx^2 with m = |p_i|^2, the same for every i (1 for
    any finite k_c, NaN otherwise), and the renormalization factor it gives
    must stay within 1e-4 of unity.  Raises before any allocation when the
    grid is invalid or the factorisation's first peak exceeds the physical
    memory.
    """
    if n < 64 or n & (n - 1):
        raise GridError(f"grid size must be a power of two >= 64, got {n}")
    if not math.isfinite(t_max):
        raise DomainError(f"planned evolution time t_max must be finite, got {t_max}")
    if extent is None:
        extent = default_extent(params, t_max)
    if not math.isfinite(extent):
        raise DomainError(f"grid extent must be finite, got {extent}")
    if extent < 16.0 * position_dispersion(0.0, params):
        raise GridError(
            f"extent {extent:g} is below 16 initial position dispersions; enlarge the domain"
        )
    require_memory(_peak_bytes(n, SKELETON_COLUMNS))
    x = _axis(n, extent)
    phase = np.exp(1j * params.k_c * x)
    envelope = _grid_envelope(x, params)
    weight = float(np.vdot(envelope, envelope))
    modulus = float(np.mean(np.abs(phase) ** 2))
    factor = 1.0 / (_prefactor(params) * modulus * math.sqrt(weight) * (extent / n))
    if not abs(factor - 1.0) <= 1e-4:
        raise GridError(
            f"grid under-resolves the state (renormalization factor {factor:.6f})"
        )
    return phase, envelope, weight, extent


def _residual(amp: np.ndarray, skeleton: np.ndarray) -> float:
    """||amp - skeleton^T @ skeleton||_F of a symmetric ``amp``, formed
    ROW_BLOCK rows at a time from the blocks on and left of the diagonal."""
    n = len(amp)
    total = 0.0
    buffer = np.empty(ROW_BLOCK * n)  # the one row block alive
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        miss = buffer[:(stop - start) * stop].reshape(stop - start, stop)
        np.matmul(skeleton[:, start:stop].T, skeleton[:, :stop], out=miss)
        miss -= amp[start:stop, :stop]
        block = miss[:, start:]  # the diagonal block, counted once
        total += 2.0 * np.vdot(miss, miss) - np.vdot(block, block)
    return math.sqrt(total)


def _schmidt_factors(amp: np.ndarray, weight: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, s) of a real, symmetric, positive semidefinite n x n
    ``amp`` with ||amp||_F^2 = ``weight``: amp ~ left @ right with left = U
    (orthonormal columns) and right = diag(s) U^T, s the retained
    eigenvalues, and ||amp - left @ right||_F <= RESIDUAL_LIMIT ||amp||_F.

    Pivoted Cholesky grows amp ~ L L^T one column at a time: the pivot is
    the largest entry of the residual's diagonal, and the new column is the
    residual's row there, read from ``amp`` and corrected by the columns so
    far.  L's columns are the rows of a skeleton that doubles when full,
    once the memory check passes for the larger one.  The residual is
    positive semidefinite, so its trace bounds its Frobenius norm; only when
    the trace is within the limit is the residual computed exactly, and a
    check that fails takes PIVOT_BLOCK more pivots before the next one.
    The thin SVD of L gives amp ~ U diag(s) U^T, s the squared singular
    values.  Since U is orthonormal, the error of keeping r of them is
    sqrt(residual^2 + sum of the dropped s^2), and the smallest r that keeps
    it within half the limit is kept (all of them when the residual alone
    exceeds that).
    """
    n = len(amp)
    limit = RESIDUAL_LIMIT * math.sqrt(weight)
    diagonal = amp.diagonal().copy()  # of the residual amp - L L^T
    skeleton = np.empty((SKELETON_COLUMNS, n))  # row k is L's column k
    columns = 0
    next_check = 0
    while True:
        pivot = int(np.argmax(diagonal))
        exhausted = columns == n or not diagonal[pivot] > 0
        if exhausted or (columns >= next_check and diagonal.sum() <= limit):
            residual = _residual(amp, skeleton[:columns])
            if residual <= limit:
                break
            if exhausted:
                raise GridError("no factorisation of the amplitude meets the residual limit")
            next_check = columns + PIVOT_BLOCK
        if columns == len(skeleton):
            capacity = min(2 * columns, n)
            require_memory(_peak_bytes(n, capacity))
            grown = np.empty((capacity, n))
            grown[:columns] = skeleton
            skeleton = grown
        column = skeleton[columns]
        np.subtract(amp[pivot], skeleton[:columns, pivot] @ skeleton[:columns], out=column)
        column /= math.sqrt(diagonal[pivot])
        diagonal -= column * column
        columns += 1
    u, s, _ = np.linalg.svd(skeleton[:columns].T, full_matrices=False)
    s *= s
    # dropped[r] is the weight beyond the first r values; half the limit is
    # left to roundoff
    dropped = np.cumsum(s[::-1] ** 2)[::-1]
    rank = max(1, int(np.count_nonzero(dropped > limit * limit / 4.0 - residual * residual)))
    return u[:, :rank], s[:rank, None] * u[:, :rank].T, s[:rank]


def initial_grid(
    params: PairParams,
    n: int = 512,
    extent: float | None = None,
    t_max: float = 0.0,
) -> WaveGrid:
    """Sample the t = 0 amplitude, renormalize it by quadrature and factorise it.

    ``t_max`` feeds the default extent so the packet still fits after the
    evolutions the caller plans.  The renormalization factor must stay within
    1e-4 of unity, otherwise the grid is rejected as under-resolved.  Raises
    MemoryError, before allocating, when the factorisation's peak exceeds
    the physical memory.
    """
    phase, envelope, weight, extent = _sampled_amplitude(params, n, extent, t_max)
    left, right, s = _schmidt_factors(envelope, weight)
    del envelope  # the only n x n array: gone before the factors turn complex
    # a diagonal unitary keeps singular values: psi / c = diag(p) E diag(conj p)
    # has E's Schmidt factors with the phase moved onto them, and renormalized
    # it has E's singular values over ||E|| dx
    dx = extent / n
    norm = math.sqrt(weight)
    left = phase[:, None] * left
    right = right / (norm * dx) * phase.conj()
    grid = WaveGrid(n=n, extent=extent, params=params, t=0.0, left=_read_only(left),
                    right=_read_only(right), schmidt=_read_only(s / norm))
    leak = boundary_leakage(grid)
    if not leak <= LEAKAGE_LIMIT:
        raise GridError(f"initial packet touches the boundary (leakage {leak:.2e})")
    return grid


def evolve(grid: WaveGrid, t: float) -> WaveGrid:
    """Advance the wavefunction by time t with the exact free propagator.

    The phase exp(-i (k1^2 + k2^2) t / 2) is the outer product of one
    n-vector with itself, so each factor takes it alone: a 1-D transform of
    each of ``left``'s r columns and ``right``'s r rows, the phase, and the
    inverse transform.  The Schmidt values do not change.  Unitary up to
    roundoff, so the norm is preserved to ~1e-15 per call.  Raises when the
    evolved packet reaches the grid boundary.
    """
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"time step must be finite and nonnegative, got {t}")
    k = grid.k_axis
    e = np.exp(-1j * k * k * t / 2.0)
    left = np.fft.ifft(np.fft.fft(grid.left, axis=0) * e[:, None], axis=0)
    right = np.fft.ifft(np.fft.fft(grid.right, axis=1) * e, axis=1)
    out = WaveGrid(n=grid.n, extent=grid.extent, params=grid.params, t=grid.t + t,
                   left=_read_only(left), right=_read_only(right), schmidt=grid.schmidt)
    leak = boundary_leakage(out)
    if not leak <= LEAKAGE_LIMIT:
        raise GridError(
            f"packet reached the grid boundary at t = {out.t:g} (leakage {leak:.2e}); "
            "enlarge the extent"
        )
    return out


def _contractions(left: np.ndarray, right: np.ndarray, axis: np.ndarray):
    """Means, variances and covariance of the two coordinates under the
    weights |left @ right|^2, then the total weight; and the Grams of
    weights 1 and ``axis`` of each factor, which the cross terms reuse."""
    l1, lx, lxx = (_left_gram(left, w) for w in (1.0, axis, axis * axis))
    r1, rx, rxx = (_right_gram(right, w) for w in (1.0, axis, axis * axis))
    total = _trace(l1, r1)
    mean1 = _trace(lx, r1) / total
    mean2 = _trace(l1, rx) / total
    var1 = _trace(lxx, r1) / total - mean1 * mean1
    var2 = _trace(l1, rxx) / total - mean2 * mean2
    cov = _trace(lx, rx) / total - mean1 * mean2
    return (mean1, mean2, var1, var2, cov, total), (l1, lx), (r1, rx)


def moments(grid: WaveGrid) -> MomentSet:
    """All first/second moments: positions from the factors, wavenumbers from
    their 1-D transforms, and symmetrized position-wavenumber cross terms via
    Re <psi| x (k psi)> (the real part is exactly the symmetrized product).
    Each is a trace of two r x r Grams."""
    x, k = grid.axis, grid.k_axis
    left, right = grid.left, grid.right
    position, (l1, lx), (r1, rx) = _contractions(left, right, x)
    mean_x1, mean_x2, var_x1, var_x2, cov_x1x2, norm = position
    left_k = np.fft.fft(left, axis=0)
    right_k = np.fft.fft(right, axis=1)
    mean_k1, mean_k2, var_k1, var_k2, cov_k1k2, _ = _contractions(left_k, right_k, k)[0]
    # k1 psi = k1_left @ right and k2 psi = left @ k2_right
    k1_left = np.fft.ifft(left_k * k[:, None], axis=0)
    k2_right = np.fft.ifft(right_k * k, axis=1)
    x1k1 = _trace(_left_gram(left, x, k1_left), r1) / norm
    x2k1 = _trace(_left_gram(left, 1.0, k1_left), rx) / norm
    x1k2 = _trace(lx, _right_gram(right, 1.0, k2_right)) / norm
    x2k2 = _trace(l1, _right_gram(right, x, k2_right)) / norm
    return MomentSet(
        mean_x1=mean_x1,
        mean_x2=mean_x2,
        mean_k1=mean_k1,
        mean_k2=mean_k2,
        var_x1=var_x1,
        var_x2=var_x2,
        cov_x1x2=cov_x1x2,
        var_k1=var_k1,
        var_k2=var_k2,
        cov_k1k2=cov_k1k2,
        sym_x1k1=x1k1 - mean_x1 * mean_k1,
        sym_x1k2=x1k2 - mean_x1 * mean_k2,
        sym_x2k1=x2k1 - mean_x2 * mean_k1,
        sym_x2k2=x2k2 - mean_x2 * mean_k2,
    )


def _correlation_matrix(m: MomentSet) -> CovMatrix4:
    """The correlation matrix of a moment set, in the doubled convention of
    the analytic construction (entries are 2x the symmetrized covariances)."""
    g = np.zeros((4, 4))
    g[0, 0] = 2.0 * m.var_x1
    g[1, 1] = 2.0 * m.var_k1
    g[2, 2] = 2.0 * m.var_x2
    g[3, 3] = 2.0 * m.var_k2
    g[0, 1] = g[1, 0] = 2.0 * m.sym_x1k1
    g[0, 2] = g[2, 0] = 2.0 * m.cov_x1x2
    g[0, 3] = g[3, 0] = 2.0 * m.sym_x1k2
    g[1, 2] = g[2, 1] = 2.0 * m.sym_x2k1
    g[1, 3] = g[3, 1] = 2.0 * m.cov_k1k2
    g[2, 3] = g[3, 2] = 2.0 * m.sym_x2k2
    return CovMatrix4.from_matrix(g)


def numeric_covariance_matrix(grid: WaveGrid) -> CovMatrix4:
    """Correlation matrix by quadrature, in the same doubled convention as
    the analytic construction (entries are 2x the symmetrized covariances)."""
    return _correlation_matrix(moments(grid))


def _row_weights(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_j |(left @ right)[i, j]|^2 for each row i."""
    return np.einsum("ib,ib->i", left @ _right_gram(right), left.conj()).real


def position_marginal(grid: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Marginal density of x1, integrating |psi|^2 over x2 by midpoint rule."""
    return grid.axis, _row_weights(grid.left, grid.right) * grid.dx


def momentum_marginal(grid: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Marginal density of k1 from the factors' transforms, sorted by wavenumber."""
    density = _row_weights(np.fft.fft(grid.left, axis=0), np.fft.fft(grid.right, axis=1))
    k = grid.k_axis
    order = np.argsort(k)
    k = k[order]
    density = density[order]
    dk = 2.0 * math.pi / grid.extent
    density = density / (density.sum() * dk)
    return k, density


def marginal_sigma(axis: np.ndarray, density: np.ndarray) -> float:
    """Standard deviation of a sampled density (weights need not be normalized)."""
    w = density / density.sum()
    mean = float((w * axis).sum())
    var = float((w * (axis - mean) ** 2).sum())
    return math.sqrt(var)


def marginal_excess_kurtosis(axis: np.ndarray, density: np.ndarray) -> float:
    """Excess kurtosis of a sampled density; ~0 certifies Gaussian shape."""
    w = density / density.sum()
    mean = float((w * axis).sum())
    centered = axis - mean
    m2 = float((w * centered**2).sum())
    m4 = float((w * centered**4).sum())
    return m4 / (m2 * m2) - 3.0
