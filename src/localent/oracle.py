"""Brute-force validation on a two-dimensional spectral grid, in factored form.

The t = 0 two-particle amplitude on an n x n grid is factorised once into
Schmidt factors, psi = left @ right with left n x r and right r x n.  Free
evolution is U (x) U, so it acts on each factor alone and never changes the
rank: ``evolve`` applies the exact free propagator as a phase in Fourier
space, with no 2-D transform and no time-stepping error.  Each grid keeps
its factors' 1-D transforms once they are taken.  An evolution writes the
phase times both cached spectra, side by side, into one n x 2r buffer and
transforms it in place; the evolved factors are read-only views of that
buffer, and ``oracle-check`` hands the same buffer to every time it
evolves to.  The transform overwrites the phased spectra, so an evolved
grid keeps none.  It inherits its parent's spectral power |left_k|^2
instead: the phase has unit modulus, so that power is unchanged, and it is
all that particle 1's wavenumber moments need of the spectra.  The t = 0
grid is real on its support (below): its Grams are real, its right spectra
are its left ones at -k, and its moments take one inverse transform, so a
check at four times makes 5 1-D transform calls.

The factors are a Schmidt decomposition: ``left``'s columns are orthonormal
and ``right``'s rows orthogonal, and the unitary evolution keeps both.  So
each quantity of one particle (row and column weights, edge leakage, means,
variances, <x1 k1>, <x2 k2>) is an O(n r) diagonal sum, as in
sum_j |psi_ij|^2 = sum_a |L_ia|^2 (R R^H)_aa; only <x1 x2>, <k1 k2>,
<x1 k2> and <x2 k1> trace two weighted r x r Grams, in O(n r^2), each
weighted by its own particle's offsets from its mean, so that the cross
moments come out centred.  The unweighted Grams G, taken once
per grid (the spectra's are n times them, by Parseval), give the norm
tr(G_L G_R) and the isometry defect, the largest off-diagonal |G_ab| over
the largest G_cc, which ``initial_grid`` and ``evolve`` hold to
ISOMETRY_LIMIT.  Every Gram of complex factors is one real product of
their float views, with no conjugate copy: each factor is held with its n
axis first and its r columns contiguous (``right`` as the transpose of
such an array), so that view is free.  A diagonal sum drops the terms
A_ab G_ba, a != b, of one factor's Gram A weighted by w and the other's G;
|A_ab| <= (B_aa + B_bb) / 2 for B weighted by |w|, so together they weigh
at most (r - 1) ISOMETRY_LIMIT max_c G_cc tr(B), which over all the rows or
columns is ~r (r - 1) ISOMETRY_LIMIT of the norm.  Nothing here reuses the
closed-form dispersions, which is what makes these numbers an independent
check of them.

The sampled amplitude is psi[i, j] = c p_i E[i, j] conj(p_j): c is the
renormalized constant, p = exp(i k_c x) the packet phase with |p_i| = 1,
and E the real, symmetric envelope.  A diagonal unitary changes no
singular value, so psi's Schmidt factors are E's with the phase moved onto
them: left = diag(p) U and right = c S U^T diag(conj p) = c S left^H, and
the whole factorisation runs in real arithmetic.  E is a centre-of-mass
Gaussian of x1 + x2 times a relative-coordinate Gaussian of x1 - x2: on the uniform
axis a Hankel matrix H of 2n - 1 sums times a Toeplitz matrix T of n
differences, 4n exponentials in all.  E is never formed whole: H and T are
read-only sliding-window views of those exponentials, and each entry, row
or block of rows of E that is needed is their elementwise product, exactly
symmetric; ||E||_F^2 is a sum over the 2n - 1 sums, in O(n).

E is also a positive semidefinite kernel, g_i g_j exp(2 x_i x_j / b^2), so
E_ij^2 <= E_ii E_jj, and its diagonal, the centre-of-mass factor at 2 x_i,
is a Gaussian that fills only the rows the packet occupies at t = 0.  The
factorisation runs on E's support: the rows S whose complement carries so
little diagonal mass, tail, that E outside S x S weighs at most
2 tr(E) tail, within (RESIDUAL_LIMIT ||E|| / 8)^2; a packet that reaches
the edges keeps every row.  On S x S, E's factors are in closed form.
E = exp(-A (x1^2 + x2^2) + 2 B x1 x2), with A = 1/a^2 + 1/b^2 and
B = 1/b^2, is Mehler's kernel, sqrt(1 - q^2) sum_k q^k h_k(x1 / sigma)
h_k(x2 / sigma): its Schmidt modes are the Hermite functions h_k of one
width sigma, with weights q^k and q = B / (A + sqrt(A^2 - B^2)) (Ekert &
Knight, Am. J. Phys. 63, 415 (1995); Law, Walmsley & Eberly, Phys. Rev.
Lett. 84, 5304 (2000)).  The identity holds pointwise, so on the grid too,
but on a coarse grid the sampled h_k are far from orthonormal.  So the r
of them with q^r <= RESIDUAL_LIMIT / 4, plus 8, are sampled on S by their
three-term recurrence from h_0 (one exponential a row), one QR Phi = Q R
orthonormalises them, and the ``eigh`` of the r x r core
R diag(sqrt(1 - q^2) q^k) R^T = W diag(s) W^T gives E's eigenvectors
U = Q W (0 off S) and Schmidt values s; b = inf is q = 0, one mode.  The
parameters only propose these factors: they are accepted once the exact
Frobenius residual on S x S of U diag(s) U^T against the sampled
envelope, summed over blocks of rows, plus the bound outside S is at most
(RESIDUAL_LIMIT ||E||)^2.  So the limit holds for the whole E, and for psi
too, since |p_i| = 1; nothing past this step uses the Hermite structure.
The weakest modes are then dropped while the total error stays within
half that limit.  Nothing is random, and no array of the factorisation is
larger than O(n r).  The t = 0 grid keeps U and c S: |p_i| = 1, so every
position Gram is a real sum over the support rows, and right = c S left^H
makes its spectra and k-weighted Gram left's at -k, but for the Nyquist
bin, which is its own -k and is added on its own.

Conventions: psi[i, j] = psi(x1_i, x2_j) on the uniform axis [-L/2, L/2)
with n points; wavenumbers follow numpy's FFT ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .covariance import CovMatrix4
from .errors import DomainError, GridError, require_memory
from .states import PairParams, _envelope_factors, _prefactor, position_dispersion

__all__ = [
    "WaveGrid",
    "MomentSet",
    "default_extent",
    "initial_grid",
    "boundary_leakage",
    "evolve",
    "moments",
    "numeric_covariance_matrix",
]

LEAKAGE_LIMIT = 1e-8
ISOMETRY_LIMIT = 1e-12  # largest off-diagonal entry of a Gram over its largest diagonal one
RESIDUAL_LIMIT = 1e-13  # relative Frobenius error of an accepted factorisation
ROW_BLOCK = 64  # rows of the residual formed at once


@dataclass(frozen=True)
class WaveGrid:
    """Discretized two-particle wavefunction at one instant, as Schmidt
    factors: psi(x1_i, x2_j) = (left @ right)[i, j].

    ``left`` (n x r) holds particle 1's modes as columns and ``right``
    (r x n) particle 2's as rows, weighted by the singular values.
    ``schmidt`` holds the r Schmidt coefficients of the sampled state: the
    singular values of psi times dx, whose squares sum to its norm.  All
    three are read-only, and so are the axes, spectra and Grams that a grid
    caches the first time they are needed.  ``initial_grid`` alone sets
    ``_modes``: (U, scale, rows) with U real, left = diag(p) U on the
    support rows and 0 off them, and right = diag(scale) left^H.  An evolved
    grid's factors are views of a buffer that ``oracle-check`` overwrites
    at its next time, so there the grid lives only until then.
    """

    n: int
    extent: float
    params: PairParams
    t: float
    left: np.ndarray
    right: np.ndarray
    schmidt: np.ndarray
    _modes: tuple | None = field(default=None, init=False, repr=False)

    @property
    def dx(self) -> float:
        return self.extent / self.n

    @cached_property
    def axis(self) -> np.ndarray:
        return _read_only(_axis(self.n, self.extent))

    @cached_property
    def k_axis(self) -> np.ndarray:
        return _read_only(2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dx))

    def norm(self) -> float:
        """Quadrature of |psi|^2 over the plane; 1 up to grid error."""
        return _trace(*self._grams) * self.dx * self.dx

    @cached_property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """The 1-D transforms of ``left``'s columns and ``right``'s rows,
        taken once per grid, each held as its factor is.  At t = 0,
        right = diag(scale) left^H, so its spectra are left's at -k,
        conjugated and scaled, with no second transform."""
        left_k = np.fft.fft(self.left, axis=0)
        if self._modes is None:
            right_k = np.fft.fft(self.right.T, axis=0).T
        else:
            right_k = (left_k[-np.arange(self.n)].conj() * self._modes[1]).T
        return _read_only(left_k), _read_only(right_k)

    @cached_property
    def _spectral_power(self) -> np.ndarray:
        """|left_k|^2, the n x r row factor of particle 1's wavenumber
        weights.  The free propagator is a phase of unit modulus in k, so
        ``evolve`` hands it on, and an evolved grid, which keeps no spectra,
        needs no transform for it."""
        left_k = self._spectra[0]
        power = np.square(left_k.real)
        power += np.square(left_k.imag)
        return _read_only(power)

    @cached_property
    def _grams(self) -> tuple[np.ndarray, np.ndarray]:
        """The unweighted Grams left^H left and right right^H: the norm and
        the isometry.  At t = 0 they are real: G = U^T U over the support
        rows, and diag(scale) G diag(scale)."""
        if self._modes is None:
            return _read_only(_gram(self.left)), _read_only(_gram(self.right.T).T)
        u, scale, _ = self._modes
        gram = u.T @ u
        return _read_only(gram), _read_only(scale[:, None] * gram * scale)

    @cached_property
    def _spectral_grams(self) -> tuple[np.ndarray, np.ndarray]:
        """The unweighted Grams of the spectra, n times ``_grams`` by
        Parseval: each spectrum is the unnormalised DFT of its factor."""
        left, right = self._grams
        return _read_only(self.n * left), _read_only(self.n * right)


def _axis(n: int, extent: float) -> np.ndarray:
    """The n points of the uniform axis [-extent/2, extent/2)."""
    return -0.5 * extent + (extent / n) * np.arange(n)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged so that no caller can corrupt a grid's factors."""
    array.flags.writeable = False
    return array


def _gram(a: np.ndarray, weights=None, b: np.ndarray | None = None) -> np.ndarray:
    """The r x r matrix a^H diag(weights) b of n x r complex factors; no
    ``weights`` means all ones, and ``b`` defaults to ``a``.  For r x n
    factors R and S, S diag(w) R^H is ``_gram(R.T, w, S.T).T``.

    One real product of the factors' float views, whose columns are the
    real and imaginary parts of each complex column side by side: each
    entry is the sum of its real-real and imaginary-imaginary terms, plus i
    times the difference of its two mixed ones.  No conjugate copy
    is made, and the unweighted ``a^T a`` is a symmetric product."""
    real_a = _float_view(a)
    real_b = real_a if b is None else _float_view(b)
    block = (real_a.T if weights is None else real_a.T * weights) @ real_b
    gram = np.empty((block.shape[0] // 2, block.shape[1] // 2), dtype=complex)
    gram.real = block[0::2, 0::2] + block[1::2, 1::2]
    gram.imag = block[0::2, 1::2] - block[1::2, 0::2]
    return gram


def _float_view(factor: np.ndarray) -> np.ndarray:
    """An n x r complex factor as n x 2r floats: a view when its columns
    are contiguous, as the grids hold them, else a contiguous copy."""
    if factor.strides[1] != factor.itemsize:
        factor = np.ascontiguousarray(factor)
    return factor.view(np.float64)


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
    drift = abs(params.k_c) * t_max
    return max(16.0 * spread_now, 16.0 * spread_later + 2.0 * drift)


def boundary_leakage(grid: WaveGrid) -> float:
    """Probability mass in the outermost two cells along each edge.

    The mass of the edge rows plus that of the edge columns, less the
    corners they share: three sums of that small mass, where the whole mass
    minus the inner mass would cancel two sums near 1.  The rows and columns
    are diagonal sums over the other factor's cached Gram."""
    edge = [0, 1, -2, -1]
    left_gram, right_gram = grid._grams
    left_edge, right_edge = grid.left[edge], grid.right[:, edge]
    rows = _row_weights(left_edge, right_gram).sum()
    columns = _column_weights(right_edge, left_gram).sum()
    corner_cells = left_edge @ right_edge
    corners = np.vdot(corner_cells, corner_cells).real
    return float(rows + columns - corners) * grid.dx * grid.dx


def _checked(grid: WaveGrid, boundary: str) -> WaveGrid:
    """``grid``, once its edge leakage is within LEAKAGE_LIMIT (else the
    ``boundary`` message, formatted with t and leak) and its isometry
    defect, for each Gram, within ISOMETRY_LIMIT."""
    leak = boundary_leakage(grid)
    if not leak <= LEAKAGE_LIMIT:
        raise GridError(boundary.format(t=grid.t, leak=leak))
    for gram in map(np.abs, grid._grams):
        largest = gram.diagonal().max()
        np.fill_diagonal(gram, 0.0)
        defect = gram.max() / largest
        if not defect <= ISOMETRY_LIMIT:
            raise GridError(f"Schmidt factors are not orthogonal at t = {grid.t:g} "
                            f"(isometry defect {defect:.2e})")
    return grid


def _vector_words(n: int) -> int:
    """Words that the sampler's n-vectors (the axis, phase, envelope factors,
    diagonal, the sums of the O(n) norm and of the support, within 16n)
    and numpy's ufunc buffers (two of ``np.getbufsize()``, for the reversed
    Toeplitz view and for real-to-complex casts) hold, from the sampling of
    the envelope to the last evolution."""
    return 16 * n + 2 * np.getbufsize()


def _peak_bytes(n: int, terms: int) -> int:
    """Bytes alive at ``initial_grid``'s peak when it factorises with
    r = ``terms`` Hermite functions (``_mehler``).  Charged before the
    support is known: the m support rows are taken as all n.  E is never
    formed whole, so no term is n x n.  Throughout: ``_vector_words``.  While
    factorising, with c = min(m, r) columns of Q: the sampled functions and
    numpy's copy of them in its QR, or Q beside the residual's skeleton and
    two row blocks, or beside the skeleton and u = QW (2mr + max(mc,
    2 ROW_BLOCK m) words), and R and the r x r arrays of the ``eigh``
    (4cr).  After it: u, the two zero-padded complex n x c factors
    (mc + 4nc), and the real c x c Grams beside their temporaries and the
    isometry check's copy (4c^2)."""
    r, c = terms, min(n, terms)
    factorising = 2 * n * r + max(n * c, 2 * ROW_BLOCK * n) + 4 * c * r
    factored = 5 * n * c + 4 * c * c
    return 8 * (_vector_words(n) + max(factorising, factored))


def _check_bytes(grid: WaveGrid) -> int:
    """Bytes that ``oracle-check`` holds at its peak past ``initial_grid``,
    for the t = 0 ``grid`` of n points, rank r and m support rows.  An upper
    bound, the sum of what ``moments(grid)`` and the evolutions hold at
    their peaks; a traced run at ranks 14-180 peaks at 0.78-0.84 of it.
    Terms: ``_vector_words``; the complex n x r factors and
    the real m x r modes U (4nr + mr words); both cached spectra and the
    spectral power |left_k|^2 (5nr); the evolutions' n x 2r buffer (4nr);
    the temporaries of ``moments``, the float view of the k-weighted left
    spectra beside k1 psi, or three complex m x r terms of the mirrored
    k2 psi (2nr + 6mr); and the r x r Grams and their temporaries (8r^2)."""
    n, r = grid.n, grid.schmidt.size
    m = n if grid._modes is None else len(grid._modes[0])
    return 8 * (_vector_words(n) + 15 * n * r + 7 * m * r + 8 * r * r)


def _grid_envelope(x: np.ndarray, params: PairParams) -> tuple[np.ndarray, np.ndarray]:
    """The real envelope E on the uniform axis ``x`` as two read-only n x n
    views whose elementwise product it is: the Hankel view H[i, j] of the
    centre-of-mass factor at the 2n - 1 sums x_i + x_j, and the Toeplitz
    view T[i, j] of the relative factor at the n differences x_i - x_j.
    From 4n exponentials; every entry, row or block of H * T is exactly
    symmetric, and E itself is never formed whole."""
    n = len(x)
    k = np.arange(2 * n - 1)
    centre, relative = _envelope_factors(x[k // 2] + x[(k + 1) // 2], x - x[0], params)
    relative = np.concatenate([relative[:0:-1], relative])  # entry m at (m - n + 1) dx
    # row i holds the factors at i + j and, reversed, at i - j
    return sliding_window_view(centre, n), sliding_window_view(relative, n)[:, ::-1]


def _envelope_weight(hankel: np.ndarray, toeplitz: np.ndarray) -> float:
    """||H * T||_F^2 in O(n) from the views' 2n - 1 sums c_s and n
    differences r_d.  With s = i + j and d = i - j it is the sum over s of
    c_s^2 times the sum of r_|d|^2 over |d| <= min(s, 2n - 2 - s) with
    d = s mod 2: one prefix sum over the even d and one over the odd.
    Every term is positive, so nothing cancels."""
    n = len(hankel)
    centre = np.concatenate([hankel[0, :-1], hankel[:, -1]])  # c_s, s = 0 .. 2n - 2
    relative = toeplitz[0] ** 2  # r_d^2, d = 0 .. n - 1
    pairs = 2.0 * relative  # d and -d
    pairs[0] = relative[0]
    band = np.empty(n)  # band[m]: the sum over |d| <= m with d = m mod 2
    band[0::2] = np.cumsum(pairs[0::2])
    band[1::2] = np.cumsum(pairs[1::2])
    s = np.arange(2 * n - 1)
    return float(centre**2 @ band[np.minimum(s, 2 * n - 2 - s)])


def _sampled_amplitude(
    params: PairParams, n: int, extent: float | None, t_max: float
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray], float, float]:
    """The t = 0 amplitude on the n x n grid as psi = c diag(p) E diag(conj p):
    the axis x, the packet phase p = exp(i k_c x), the real envelope E as
    its Hankel and Toeplitz views, ||E||_F^2, and the extent.

    c is the closed-form normalisation.  The quadrature of |psi|^2 is
    c^2 m^2 ||E||_F^2 dx^2 with m = |p_i|^2 = 1 for every i, and the
    renormalization factor it gives must stay within 1e-4 of unity.  Raises
    before any allocation when the grid is invalid or its n-vectors exceed
    the physical memory, and before the factorisation when the grid
    under-resolves the state or the factorisation's peak exceeds it.
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
    require_memory(8 * _vector_words(n))
    x = _axis(n, extent)
    phase = np.exp(1j * params.k_c * x)
    envelope = _grid_envelope(x, params)
    weight = _envelope_weight(*envelope)
    modulus = float(np.mean(np.abs(phase) ** 2))
    factor = 1.0 / (_prefactor(params) * modulus * math.sqrt(weight) * (extent / n))
    if not abs(factor - 1.0) <= 1e-4:
        raise GridError(
            f"grid under-resolves the state (renormalization factor {factor:.6f})"
        )
    require_memory(_peak_bytes(n, _mehler(params)[2]))
    return x, phase, envelope, weight, extent


def _residual(hankel: np.ndarray, toeplitz: np.ndarray, skeleton: np.ndarray) -> float:
    """||H * T - skeleton^T @ skeleton||_F, formed ROW_BLOCK rows at a time
    from the blocks on and left of the diagonal: each block of E is the
    product of the views' blocks, written into one reused buffer beside the
    one that holds its miss, so E is never formed whole."""
    n = len(hankel)
    total = 0.0
    buffers = np.empty((2, ROW_BLOCK * n))  # one row block of E and its miss
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        shape = (stop - start, stop)
        envelope, miss = (buffer[:shape[0] * stop].reshape(shape) for buffer in buffers)
        np.multiply(hankel[start:stop, :stop], toeplitz[start:stop, :stop], out=envelope)
        np.matmul(skeleton[:, start:stop].T, skeleton[:, :stop], out=miss)
        miss -= envelope
        block = miss[:, start:]  # the diagonal block, counted once
        total += 2.0 * np.vdot(miss, miss) - np.vdot(block, block)
    return math.sqrt(total)


def _support(hankel: np.ndarray, toeplitz: np.ndarray, weight: float) -> tuple[slice, float]:
    """The rows S = [lo, hi) of E = H * T that its factorisation keeps, and
    the bound on the squared Frobenius norm of E outside S x S.

    E is positive semidefinite, so E_ij^2 <= E_ii E_jj, and the entries
    outside S x S weigh at most tr(E)^2 - tr_S(E)^2 <= 2 tr(E) tail, where
    tail is E's diagonal mass on the rows outside S.  S is the range that
    leaves out the most rows while that bound stays within
    (RESIDUAL_LIMIT ||E|| / 8)^2: the tail is summed from each end, so every
    term is positive.  A packet that reaches the edges keeps every row, with
    a bound of 0.
    """
    n = len(hankel)
    diagonal = hankel.diagonal() * toeplitz.diagonal()
    trace = float(diagonal.sum())
    budget = (RESIDUAL_LIMIT / 8.0) ** 2 * weight / (2.0 * trace)
    head = np.concatenate([[0.0], np.cumsum(diagonal)])  # mass of the first k rows
    rear = np.concatenate([[0.0], np.cumsum(diagonal[::-1])])  # mass of the last k rows
    # each count of rows left out at the top, with the most then left out at the bottom
    top = np.arange(np.searchsorted(head, budget, side="right"))
    bottom = np.searchsorted(rear, budget - head[top], side="right") - 1
    best = int(np.argmax(top + bottom))
    lo, hi = int(top[best]), n - int(bottom[best])
    return slice(lo, hi), 2.0 * trace * float(head[lo] + rear[n - hi])


def _mehler(params: PairParams) -> tuple[float, float, int]:
    """Mehler's q, the width sigma and the count r of the Hermite functions
    h_k with E = sqrt(1 - q^2) sum_k q^k h_k(x1 / sigma) h_k(x2 / sigma)
    (module docstring), for A = 1/a^2 + 1/b^2 and B = 1/b^2.  A^2 - B^2 is
    taken as (1/a^2)(1/a^2 + 2/b^2), so nothing cancels."""
    inv_a2, inv_b2 = 1.0 / (params.a * params.a), 1.0 / (params.b * params.b)
    outer = inv_a2 + inv_b2 + math.sqrt(inv_a2 + 2.0 * inv_b2) / params.a
    q = inv_b2 / outer
    sigma = 1.0 / math.sqrt(outer * (1.0 - q * q))
    terms = 8 + math.ceil(math.log(RESIDUAL_LIMIT / 4.0) / math.log(q)) if q > 0 else 1
    return q, sigma, terms


def _hermite_functions(xi: np.ndarray, terms: int) -> np.ndarray:
    """The terms x len(xi) samples h_k(xi), k < terms, of the Hermite
    functions scaled to h_0(xi) = exp(-xi^2 / 2), by the normalised
    three-term recurrence h_k = sqrt(2/k) xi h_(k-1) - sqrt((k-1)/k) h_(k-2)."""
    h = np.empty((terms, len(xi)))
    h[0] = np.exp(-0.5 * xi * xi)
    for k in range(1, terms):
        h[k] = math.sqrt(2.0 / k) * xi * h[k - 1]
        if k > 1:
            h[k] -= math.sqrt((k - 1) / k) * h[k - 2]
    return h


def _schmidt_factors(
    params: PairParams, x: np.ndarray, hankel: np.ndarray, toeplitz: np.ndarray, weight: float,
    rows: slice = slice(None), outside: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(u, s) of the real, symmetric, positive semidefinite n x n
    E = H * T of the views ``hankel`` and ``toeplitz`` on the axis ``x``,
    with ||E||_F^2 = ``weight``, factorised on its ``rows`` x ``rows``
    block: E ~ U diag(s) U^T with U = u on those rows (orthonormal columns)
    and 0 elsewhere, s the retained eigenvalues, and
    ||E - U diag(s) U^T||_F <= RESIDUAL_LIMIT ||E||_F over the whole E.

    ``outside`` bounds E's squared Frobenius norm outside the block
    (``_support`` gives both), and is added to the block's exact squared
    residual.  The factors are Mehler's for ``params`` (module docstring),
    accepted only through the exact residual of the skeleton
    (W sqrt(s))^T Q^T against the views, so views that ``params`` does not
    describe raise.  r is not clipped to the rows: past them, the tail
    modes still carry weight.  Since u = Q W is orthonormal, the error of
    keeping its first columns is sqrt(residual^2 + outside + sum of the
    dropped s^2), and the fewest that keep it within half the limit are kept.
    """
    q, sigma, terms = _mehler(params)
    limit2 = RESIDUAL_LIMIT * RESIDUAL_LIMIT * weight  # ||E - U diag(s) U^T||_F^2 allowed
    basis, triangle = np.linalg.qr(_hermite_functions(x[rows] / sigma, terms).T)
    core = (triangle * (math.sqrt(1.0 - q * q) * q ** np.arange(terms))) @ triangle.T
    s, w = np.linalg.eigh(core)
    s, w = np.maximum(s[::-1], 0.0), w[:, ::-1]  # descending; roundoff may dip below 0
    residual = _residual(hankel[rows, rows], toeplitz[rows, rows], (w * np.sqrt(s)).T @ basis.T)
    if not residual * residual <= limit2 - outside:
        raise GridError("no factorisation of the amplitude meets the residual limit")
    # dropped[r] is the weight beyond the first r values; half the limit is
    # left to roundoff
    dropped = np.cumsum(s[::-1] ** 2)[::-1]
    error = residual * residual + outside
    rank = max(1, int(np.count_nonzero(dropped > limit2 / 4.0 - error)))
    return basis @ w[:, :rank], s[:rank]


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
    x, phase, envelope, weight, extent = _sampled_amplitude(params, n, extent, t_max)
    rows, outside = _support(*envelope, weight)
    u, s = _schmidt_factors(params, x, *envelope, weight, rows, outside)
    # a diagonal unitary keeps singular values: psi / c = diag(p) E diag(conj p)
    # has E's Schmidt factors with the phase moved onto them, and renormalized
    # it has E's singular values over ||E|| dx; both factors are 0 off the rows
    norm = math.sqrt(weight)
    scale = s / (norm * (extent / n))
    left = np.zeros((n, len(s)), dtype=complex)
    np.multiply(phase[rows, None], u, out=left[rows])
    right = np.zeros((n, len(s)), dtype=complex)  # held transposed, as evolve holds it
    np.multiply(u, phase[rows, None].conj(), out=right[rows])
    right[rows] *= scale
    grid = WaveGrid(n=n, extent=extent, params=params, t=0.0, left=_read_only(left),
                    right=_read_only(right.T), schmidt=_read_only(s / norm))
    vars(grid)["_modes"] = _read_only(u), _read_only(scale), rows
    return _checked(grid, "initial packet touches the boundary (leakage {leak:.2e})")


def evolve(grid: WaveGrid, t: float) -> WaveGrid:
    """Advance the wavefunction by time t with the exact free propagator.

    The phase exp(-i (k1^2 + k2^2) t / 2) is the outer product of one
    n-vector with itself, so each factor takes it alone: ``grid``'s cached
    spectra (the 1-D transforms of ``left``'s r columns and ``right``'s r
    rows, taken once per grid) times the phase, written side by side into
    a fresh n x 2r buffer, then one inverse transform of that buffer in
    place.  The evolved factors are read-only views of it, and the evolved
    grid inherits ``grid``'s axes and spectral power |left_k|^2; it keeps
    no spectra, so its own moments or a later evolution from it transform
    forward again.  The Schmidt values do not change.  Unitary up to
    roundoff, so the norm and the factors' orthogonality hold to ~1e-15
    per call.  Raises when the evolved packet reaches the grid boundary or
    fails the isometry check.
    """
    return _evolve(grid, t, np.empty((grid.n, 2 * grid.schmidt.size), dtype=complex))


def _evolve(grid: WaveGrid, t: float, buffer: np.ndarray) -> WaveGrid:
    """``evolve`` into ``buffer``, an n x 2r complex array that it
    overwrites: the evolved ``left`` is its first r columns and ``right``
    the transpose of the last r.  A grid evolved into a buffer lives only
    until the buffer's next use."""
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"time step must be finite and nonnegative, got {t}")
    k = grid.k_axis
    e = np.exp(-1j * k * k * t / 2.0)[:, None]
    left_k, right_k = grid._spectra
    r = left_k.shape[1]
    np.multiply(left_k, e, out=buffer[:, :r])
    np.multiply(right_k.T, e, out=buffer[:, r:])
    np.fft.ifft(buffer, axis=0, out=buffer)
    out = WaveGrid(n=grid.n, extent=grid.extent, params=grid.params, t=grid.t + t,
                   left=_read_only(buffer[:, :r]), right=_read_only(buffer[:, r:].T),
                   schmidt=grid.schmidt)
    # cached, filled in
    vars(out).update(axis=grid.axis, k_axis=k, _spectral_power=grid._spectral_power)
    return _checked(out, "packet reached the grid boundary at t = {t:g} "
                         "(leakage {leak:.2e}); enlarge the extent")


def _weighted_moments(weights: np.ndarray, axis: np.ndarray) -> tuple[float, float]:
    """Mean and variance of ``axis`` under a marginal's ``weights``, over
    their own sum.  The variance is centred, sum w (x - mean)^2 / sum w:
    E[x^2] - mean^2 would cancel once the mean dwarfs the spread."""
    total = weights.sum()
    mean = float(weights @ axis / total)
    centred = axis - mean
    return mean, float(weights @ (centred * centred) / total)


def _particle_one(grid: WaveGrid) -> tuple[float, float, float, float]:
    """(mean_x1, var_x1, mean_k1, var_k1): diagonal sums of particle 1's
    factor and its spectral power over particle 2's Gram diagonals, O(n r)."""
    mean_x1, var_x1 = _weighted_moments(_row_weights(grid.left, grid._grams[1]), grid.axis)
    k_weights = grid._spectral_power @ grid._spectral_grams[1].diagonal().real
    mean_k1, var_k1 = _weighted_moments(k_weights, grid.k_axis)
    return mean_x1, var_x1, mean_k1, var_k1


def moments(grid: WaveGrid) -> MomentSet:
    """All first/second moments: positions from the factors, wavenumbers from
    their cached 1-D transforms (taken afresh for an evolved grid, which
    keeps none), and symmetrized position-wavenumber cross terms via
    Re <psi| x (k psi)> (the real part is exactly the symmetrized product).
    Each quantity of one particle is a diagonal sum over the other factor's
    Gram; each cross term is the trace of two r x r Grams, each weighted by
    its own particle's offsets x - mean or k - mean, so no product of means
    cancels where a mean dwarfs the spread.  k1 psi takes one inverse
    transform of the left spectra.

    At t = 0, with left = diag(p) U and right = diag(scale) left^H
    (``WaveGrid._modes``), the position Grams are real sums over the support
    rows, and particle 2's k-weighted Gram and k2 psi are particle 1's taken
    at k -> -k, plus the Nyquist bin, which is its own -k: no second k Gram
    and no second inverse transform."""
    x, k = grid.axis, grid.k_axis
    left_k, right_k = grid._spectra
    (l1, r1), (sl1, sr1) = grid._grams, grid._spectral_grams
    norm, spectral_norm = _trace(l1, r1), _trace(sl1, sr1)
    mean_x1, var_x1, mean_k1, var_k1 = _particle_one(grid)
    mean_x2, var_x2 = _weighted_moments(_column_weights(grid.right, l1), x)
    mean_k2, var_k2 = _weighted_moments(_column_weights(right_k, sl1), k)
    rows = slice(None) if grid._modes is None else grid._modes[2]
    left, right = grid.left[rows], grid.right[:, rows]
    x1, x2, k1, k2 = x[rows] - mean_x1, x[rows] - mean_x2, k - mean_k1, k - mean_k2
    lk = _gram(left_k, k1)
    # k1 psi = k1_left @ right and k2 psi = left @ k2_right; each meets left or
    # right, which are 0 off the rows, so only its rows are kept
    k1_left = np.fft.ifft(left_k * k1[:, None], axis=0)[rows]
    if grid._modes is None:
        lx, rx, rk = _gram(left, x1), _gram(right.T, x2).T, _gram(right_k.T, k2).T
        k2_right = np.fft.ifft(right_k.T * k2[:, None], axis=0).T
    else:
        u, scale, _ = grid._modes
        lx = (u.T * x1) @ u
        scales = np.outer(scale, scale)  # right's Grams are scale (U^T diag(w) U) scale
        rx = scales * (lx + (mean_x1 - mean_x2) * l1)
        # at -k, k2's offsets are -k1 - shift, but 2 k_N more at the Nyquist bin N,
        # so rk and k2 psi follow from lk and k1_left
        shift, nyquist, k_n = mean_k1 + mean_k2, left_k[grid.n // 2], k[grid.n // 2]
        rk = scales * (2.0 * k_n * np.outer(nyquist.conj(), nyquist) - lk - shift * sl1)
        sign = 1.0 - 2.0 * (np.arange(grid.n)[rows] % 2)  # exp(2 pi i j N / n)
        mirrored = (2.0 * k_n / grid.n) * np.outer(sign, nyquist) - k1_left - shift * left
        k2_right = mirrored.conj().T * scale[:, None]
    cov_x1x2 = _trace(lx, rx) / norm
    cov_k1k2 = _trace(lk, rk) / spectral_norm
    sym_x1k1 = float((x1 @ (left.conj() * k1_left)).real @ r1.diagonal().real) / norm
    sym_x2k2 = float(l1.diagonal().real @ ((k2_right * right.conj()) @ x2).real) / norm
    sym_x1k2 = _trace(lx, _gram(right.T, b=k2_right.T).T) / norm
    sym_x2k1 = _trace(_gram(left, b=k1_left), rx) / norm
    return MomentSet(mean_x1, mean_x2, mean_k1, mean_k2, var_x1, var_x2, cov_x1x2,
                     var_k1, var_k2, cov_k1k2, sym_x1k1, sym_x1k2, sym_x2k1, sym_x2k2)


def _correlation_matrix(m: MomentSet) -> CovMatrix4:
    """The correlation matrix of a moment set, in the doubled convention of
    the analytic construction (entries are 2x the symmetrized covariances)."""
    g = 2.0 * np.array([[m.var_x1, m.sym_x1k1, m.cov_x1x2, m.sym_x1k2],
                        [m.sym_x1k1, m.var_k1, m.sym_x2k1, m.cov_k1k2],
                        [m.cov_x1x2, m.sym_x2k1, m.var_x2, m.sym_x2k2],
                        [m.sym_x1k2, m.cov_k1k2, m.sym_x2k2, m.var_k2]])
    return CovMatrix4.from_matrix(g)


def numeric_covariance_matrix(grid: WaveGrid) -> CovMatrix4:
    """Correlation matrix by quadrature, in the same doubled convention as
    the analytic construction (entries are 2x the symmetrized covariances)."""
    return _correlation_matrix(moments(grid))


def _row_weights(left: np.ndarray, right_gram: np.ndarray) -> np.ndarray:
    """sum_j |(left @ right)[i, j]|^2 for each row i, as |left|^2 times the
    diagonal of right's Gram right right^H, one matrix-vector product for
    the real parts and one for the imaginary parts."""
    diagonal = right_gram.diagonal().real
    return np.square(left.real) @ diagonal + np.square(left.imag) @ diagonal


def _column_weights(right: np.ndarray, left_gram: np.ndarray) -> np.ndarray:
    """sum_i |(left @ right)[i, j]|^2 for each column j, as the diagonal of
    left's Gram left^H left times |right|^2, part by part as in ``_row_weights``."""
    diagonal = left_gram.diagonal().real
    return diagonal @ np.square(right.real) + diagonal @ np.square(right.imag)
