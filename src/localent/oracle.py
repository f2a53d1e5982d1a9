"""Brute-force validation on a two-dimensional spectral grid, in factored form.

The t = 0 two-particle amplitude on an n x n grid is factorised once into
Schmidt factors, psi = left @ right with left n x r and right r x n; that
t = 0 grid is the only ``WaveGrid``.  It stores neither factor, only one
record of both (below), and each of its uses builds what it needs from
that record.  Free evolution is U (x) U, so it acts
on each factor alone and never changes the rank: the exact free propagator
is a phase in Fourier space, with no 2-D transform and no time-stepping
error.  The grid keeps its factors' 1-D transforms side by side, in one
n x 2r array, once they are taken.  ``_schedule``, the one evolution,
multiplies that array by each time's phase into one n x 2r buffer and
transforms the buffer in place: one multiply and one inverse transform a
time.  Of each time it keeps only the buffer's Gram blocks, edge rows and
particle 1's position weights, and it checks a group of times, and takes
their norms and particle 1's moments, in one stacked pass.  The phase has
unit modulus, so particle 1's spectral power |left_k|^2 is the t = 0
grid's at every time, and it is all that particle 1's wavenumber moments
need of the spectra.  The t = 0 grid is real on its support (below): its
Grams are real, its right spectra are its left ones at -k, and its moments
take one inverse transform, so a check at four times makes 5 1-D
transform calls.

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
the largest G_cc, which ``initial_grid`` and ``_schedule`` hold to
ISOMETRY_LIMIT.  Every Gram of complex factors, each evolved time's and
the t = 0 wavenumber-weighted ones, is one real product of their float
views, with no conjugate copy: each factor is laid out with its n axis
first and its r columns contiguous (``right`` as the transpose of such an
array), so that view is free.  A diagonal sum drops the terms
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
larger than O(n r).  The t = 0 grid keeps U, c S and p on the support
rows, and no n x r copy of either factor: |p_i| = 1, so every position
Gram is a real sum over the support rows; its spectra are those of
diag(p) U, written into the zero-padded half of the spectrum array and
transformed in place; and right = c S left^H makes right's spectra and
k-weighted Gram left's at -k, but for the Nyquist bin, which is its own -k
and is added on its own.

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
    "moments",
]

LEAKAGE_LIMIT = 1e-8
ISOMETRY_LIMIT = 1e-12  # largest off-diagonal entry of a Gram over its largest diagonal one
RESIDUAL_LIMIT = 1e-13  # relative Frobenius error of an accepted factorisation
ROW_BLOCK = 64  # rows of the residual formed at once
_EDGE = np.array([0, 1, -2, -1])  # the outermost two cells at each end of an axis
_BOUNDARY = "packet reached the grid boundary at t = {t:g} (leakage {leak:.2e}); enlarge the extent"


@dataclass(frozen=True)
class WaveGrid:
    """The discretized two-particle wavefunction at t = 0, as Schmidt
    factors: psi(x1_i, x2_j) = (left @ right)[i, j], with left (n x r)
    holding particle 1's modes as columns and right (r x n) particle 2's as
    rows, weighted by the singular values.

    Neither factor is stored.  ``_modes`` is the one record of them,
    (U, scale, rows, phase): the real modes U (m x r, orthonormal columns)
    on the m support ``rows``, the per-mode scale, and the packet phase p on
    those rows, with left = diag(p) U on the rows and 0 off them and
    right = diag(scale) left^H.  Every Gram, spectrum and moment of the grid
    is taken from it.  ``schmidt`` holds the r Schmidt coefficients of the
    sampled state: the singular values of psi times dx, whose squares sum to
    its norm.  The record's arrays and ``schmidt`` are read-only, and so are
    the axes, spectra and Grams that a grid caches the first time they are
    needed.  Later times are never held as a grid: ``_schedule`` evolves
    this one.
    """

    n: int
    extent: float
    params: PairParams
    schmidt: np.ndarray
    _modes: tuple = field(repr=False)

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
    def _spectrum(self) -> np.ndarray:
        """The 1-D transforms of ``left``'s columns beside those of
        ``right``'s rows, as one n x 2r array taken once per grid: every
        evolution multiplies it by its phase.  diag(p) U is written into the
        zero-padded left half, which is transformed in place.
        right = diag(scale) left^H, so right's spectra are left's at -k,
        conjugated and scaled, with no second transform; the mirror is
        written in blocks of rows whose source and target do not overlap,
        so numpy makes no temporary copy of the source."""
        u, scale, rows, phase = self._modes
        n, r, h = self.n, scale.size, self.n // 2
        both = np.zeros((n, 2 * r), dtype=complex)
        left, right = both[:, :r], both[:, r:]
        np.multiply(phase[:, None], u, out=left[rows])
        np.fft.fft(left, axis=0, out=left)
        # right's row k takes left's row n - k; k = 0 and the Nyquist bin h are their own
        for source, target in ((left[::h], right[::h]), (left[:h:-1], right[1:h]),
                               (left[h - 1:0:-1], right[h + 1:])):
            np.conjugate(source, out=target)
        right *= scale
        return _read_only(both)

    @property
    def _spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """``_spectrum``'s two halves, each held as its factor is: left's
        spectra n x r, right's r x n."""
        return self._spectrum[:, :self.schmidt.size], self._spectrum[:, self.schmidt.size:].T

    @cached_property
    def _spectral_power(self) -> np.ndarray:
        """|left_k|^2, the n x r row factor of particle 1's wavenumber
        weights.  The free propagator is a phase of unit modulus in k, so
        it is also that of every time ``_schedule`` evolves to, which needs
        no transform for it."""
        left_k = self._spectra[0]
        power = np.square(left_k.real)
        power += np.square(left_k.imag)
        return _read_only(power)

    @cached_property
    def _grams(self) -> tuple[np.ndarray, np.ndarray]:
        """The unweighted Grams left^H left and right right^H: the norm and
        the isometry.  They are real: G = U^T U over the support rows, and
        diag(scale) G diag(scale)."""
        u, scale = self._modes[:2]
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


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The r x r matrix a^H b of n x r complex factors.  For r x n factors
    R and S, S R^H is ``_gram(R.T, S.T).T``.

    One real product of the factors' float views, whose columns are the
    real and imaginary parts of each complex column side by side
    (``_complex_gram``), so each factor's columns must be contiguous.  No
    conjugate copy is made."""
    return _complex_gram(a.view(np.float64).T @ b.view(np.float64))


def _complex_gram(block: np.ndarray) -> np.ndarray:
    """The complex Grams of float-view products ``block``, (..., 2r, 2r)
    floats to (..., r, r) complex: each entry is the sum of its real-real
    and imaginary-imaginary terms, plus i times the difference of its two
    mixed ones."""
    gram = np.empty(block.shape[:-2] + (block.shape[-2] // 2, block.shape[-1] // 2),
                    dtype=complex)
    gram.real = block[..., 0::2, 0::2] + block[..., 1::2, 1::2]
    gram.imag = block[..., 0::2, 1::2] - block[..., 1::2, 0::2]
    return gram


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


def _leakage(grams: np.ndarray, edges: np.ndarray, dx: float) -> np.ndarray:
    """The probability mass in the outermost two cells along each edge, of
    each of a stack of amplitudes, from its two Grams (..., 2, r, r),
    left's then right's, in either orientation, and its edge rows
    (..., 4, 2r) of [left | right^T].

    The mass of the edge rows plus that of the edge columns, less the
    corners they share: three sums of that small mass, where the whole mass
    minus the inner mass would cancel two sums near 1.  The rows and columns
    are the squares of the edge rows' float view over the other factor's
    Gram diagonal, each entry twice (its real and imaginary part)."""
    r = grams.shape[-1]
    diagonals = np.diagonal(grams, axis1=-2, axis2=-1).real[..., ::-1, :]  # right's, left's
    weights = np.repeat(diagonals, 2, axis=-1).reshape(*grams.shape[:-3], 4 * r)
    sides = (np.square(edges.view(np.float64)) @ weights[..., None]).sum(axis=(-2, -1))
    cells = edges[..., :r] @ np.swapaxes(edges[..., r:], -2, -1)  # the 16 corner cells
    corners = np.square(cells.view(np.float64)).sum(axis=(-2, -1))
    return (sides - corners) * dx * dx


def _isometry_defects(grams: np.ndarray) -> np.ndarray:
    """For each Gram of a stack (..., r, r), its largest off-diagonal
    magnitude over its largest diagonal one."""
    r = grams.shape[-1]
    magnitude = np.abs(grams).reshape(*grams.shape[:-2], r * r)
    largest = magnitude[..., ::r + 1].max(axis=-1)
    magnitude[..., ::r + 1] = 0.0
    return magnitude.max(axis=-1) / largest


def _raise_failure(t: float, leak: float, defects, boundary: str) -> None:
    """Raise the grid at time t's first failure: its edge leakage above
    LEAKAGE_LIMIT (the ``boundary`` message, formatted with t and leak),
    then the isometry defect of its left and of its right Gram above
    ISOMETRY_LIMIT."""
    if not leak <= LEAKAGE_LIMIT:
        raise GridError(boundary.format(t=t, leak=leak))
    for defect in defects:
        if not defect <= ISOMETRY_LIMIT:
            raise GridError(f"Schmidt factors are not orthogonal at t = {t:g} "
                            f"(isometry defect {defect:.2e})")


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
    (4cr).  What the grid keeps after it, u, the phase on the rows and the
    real c x c Grams beside their temporaries and the isometry check's copy
    (mc + 2m + 4c^2), is less."""
    r, c = terms, min(n, terms)
    return 8 * (_vector_words(n) + 2 * n * r + max(n * c, 2 * ROW_BLOCK * n) + 4 * c * r)


def _check_bytes(grid: WaveGrid, count: int) -> int:
    """Bytes that ``oracle-check`` holds at its peak past ``initial_grid``,
    for the t = 0 ``grid`` of n points, rank r and m support rows, when
    ``_schedule`` evolves ``count`` times, beside its output.  An upper
    bound: what the grid holds, plus the larger of what ``moments(grid)``
    and the schedule hold at their peaks, since ``oracle-check`` takes the
    t = 0 moments before it evolves; a traced run past ``initial_grid``
    peaks at 0.54 of it at rank 1, where the n-vectors set the charge, and
    at 0.84-0.89 at ranks 14-180.  Terms: ``_vector_words``; the real
    m x r modes U and the phase on the rows (mr + 2m words); the
    side-by-side spectra and the spectral power |left_k|^2 (5nr); the r x r
    Grams and their temporaries (8r^2); and the larger of the temporaries
    of ``moments``, k1 psi and the weighted float views of the t = 0 Grams,
    or the support blocks of left and right beside three complex m x r
    terms of the mirrored k2 psi (2nr + 10mr), and the schedule's n x 2r
    buffer (4nr) with the group of times it holds at once (``_group_size``,
    each 6n + 16r^2 + 16r)."""
    n, r, m = grid.n, grid.schmidt.size, len(grid._modes[0])
    group = _group_size(n, r, count) * (6 * n + 16 * r * r + 16 * r)
    return 8 * (_vector_words(n) + 5 * n * r + m * r + 2 * m + 8 * r * r
                + max(2 * n * r + 10 * m * r, 4 * n * r + group))


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
    """||H * T - skeleton @ skeleton^T||_F, formed ROW_BLOCK rows at a time
    from the blocks on and left of the diagonal: each block of E is the
    product of the views' blocks, written into one reused buffer beside the
    one that holds its miss, so E is never formed whole.  ``skeleton`` is
    n x r with its rows contiguous, so each block's product is one BLAS
    call at every rank, r = 1 included, with no copy of either operand."""
    n = len(hankel)
    total = 0.0
    buffers = np.empty((2, ROW_BLOCK * n))  # one row block of E and its miss
    for start in range(0, n, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, n)
        shape = (stop - start, stop)
        envelope, miss = (buffer[:shape[0] * stop].reshape(shape) for buffer in buffers)
        np.multiply(hankel[start:stop, :stop], toeplitz[start:stop, :stop], out=envelope)
        np.dot(skeleton[start:stop], skeleton[:stop].T, out=miss)
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
    np.multiply(xi, -0.5, out=h[0])
    h[0] *= xi
    np.exp(h[0], out=h[0])
    term = np.empty(len(xi))
    for k in range(1, terms):
        np.multiply(xi, math.sqrt(2.0 / k), out=h[k])
        h[k] *= h[k - 1]
        if k > 1:
            np.multiply(h[k - 2], math.sqrt((k - 1) / k), out=term)
            h[k] -= term
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
    Q W diag(sqrt(s)) against the views, so views that ``params`` does not
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
    residual = _residual(hankel[rows, rows], toeplitz[rows, rows], basis @ (w * np.sqrt(s)))
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
    the physical memory, and raises GridError when the sampled packet
    reaches the grid's edges or its factors fail the isometry check.
    """
    x, phase, envelope, weight, extent = _sampled_amplitude(params, n, extent, t_max)
    rows, outside = _support(*envelope, weight)
    u, s = _schmidt_factors(params, x, *envelope, weight, rows, outside)
    # a diagonal unitary keeps singular values: psi / c = diag(p) E diag(conj p)
    # has E's Schmidt factors with the phase moved onto them, and renormalized
    # it has E's singular values over ||E|| dx; both factors are 0 off the rows
    norm = math.sqrt(weight)
    scale = s / (norm * (extent / n))
    phase = phase[rows].copy()
    grid = WaveGrid(n=n, extent=extent, params=params, schmidt=_read_only(s / norm),
                    _modes=(_read_only(u), _read_only(scale), rows, _read_only(phase)))
    # the edge rows of [left | right^T], 0 where the support does not reach them
    at = _EDGE % n - rows.start
    inside = (at >= 0) & (at < len(u))
    edges = np.zeros((len(_EDGE), 2 * len(s)), dtype=complex)
    edges[inside, :len(s)] = phase[at[inside], None] * u[at[inside]]
    edges[:, len(s):] = edges[:, :len(s)].conj() * scale
    grams = np.stack(grid._grams)
    leak = float(_leakage(grams, edges, grid.dx))
    _raise_failure(0.0, leak, _isometry_defects(grams),
                   "initial packet touches the boundary (leakage {leak:.2e})")
    return grid


def _propagators(k: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The free propagator's phases exp(-i k^2 t / 2) on the wavenumbers
    ``k`` (FFT order), one row for each of ``times``, from one exponential
    over the n/2 + 1 wavenumbers k >= 0 and the Nyquist bin: the phase at
    -k is the one at k, bit for bit."""
    half = len(k) // 2 + 1
    phases = np.empty((len(times), len(k)), dtype=complex)
    np.exp(np.multiply.outer(times, -1j * k[:half] * k[:half]) / 2.0, out=phases[:, :half])
    phases[:, half:] = phases[:, half - 2:0:-1]
    return phases


def _propagate(spectrum: np.ndarray, phase: np.ndarray, buffer: np.ndarray) -> None:
    """Write the factors that ``spectrum`` (a grid's ``_spectrum``) takes
    under ``phase`` (a row of ``_propagators``) into ``buffer``, n x 2r:
    left as its first r columns and right^T as its last r.  One multiply
    and one inverse transform in place."""
    np.multiply(spectrum, phase[:, None], out=buffer)
    np.fft.ifft(buffer, axis=0, out=buffer)


def _group_size(n: int, r: int, count: int) -> int:
    """The times of ``count`` that ``_schedule`` evolves per stacked pass,
    at least 1: as many as keep what a group holds and what its stacked
    pass makes within 4nr + 16n words, the n x 2r buffer's and as many as
    the sampler's n-vectors took.  Each time's phases, position weights and
    the pass's n-vectors of its moments take 6n words; its two Gram blocks
    and their complex Grams, magnitudes and products, 16r^2; its edge rows,
    16r."""
    return max(1, min(count, (4 * n * r + 16 * n) // (6 * n + 16 * r * r + 16 * r)))


def _schedule(grid: WaveGrid, times: np.ndarray) -> np.ndarray:
    """The norm and particle 1's (mean_x1, var_x1, mean_k1, var_k1) of
    ``grid`` evolved to each of ``times`` (all > 0), as one row per time.

    Every time is evolved in turn into one n x 2r buffer (``_propagate``),
    and no grid is built for it: of each time only its two float-view Gram
    blocks, its edge rows and particle 1's position weights are kept, and
    the buffer is then free for the next time.  A group of times takes its
    phases from one exponential, and one stacked pass over its blocks
    (``_group_rows``) gives each time's leakage, isometry defects, norm and
    moments.  Nothing held grows with the number of times past one group
    (``_group_size``)."""
    n, r = grid.n, grid.schmidt.size
    spectrum = grid._spectrum
    buffer = np.empty((n, 2 * r), dtype=complex)
    floats = buffer.view(np.float64)  # left's float view beside right^T's
    left, right = floats[:, :2 * r], floats[:, 2 * r:]
    size = _group_size(n, r, len(times))
    blocks = np.empty((size, 2, 2 * r, 2 * r))
    edges = np.empty((size, 4, 2 * r), dtype=complex)
    x_weights = np.empty((size, n))
    out = np.empty((len(times), 5))
    for start in range(0, len(times), size):
        group = times[start:start + size]
        for j, phase in enumerate(_propagators(grid.k_axis, group)):
            _propagate(spectrum, phase, buffer)
            np.matmul(left.T, left, out=blocks[j, 0])
            np.matmul(right.T, right, out=blocks[j, 1])
            np.take(buffer, _EDGE, axis=0, out=edges[j], mode="wrap")
            # particle 1's position weights, |left|^2 over right's Gram diagonal;
            # the buffer is not read again before the next time, so it is squared
            # whole, in place
            diagonal = blocks[j, 1].diagonal()
            np.square(floats, out=floats)
            _square_weights(left, diagonal[0::2] + diagonal[1::2], out=x_weights[j])
        g = len(group)
        out[start:start + g] = _group_rows(grid, group, blocks[:g], edges[:g], x_weights[:g])
    return out


def _group_rows(grid: WaveGrid, times: np.ndarray, blocks: np.ndarray, edges: np.ndarray,
                x_weights: np.ndarray) -> np.ndarray:
    """``_schedule``'s rows for a group of ``times``, in one stacked pass
    over what it kept of each: the float-view Gram blocks (..., 2, 2r, 2r),
    the edge rows (..., 4, 2r) and particle 1's position weights (..., n),
    through the helpers that ``initial_grid`` and ``moments`` use.  The
    first failing time, in order, raises: leakage before isometry, the left
    Gram before the right one.  The pass's temporaries die with this call,
    before the next group's are made."""
    grams = _complex_gram(blocks)  # right's is (right right^H)^T
    for t, leak, pair in zip(times, _leakage(grams, edges, grid.dx), _isometry_defects(grams)):
        _raise_failure(t, leak, pair, _BOUNDARY)
    norms = np.sum(grams[:, 0] * grams[:, 1], axis=(-2, -1)).real * grid.dx * grid.dx
    k_weights = _wavenumber_weights(grid, np.diagonal(grams[:, 1], axis1=-2, axis2=-1).real)
    return np.column_stack([norms, *_weighted_moments(x_weights, grid.axis),
                            *_weighted_moments(k_weights, grid.k_axis)])


def _weighted_moments(weights: np.ndarray, axis: np.ndarray) -> tuple:
    """Mean and variance of ``axis`` under a marginal's ``weights`` (...,
    n), over their own sum, for each marginal of a stack.  The variance is
    centred, sum w (x - mean)^2 / sum w: E[x^2] - mean^2 would cancel once
    the mean dwarfs the spread."""
    total = weights.sum(axis=-1)
    mean = np.vecdot(weights, axis) / total
    centred = axis - mean[..., None]
    return mean, np.vecdot(weights, centred * centred) / total


def _wavenumber_weights(grid: WaveGrid, diagonal: np.ndarray) -> np.ndarray:
    """Particle 1's wavenumber weights (..., n): ``grid``'s spectral power
    over ``diagonal`` (..., r), the diagonal of right's Gram, n times which
    is the spectral Gram's by Parseval."""
    return (grid.n * diagonal) @ grid._spectral_power.T


def moments(grid: WaveGrid) -> MomentSet:
    """All first/second moments: positions from the factors, wavenumbers from
    their cached 1-D transforms, and symmetrized position-wavenumber cross
    terms via Re <psi| x (k psi)> (the real part is exactly the symmetrized
    product).  Each quantity of one particle is a diagonal sum over the
    other factor's Gram; each cross term is the trace of two r x r Grams,
    each weighted by its own particle's offsets x - mean or k - mean, so no
    product of means cancels where a mean dwarfs the spread.  k1 psi takes
    one inverse transform of the left spectra.

    With left = diag(p) U and right = diag(scale) left^H
    (``WaveGrid._modes``), the position Grams are real sums over the support
    rows, particle 2's position weights are particle 1's and its wavenumber
    weights are particle 1's at -k, and its k-weighted Gram and k2 psi are
    particle 1's taken at k -> -k, plus the Nyquist bin, which is its own
    -k: no second k Gram and no second inverse transform."""
    x, k = grid.axis, grid.k_axis
    left_k = grid._spectra[0]
    (l1, r1), (sl1, sr1) = grid._grams, grid._spectral_grams
    norm, spectral_norm = _trace(l1, r1), _trace(sl1, sr1)
    # left and right are 0 off the rows, so the sums over them skip the others
    u, scale, rows, phase = grid._modes
    left = phase[:, None] * u
    right = (left.conj() * scale).T
    k_weights = _wavenumber_weights(grid, r1.diagonal().real)
    mean_x1, var_x1 = map(float, _weighted_moments(_row_weights(left, r1), x[rows]))
    mean_k1, var_k1 = map(float, _weighted_moments(k_weights, k))
    x1, k1 = x[rows] - mean_x1, k - mean_k1
    # k1 psi = k1_left @ right and k2 psi = left @ k2_right; each meets left or
    # right, so only its rows are kept
    k1_left = left_k * k1[:, None]
    lk = _gram(left_k, k1_left)  # left_k^H diag(k1) left_k
    np.fft.ifft(k1_left, axis=0, out=k1_left)
    k1_left = k1_left[rows]
    # right = diag(scale) left^H: particle 2's position weights are
    # particle 1's, and its wavenumber weights are particle 1's at -k
    mean_x2, var_x2, x2 = mean_x1, var_x1, x1
    mean_k2, var_k2 = map(float, _weighted_moments(k_weights, k[-np.arange(grid.n)]))
    lx = (u.T * x1) @ u
    scales = np.outer(scale, scale)  # right's Grams are scale (U^T diag(w) U) scale
    rx = scales * lx
    # at -k, k2's offsets are -k1 - shift, but 2 k_N more at the Nyquist bin N,
    # so rk and k2 psi follow from lk and k1_left
    shift, nyquist, k_n = mean_k1 + mean_k2, left_k[grid.n // 2], k[grid.n // 2]
    rk = scales * (2.0 * k_n * np.outer(nyquist.conj(), nyquist) - lk - shift * sl1)
    sign = 1.0 - 2.0 * (np.arange(grid.n)[rows] % 2)  # exp(2 pi i j N / n)
    mirrored = np.outer(sign, nyquist)
    mirrored *= 2.0 * k_n / grid.n
    mirrored -= k1_left
    mirrored -= shift * left
    np.conjugate(mirrored, out=mirrored)
    mirrored *= scale
    k2_right = mirrored.T
    cov_x1x2 = _trace(lx, rx) / norm
    cov_k1k2 = _trace(lk, rk) / spectral_norm
    sym_x1k1 = float((x1 @ (left.conj() * k1_left)).real @ r1.diagonal().real) / norm
    sym_x2k2 = float(l1.diagonal().real @ ((k2_right * right.conj()) @ x2).real) / norm
    sym_x1k2 = _trace(lx, _gram(right.T, k2_right.T).T) / norm
    sym_x2k1 = _trace(_gram(left, k1_left), rx) / norm
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


def _row_weights(left: np.ndarray, right_gram: np.ndarray) -> np.ndarray:
    """sum_j |(left @ right)[i, j]|^2 for each row i, as |left|^2 times the
    diagonal of right's Gram right right^H (``_square_weights``)."""
    return _square_weights(np.square(left.view(np.float64)), right_gram.diagonal().real)


def _square_weights(squares: np.ndarray, diagonal: np.ndarray, out=None) -> np.ndarray:
    """The row weights of an n x r complex factor from the squares of its
    float view, n x 2r, over ``diagonal``, the r weights of its columns:
    one matrix-vector product over the real and imaginary parts side by
    side."""
    return np.matmul(squares, np.repeat(diagonal, 2), out=out)
