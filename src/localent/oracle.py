"""Brute-force validation on a two-dimensional spectral grid.

The t = 0 two-particle amplitude is sampled on an n x n grid, evolved by the
free propagator applied as a phase in Fourier space (exact for free motion,
so there is no time-stepping error), and every moment, marginal density and
correlation-matrix entry is recomputed by midpoint quadrature.  Nothing here
reuses the closed-form dispersions, which is what makes these numbers an
independent check of them.

Each grid transforms its amplitudes at most once: ``WaveGrid.spectrum``,
``WaveGrid.density`` and ``WaveGrid.spectral_density`` are computed on first
use and shared by every quadrature.  ``evolve`` multiplies the spectrum by the
free phase, which factorises into one n-vector per particle, and hands the
product to the evolved grid as that grid's own spectrum.  ``moments`` takes
every first and second moment as a contraction of the row and column sums of
the density and of the spectral density with the axis, so its only n x n work
is the two inverse transforms of its cross terms and single passes over
arrays the grid already holds.

Conventions: amplitudes[i, j] = psi(x1_i, x2_j) on the uniform axis
[-L/2, L/2) with n points; wavenumbers follow numpy's FFT ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .covariance import CovMatrix4
from .errors import DomainError, GridError
from .states import PairParams, drift_velocity, initial_amplitude, position_dispersion

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


@dataclass(frozen=True)
class WaveGrid:
    """Discretized two-particle wavefunction at one instant."""

    n: int
    extent: float
    amplitudes: np.ndarray
    params: PairParams
    t: float

    @property
    def dx(self) -> float:
        return self.extent / self.n

    @property
    def axis(self) -> np.ndarray:
        return -0.5 * self.extent + self.dx * np.arange(self.n)

    @property
    def k_axis(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """fft2 of the amplitudes (read-only), in numpy's FFT ordering."""
        return _read_only(np.fft.fft2(self.amplitudes))

    @cached_property
    def density(self) -> np.ndarray:
        """|psi|^2 on the grid points (read-only)."""
        return _read_only(self.amplitudes.real ** 2 + self.amplitudes.imag ** 2)

    @cached_property
    def spectral_density(self) -> np.ndarray:
        """|fft2(psi)|^2 in numpy's FFT ordering (read-only), unnormalized."""
        return _read_only(np.abs(self.spectrum) ** 2)

    def norm(self) -> float:
        """Quadrature of |psi|^2 over the plane; 1 up to grid error."""
        return float(np.sum(self.density) * self.dx * self.dx)


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged so that no caller can corrupt a grid's cached copy."""
    array.flags.writeable = False
    return array


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
    """Probability mass in the outermost two cells along each edge."""
    density = grid.density
    return float(density.sum() - density[2:-2, 2:-2].sum()) * grid.dx * grid.dx


def initial_grid(
    params: PairParams,
    n: int = 512,
    extent: float | None = None,
    t_max: float = 0.0,
) -> WaveGrid:
    """Sample the t = 0 amplitude and renormalize it by quadrature.

    ``t_max`` feeds the default extent so the packet still fits after the
    evolutions the caller plans.  The renormalization factor must stay within
    1e-4 of unity, otherwise the grid is rejected as under-resolved.
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
    dx = extent / n
    x = -0.5 * extent + dx * np.arange(n)
    amp = initial_amplitude(x[:, None], x[None, :], params)
    norm = float(np.sum(np.abs(amp) ** 2) * dx * dx)
    factor = 1.0 / math.sqrt(norm)
    if not abs(factor - 1.0) <= 1e-4:
        raise GridError(
            f"grid under-resolves the state (renormalization factor {factor:.6f})"
        )
    amp *= factor
    grid = WaveGrid(n=n, extent=extent, amplitudes=amp, params=params, t=0.0)
    leak = boundary_leakage(grid)
    if not leak <= LEAKAGE_LIMIT:
        raise GridError(f"initial packet touches the boundary (leakage {leak:.2e})")
    return grid


def evolve(grid: WaveGrid, t: float) -> WaveGrid:
    """Advance the wavefunction by time t with the exact free propagator.

    The phase exp(-i (k1^2 + k2^2) t / 2) is the outer product of one
    n-vector with itself, applied to ``grid.spectrum`` and followed by one
    inverse FFT; the product is the evolved grid's own spectrum, so the
    evolved grid needs no forward transform.  Unitary up to roundoff, so the
    norm is preserved to ~1e-15 per call.  Raises when the evolved packet
    reaches the grid boundary.
    """
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"time step must be finite and nonnegative, got {t}")
    k = grid.k_axis
    e = np.exp(-1j * k * k * t / 2.0)
    phi = grid.spectrum * e[:, None]
    phi *= e[None, :]
    amp = np.fft.ifft2(phi)
    out = WaveGrid(n=grid.n, extent=grid.extent, amplitudes=amp, params=grid.params, t=grid.t + t)
    vars(out)["spectrum"] = _read_only(phi)  # the cache slot cached_property reads
    leak = boundary_leakage(out)
    if not leak <= LEAKAGE_LIMIT:
        raise GridError(
            f"packet reached the grid boundary at t = {out.t:g} (leakage {leak:.2e}); "
            "enlarge the extent"
        )
    return out


def _contractions(weights: np.ndarray, axis: np.ndarray) -> tuple[float, ...]:
    """Means, variances and covariance of the two coordinates under ``weights``,
    then the total weight.  Row sums weight the first coordinate, column sums
    the second, and x^T W x gives their correlation."""
    rows = weights.sum(axis=1)
    cols = weights.sum(axis=0)
    total = float(rows.sum())
    mean1 = float(axis @ rows) / total
    mean2 = float(axis @ cols) / total
    square = axis * axis
    var1 = float(square @ rows) / total - mean1 * mean1
    var2 = float(square @ cols) / total - mean2 * mean2
    # einsum, not a BLAS matrix-vector product: at n = 1024 on a 2-core VM a
    # threaded OpenBLAS gemv took 8 ms against 0.4 ms, and slowed the work after it
    cov = float(axis @ np.einsum("ij,j->i", weights, axis)) / total - mean1 * mean2
    return mean1, mean2, var1, var2, cov, total


def _float_pairs(array: np.ndarray) -> np.ndarray:
    """An n x n array as the n x 2n float64 view of its complex128 C-ordered
    form, copying only when ``array`` is not already in that form (amplitudes
    a caller built, and the transforms of their spectrum, may be in F order)."""
    return np.ascontiguousarray(array, dtype=np.complex128).view(np.float64)


def moments(grid: WaveGrid) -> MomentSet:
    """All first/second moments: positions from ``grid.density``, wavenumbers
    from ``grid.spectral_density``, and symmetrized position-wavenumber cross
    terms via Re <psi| x (k psi)> (the real part is exactly the symmetrized
    product).  Each is a contraction of row and column sums with the axis."""
    x = grid.axis
    mean_x1, mean_x2, var_x1, var_x2, cov_x1x2, norm = _contractions(grid.density, x)
    k = grid.k_axis
    mean_k1, mean_k2, var_k1, var_k2, cov_k1k2, _ = _contractions(grid.spectral_density, k)

    # In the float64 views (re, im) pairs sit side by side, so a row of the
    # elementwise product sums Re(conj(psi) k_psi) with no complex temporary.
    psi = _float_pairs(grid.amplitudes)

    def raw_cross(k_phi: np.ndarray) -> tuple[float, float]:
        """<x1 k>, <x2 k> for the wavenumber k that weights ``k_phi``."""
        k_psi = _float_pairs(np.fft.ifft2(k_phi))
        rows = np.einsum("ij,ij->i", psi, k_psi)
        cols = np.einsum("ij,ij->j", psi, k_psi).reshape(-1, 2).sum(axis=1)
        return float(x @ rows) / norm, float(x @ cols) / norm

    phi = grid.spectrum
    x1k1, x2k1 = raw_cross(phi * k[:, None])
    x1k2, x2k2 = raw_cross(phi * k[None, :])
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


def numeric_covariance_matrix(grid: WaveGrid) -> CovMatrix4:
    """Correlation matrix by quadrature, in the same doubled convention as
    the analytic construction (entries are 2x the symmetrized covariances)."""
    m = moments(grid)
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


def position_marginal(grid: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Marginal density of x1, integrating |psi|^2 over x2 by midpoint rule."""
    density = np.sum(grid.density, axis=1) * grid.dx
    return grid.axis.copy(), density


def momentum_marginal(grid: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Marginal density of k1 from the spectral density, sorted by wavenumber."""
    density = np.sum(grid.spectral_density, axis=1)
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
