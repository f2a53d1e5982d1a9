"""The dense spectral-grid engine, the reference for ``localent.oracle``.

The package holds each grid as Schmidt factors and takes every quantity as a
contraction of them.  This module holds the whole n x n amplitude instead:
it evolves it by ``fft2`` and ``ifft2``, and forms each n x n weighted
product and sums it, the long way.  It samples the t = 0 amplitude as one
complex array from ``states.initial_amplitude`` and renormalizes it by its
own quadrature, so it shares only the closed form with the package, which
factorises a real envelope and puts the phase on the factors.  Its grid,
evolution, marginal and correlation-matrix functions carry the package's
names, so a test can run one check through either engine; its
moments are ``reference_moments``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from localent.covariance import CovMatrix4
from localent.errors import DomainError, GridError
from localent.oracle import LEAKAGE_LIMIT, MomentSet, _correlation_matrix, default_extent
from localent.states import PairParams, initial_amplitude


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
        """fft2 of the amplitudes, in numpy's FFT ordering."""
        return np.fft.fft2(self.amplitudes)

    @cached_property
    def density(self) -> np.ndarray:
        """|psi|^2 on the grid points."""
        return np.abs(self.amplitudes) ** 2

    @cached_property
    def spectral_density(self) -> np.ndarray:
        """|fft2(psi)|^2 in numpy's FFT ordering, unnormalized."""
        return np.abs(self.spectrum) ** 2


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
    """The renormalized t = 0 amplitude, held whole.  The renormalization
    factor must stay within 1e-4 of unity, as in the package."""
    if extent is None:
        extent = default_extent(params, t_max)
    dx = extent / n
    x = -0.5 * extent + dx * np.arange(n)
    amp = initial_amplitude(x[:, None], x[None, :], params)
    factor = 1.0 / math.sqrt(float(np.sum(np.abs(amp) ** 2) * dx * dx))
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
    """Advance the wavefunction by time t: the free phase
    exp(-i (k1^2 + k2^2) t / 2) on the 2-D spectrum, then ``ifft2``."""
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"time step must be finite and nonnegative, got {t}")
    k = grid.k_axis
    phase = np.exp(-1j * (k[:, None] ** 2 + k[None, :] ** 2) * t / 2.0)
    amp = np.fft.ifft2(grid.spectrum * phase)
    out = WaveGrid(n=grid.n, extent=grid.extent, amplitudes=amp, params=grid.params,
                   t=grid.t + t)
    leak = boundary_leakage(out)
    if not leak <= LEAKAGE_LIMIT:
        raise GridError(
            f"packet reached the grid boundary at t = {out.t:g} (leakage {leak:.2e}); "
            "enlarge the extent"
        )
    return out


def position_marginal(grid: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Marginal density of x1, integrating |psi|^2 over x2 by midpoint rule."""
    return grid.axis, np.sum(grid.density, axis=1) * grid.dx


def momentum_marginal(grid: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Marginal density of k1 from the spectral density, sorted by wavenumber."""
    density = np.sum(grid.spectral_density, axis=1)
    k = grid.k_axis
    order = np.argsort(k)
    dk = 2.0 * math.pi / grid.extent
    return k[order], density[order] / (density.sum() * dk)


def reference_moments(grid: WaveGrid) -> MomentSet:
    """All first/second moments: positions by direct quadrature, wavenumbers
    spectrally, and symmetrized position-wavenumber cross terms via
    Re <psi| x (k psi)> (the real part is exactly the symmetrized product)."""
    psi = grid.amplitudes
    dx2 = grid.dx * grid.dx
    x = grid.axis
    x1 = x[:, None]
    x2 = x[None, :]
    w = np.abs(psi) ** 2 * dx2
    norm = float(w.sum())
    mean_x1 = float((w * x1).sum()) / norm
    mean_x2 = float((w * x2).sum()) / norm
    var_x1 = float((w * x1 * x1).sum()) / norm - mean_x1 * mean_x1
    var_x2 = float((w * x2 * x2).sum()) / norm - mean_x2 * mean_x2
    cov_x1x2 = float((w * x1 * x2).sum()) / norm - mean_x1 * mean_x2

    phi = np.fft.fft2(psi)
    wk = np.abs(phi) ** 2
    wk = wk / wk.sum()
    k = grid.k_axis
    k1 = k[:, None]
    k2 = k[None, :]
    mean_k1 = float((wk * k1).sum())
    mean_k2 = float((wk * k2).sum())
    var_k1 = float((wk * k1 * k1).sum()) - mean_k1 * mean_k1
    var_k2 = float((wk * k2 * k2).sum()) - mean_k2 * mean_k2
    cov_k1k2 = float((wk * k1 * k2).sum()) - mean_k1 * mean_k2

    k1_psi = np.fft.ifft2(phi * k1)
    k2_psi = np.fft.ifft2(phi * k2)

    def sym(xs, k_psi, mean_x, mean_k):
        raw = float(np.real(np.sum(np.conj(psi) * xs * k_psi)) * dx2) / norm
        return raw - mean_x * mean_k

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
        sym_x1k1=sym(x1, k1_psi, mean_x1, mean_k1),
        sym_x1k2=sym(x1, k2_psi, mean_x1, mean_k2),
        sym_x2k1=sym(x2, k1_psi, mean_x2, mean_k1),
        sym_x2k2=sym(x2, k2_psi, mean_x2, mean_k2),
    )



def numeric_covariance_matrix(grid: WaveGrid) -> CovMatrix4:
    """Correlation matrix by quadrature, in the package's doubled convention."""
    return _correlation_matrix(reference_moments(grid))
