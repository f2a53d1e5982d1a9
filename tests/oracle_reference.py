"""Full-grid quadrature reference for ``localent.oracle.moments``.

The package takes every moment as a contraction of row and column sums.  The
function here forms each n x n weighted product and sums it, the long way,
so the tests can check the contractions against it.
"""

from __future__ import annotations

import numpy as np

from localent.oracle import MomentSet, WaveGrid


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
