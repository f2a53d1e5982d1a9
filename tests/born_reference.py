"""Per-sample Born-rule reference for the batch protocol engine.

The engine in ``localent.protocols`` simulates each sub-ensemble by one
chi-square variate and fits all trials with closed-form normal equations.
The functions here take the long way, draw by draw and point by point, so
the tests can check the engine against them.
"""

from __future__ import annotations

import math

import numpy as np

from localent.errors import DomainError, FitError
from localent.protocols import HiddenScenario
from localent.states import _dispersion_curve, momentum_dispersion, position_dispersion

# Gauss-Newton refinement: stop once every step is below this relative size
_REFINE_TOL = 1e-10
_REFINE_MAX_ITER = 50


def sample_momentum(scenario: HiddenScenario, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Born-rule draws from particle 1's momentum marginal."""
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    return rng.normal(scenario.params.k_c, momentum_dispersion(scenario.params), size=n)


def sample_position(
    scenario: HiddenScenario, t_meas: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n draws from particle 1's position marginal at observer time t_meas.

    The state has evolved for t_meas + t0 since production; only that sum
    enters the distribution.
    """
    if t_meas < 0:
        raise DomainError(f"measurement time must be nonnegative, got {t_meas}")
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    t = t_meas + scenario.t0
    return rng.normal(scenario.params.k_c * t, position_dispersion(t, scenario.params), size=n)


def estimate_dispersion(samples: np.ndarray) -> tuple[float, float]:
    """Sample dispersion and its standard error.

    Returns (sqrt of the unbiased sample variance, dx_hat / sqrt(2(n-1)));
    the standard error is the large-n Gaussian theory value.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    var = float(np.var(samples, ddof=1))
    if var == 0.0:
        raise DomainError("degenerate sample: all values equal, dispersion undefined")
    dx_hat = math.sqrt(var)
    return dx_hat, dx_hat / math.sqrt(2.0 * (n - 1))


def measure_position_series(
    scenario: HiddenScenario,
    times,
    n_per_point: int,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one measurement campaign, a sub-ensemble per time point:
    (dx_hat, stderr) at each time."""
    estimates = [
        estimate_dispersion(sample_position(scenario, float(tm), n_per_point, rng))
        for tm, rng in zip(times, rngs)
    ]
    dx_hat, stderr = np.array(estimates).reshape(-1, 2).T
    return dx_hat, stderr


def refine_dispersion_fit(
    u_hat: float, times, dx, stderr, alpha: float, beta: float
) -> tuple[float, float]:
    """Gauss-Newton refinement of (alpha, beta) on the un-squared curve,
    from a start at the given (alpha, beta).

    Cross-check path for the linear solution, weighted by the standard errors
    when every point has one; on noiseless data the two agree to better than
    1e-6.  Raises FitError when the iteration does not converge.
    """
    t, dx, stderr = (np.asarray(values, dtype=float) for values in (times, dx, stderr))
    weights = 1.0 / stderr if np.all(stderr > 0) else np.ones_like(t)
    params = np.array([alpha, beta])
    for _ in range(_REFINE_MAX_ITER):
        alpha, beta = params
        if not alpha > 0:  # diverged: the model would vanish where t = -beta
            break
        shifted = t + beta
        model = _dispersion_curve(u_hat, alpha, np.abs(shifted))
        jac = np.column_stack([1.0 / (8.0 * u_hat**2 * model), u_hat**2 * shifted / model])
        step = np.linalg.lstsq(jac * weights[:, None], (dx - model) * weights, rcond=None)[0]
        params = params + step
        if np.all(np.abs(step) <= _REFINE_TOL * (np.abs(params) + _REFINE_TOL)):
            return float(params[0]), float(params[1])
    raise FitError("Gauss-Newton refinement of the dispersion fit did not converge")
