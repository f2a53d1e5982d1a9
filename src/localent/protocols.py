"""Single-observer measurement protocols on one member of the pair.

An observer holding only particle 1 first estimates the momentum dispersion
u from a sub-ensemble and then tracks the position dispersion in time.  For
a separable source the curve is fixed by u alone,

    dx(t) = sqrt(1 + 4 u^4 t^2) / (2u),

while an entangled source lifts the constant under the square root from 1 to
u^4 b^4 / (u^4 b^4 - 1) > 1.  Two classifiers exploit this:

* known production time -- a single position measurement compared against
  the separable prediction decides the verdict and, when entangled, inverts
  the deviation into the anticorrelation width b;
* unknown production time -- a curve fit with free parameters (alpha, beta)
  where alpha = 1 marks separability, alpha > 1 yields b, and beta recovers
  the hidden production-to-measurement offset.

Everything in this module works in hbar = m = 1 units.  Sampling is ideal
Born-rule draws from the Gaussian marginals; runs are bit-reproducible from
(seed, trial index) because random substreams are assigned by index, never
by execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .states import (
    PairParams,
    _dispersion_curve,
    marginal_momentum,
    marginal_position,
    momentum_dispersion,
    position_dispersion,
)

__all__ = [
    "SEPARABLE",
    "ENTANGLED",
    "INCONCLUSIVE",
    "HiddenScenario",
    "SeriesPoint",
    "DispersionSeries",
    "FitOutcome",
    "Verdict",
    "CrossingTimes",
    "BlindTrialResult",
    "KnownOriginTrialResult",
    "sample_momentum",
    "sample_position",
    "estimate_dispersion",
    "predicted_dispersion_separable",
    "predicted_dispersion_entangled",
    "entangled_alpha",
    "width_from_momentum_dispersion",
    "critical_time",
    "mimic_width",
    "ambiguity_time",
    "crossing_times",
    "classify_known_origin",
    "fit_dispersion_curve",
    "refine_dispersion_fit",
    "entanglement_width_from_alpha",
    "classify_blind",
    "measure_position_series",
    "exact_position_series",
    "run_blind_trial",
    "run_known_origin_trial",
]

SEPARABLE = "separable"
ENTANGLED = "entangled"
INCONCLUSIVE = "inconclusive"

# z-test floor so exactly noiseless fits (sigma_alpha == 0) classify sanely
_SIGMA_FLOOR = 1e-9

# Gauss-Newton refinement: stop once every step is below this relative size
_REFINE_TOL = 1e-10
_REFINE_MAX_ITER = 50


def _require_unit_constants(params: PairParams) -> None:
    c = params.constants
    if c.hbar != 1.0 or c.mass != 1.0:
        raise DomainError("protocol closed forms assume hbar = mass = 1")


@dataclass(frozen=True)
class HiddenScenario:
    """Source-side truth: the pair parameters plus the production offset t0
    (time elapsed between pair production and the observer's first
    measurement), hidden from the blind classifier."""

    params: PairParams
    t0: float = 0.0

    def __post_init__(self) -> None:
        _require_unit_constants(self.params)
        if self.t0 < 0:
            raise DomainError(f"production offset t0 must be nonnegative, got {self.t0}")


@dataclass(frozen=True)
class SeriesPoint:
    t: float
    dx_hat: float
    stderr: float
    n_samples: int


@dataclass(frozen=True)
class DispersionSeries:
    """Estimated position dispersions at strictly increasing measurement times.

    Sampled points carry the sub-ensemble size (>= 2) and its standard error;
    exact closed-form points are marked with stderr = 0 and n_samples = 0.
    """

    points: tuple[SeriesPoint, ...]

    def __post_init__(self) -> None:
        times = [p.t for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("measurement times must be strictly increasing")
        for p in self.points:
            if not p.dx_hat > 0:
                raise DomainError(f"dispersion estimates must be positive, got {p.dx_hat}")
            if p.stderr < 0:
                raise DomainError(f"standard errors must be nonnegative, got {p.stderr}")
            if p.stderr > 0 and p.n_samples < 2:
                raise DomainError("sampled points need at least 2 samples")

    @classmethod
    def from_arrays(cls, times, dx_hat, stderr, n_samples) -> "DispersionSeries":
        pts = tuple(
            SeriesPoint(float(t), float(d), float(s), int(m))
            for t, d, s, m in zip(times, dx_hat, stderr, n_samples)
        )
        return cls(pts)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    @property
    def dx(self) -> np.ndarray:
        return np.array([p.dx_hat for p in self.points])

    @property
    def stderr(self) -> np.ndarray:
        return np.array([p.stderr for p in self.points])


@dataclass(frozen=True)
class FitOutcome:
    """Result of the dispersion-curve fit: parameters, covariance, residual."""

    u_hat: float
    alpha: float
    beta: float
    param_cov: np.ndarray
    residual_rms: float

    @property
    def alpha_sigma(self) -> float:
        return math.sqrt(max(float(self.param_cov[0, 0]), 0.0))

    def below_separable_floor(self) -> bool:
        """alpha < 1 is unphysical; it flags fit noise rather than an error."""
        return self.alpha < 1.0


@dataclass(frozen=True)
class Verdict:
    classification: str
    b_hat: float
    confidence: float

    def __post_init__(self) -> None:
        if self.classification not in (SEPARABLE, ENTANGLED, INCONCLUSIVE):
            raise DomainError(f"unknown classification {self.classification!r}")
        if math.isfinite(self.b_hat) != (self.classification == ENTANGLED):
            raise DomainError("b_hat must be finite exactly for entangled verdicts")
        if not 0.0 <= self.confidence <= 1.0:
            raise DomainError(f"confidence must lie in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class CrossingTimes:
    """Where the separable and offset-produced entangled curves intersect."""

    lab: float
    entangled_clock: float


# --- sampling and estimation -------------------------------------------------


def sample_momentum(scenario: HiddenScenario, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Born-rule draws from particle 1's momentum marginal."""
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    return marginal_momentum(scenario.params).sample(n, rng)


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
    return marginal_position(t_meas + scenario.t0, scenario.params).sample(n, rng)


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


# --- closed-form protocol curves ----------------------------------------------


def predicted_dispersion_separable(u: float, t: float | np.ndarray) -> float | np.ndarray:
    """Position dispersion of a separable source with momentum dispersion u,
    at scalar or array t."""
    return predicted_dispersion_entangled(u, math.inf, t)


def entangled_alpha(u: float, b: float) -> float:
    """Constant term u^4 b^4 / (u^4 b^4 - 1) of the entangled dispersion curve.

    This is the alpha the blind fit recovers for an entangled source; it
    tends to 1 as b -> inf.  Requires u*b > 1, otherwise the entangled curve
    is not defined for all t >= 0.
    """
    if not u > 0:
        raise DomainError(f"momentum dispersion u must be positive, got {u}")
    if not b > 0:
        raise DomainError(f"anticorrelation width b must be positive, got {b}")
    if math.isinf(b):
        return 1.0
    ub4 = (u * b) ** 4
    if ub4 <= 1.0:
        raise DomainError(f"protocol requires u*b > 1, got u*b = {u * b}")
    return ub4 / (ub4 - 1.0)


def predicted_dispersion_entangled(
    u: float, b: float, t: float | np.ndarray
) -> float | np.ndarray:
    """Position dispersion of an entangled source with momentum dispersion u,
    at scalar or array t."""
    return _dispersion_curve(u, entangled_alpha(u, b), t)


def width_from_momentum_dispersion(u: float, b: float = math.inf) -> float:
    """Packet width a reproducing momentum dispersion u at anticorrelation b."""
    if not u > 0:
        raise DomainError(f"momentum dispersion u must be positive, got {u}")
    inv_a2 = u * u - 1.0 / (b * b)
    if inv_a2 <= 0:
        raise DomainError(f"no packet width gives u = {u} at b = {b} (needs u*b > 1)")
    return 1.0 / math.sqrt(inv_a2)


def critical_time(u: float, b: float) -> float:
    """Timescale b^2 / (2 sqrt(u^4 b^4 - 1)) beyond which the two curves merge.

    Guidance only: past roughly this time the constant term is dominated by
    the t^2 term and the verdict loses statistical power.
    """
    if not u > 0:
        raise DomainError(f"momentum dispersion u must be positive, got {u}")
    if math.isinf(b):
        return 1.0 / (2.0 * u * u)  # limit of the expression below
    entangled_alpha(u, b)  # validates u*b > 1
    return b * b / (2.0 * math.sqrt((u * b) ** 4 - 1.0))


def mimic_width(u: float) -> float:
    """Packet width 1/u of the separable state whose momentum marginal matches
    an entangled source of momentum dispersion u."""
    if not u > 0:
        raise DomainError(f"momentum dispersion u must be positive, got {u}")
    return 1.0 / u


def ambiguity_time(u: float, b: float) -> float:
    """The unique time at which the width-1/u separable state reproduces both
    marginals of the entangled source at production.

    t = 1 / (2 u^2 sqrt(u^4 b^4 - 1)): a single simultaneous measurement of
    position and momentum dispersions cannot distinguish the two sources at
    exactly this instant, which is why the blind protocol needs a curve.
    """
    if not u > 0:
        raise DomainError(f"momentum dispersion u must be positive, got {u}")
    if math.isinf(b):
        return 0.0
    entangled_alpha(u, b)  # validates u*b > 1
    return 1.0 / (2.0 * u * u * math.sqrt((u * b) ** 4 - 1.0))


def crossing_times(u: float, b: float, offset: float) -> CrossingTimes:
    """Intersection of a separable curve started at lab t = 0 with an entangled
    curve whose pair was produced ``offset`` later.

    Solves 1 + 4 u^4 t^2 = alpha + 4 u^4 (t - offset)^2 for the lab clock and
    also reports the same instant on a clock starting at the entangled pair's
    production.
    """
    if offset <= 0:
        raise DomainError(f"production offset must be positive, got {offset}")
    alpha = entangled_alpha(u, b)
    u4 = u**4
    t_lab = (alpha - 1.0 + 4.0 * u4 * offset * offset) / (8.0 * u4 * offset)
    return CrossingTimes(lab=t_lab, entangled_clock=t_lab - offset)


# --- classification -----------------------------------------------------------


def _confidence(z: float) -> float:
    return min(math.erf(abs(z) / math.sqrt(2.0)), 1.0)


def classify_known_origin(
    u_hat: float,
    t_known: float,
    dx_hat: float,
    stderr: float,
    tolerance_sigmas: float = 3.0,
) -> Verdict:
    """One-shot verdict when the time since pair production is known.

    Compares the measured position dispersion against the separable
    prediction at t_known.  Within tolerance -> separable.  Above -> entangled,
    with b recovered from the implied alpha = (2 u dx)^2 - 4 u^4 t^2.  Below
    the separable floor (implied alpha < 1) -> inconclusive, since no source
    in the family produces such a value and noise is the only explanation.
    """
    if t_known < 0:
        raise DomainError(f"known production time must be nonnegative, got {t_known}")
    predicted = predicted_dispersion_separable(u_hat, t_known)
    sigma = max(stderr, 1e-12 * max(1.0, dx_hat))
    z = (dx_hat - predicted) / sigma
    if abs(z) <= tolerance_sigmas:
        return Verdict(SEPARABLE, math.inf, 1.0 - _confidence(z))
    alpha_implied = (2.0 * u_hat * dx_hat) ** 2 - 4.0 * u_hat**4 * t_known * t_known
    if alpha_implied < 1.0:
        return Verdict(INCONCLUSIVE, math.inf, 0.0)
    return Verdict(
        ENTANGLED,
        entanglement_width_from_alpha(alpha_implied, u_hat),
        _confidence(z),
    )


def _linear_fit(u: float, t: np.ndarray, dx: np.ndarray, stderr: np.ndarray):
    """Weighted linear fit of (2 u dx)^2 - 4 u^4 t^2 = c0 + c1 t.

    Squaring turns the dispersion curve into a polynomial whose t^2
    coefficient is fixed by u, so the two free parameters enter linearly and
    the noiseless fit is exact.  Returns (alpha, beta, cov(alpha, beta)).
    """
    u4 = u**4
    y = (2.0 * u * dx) ** 2
    z = y - 4.0 * u4 * t * t
    design = np.column_stack([np.ones_like(t), t])
    weighted = bool(np.all(stderr > 0))
    if weighted:
        sigma_z = 8.0 * u * u * dx * stderr  # first-order error propagation of the squaring
        design_w = design / sigma_z[:, None]
        z_w = z / sigma_z
    else:
        design_w = design
        z_w = z
    singular = np.linalg.svd(design_w, compute_uv=False)
    if singular[-1] <= 0 or singular[0] / singular[-1] > 1e10:
        raise FitError("measurement times too close together: fit is ill conditioned")
    coef, _, _, _ = np.linalg.lstsq(design_w, z_w, rcond=None)
    c0, c1 = float(coef[0]), float(coef[1])
    beta = c1 / (8.0 * u4)
    alpha = c0 - 4.0 * u4 * beta * beta
    gram_inv = np.linalg.inv(design_w.T @ design_w)
    if not weighted:
        dof = len(t) - 2
        resid = z_w - design_w @ coef
        scale = float(resid @ resid) / dof if dof > 0 else 0.0
        gram_inv = gram_inv * scale
    jac = np.array([[1.0, -beta], [0.0, 1.0 / (8.0 * u4)]])
    cov = jac @ gram_inv @ jac.T
    return alpha, beta, cov


def fit_dispersion_curve(
    u_hat: float, series: DispersionSeries, u_stderr: float = 0.0
) -> FitOutcome:
    """Fit dx(t) = sqrt(alpha + 4 u^4 (t + beta)^2) / (2u) to the series.

    The fit itself treats u_hat as exact (the t^2 coefficient is pinned);
    when ``u_stderr`` is given, the first-order effect of that approximation
    is folded into the parameter covariance via the finite-difference
    sensitivity of (alpha, beta) to u_hat.  Needs >= 3 distinct times.
    """
    if len(series) < 3:
        raise FitError(f"need at least 3 measurement times, got {len(series)}")
    t = series.times
    dx = series.dx
    stderr = series.stderr
    alpha, beta, cov = _linear_fit(u_hat, t, dx, stderr)
    if u_stderr > 0:
        h = 1e-6 * u_hat
        a_hi, b_hi, _ = _linear_fit(u_hat + h, t, dx, stderr)
        a_lo, b_lo, _ = _linear_fit(u_hat - h, t, dx, stderr)
        grad = np.array([(a_hi - a_lo) / (2.0 * h), (b_hi - b_lo) / (2.0 * h)])
        cov = cov + np.outer(grad, grad) * u_stderr * u_stderr
    model_dx = _dispersion_curve(u_hat, alpha, np.abs(t + beta))
    residual_rms = float(np.sqrt(np.mean((model_dx - dx) ** 2)))
    return FitOutcome(
        u_hat=u_hat, alpha=alpha, beta=beta, param_cov=cov, residual_rms=residual_rms
    )


def refine_dispersion_fit(
    u_hat: float, series: DispersionSeries, start: FitOutcome
) -> tuple[float, float]:
    """Gauss-Newton refinement of (alpha, beta) on the un-squared curve.

    Cross-check path for the linear solution, weighted by the standard errors
    when every point has one; on noiseless data the two agree to better than
    1e-6.  Raises FitError when the iteration does not converge.
    """
    t = series.times
    stderr = series.stderr
    weights = 1.0 / stderr if np.all(stderr > 0) else np.ones_like(t)
    params = np.array([start.alpha, start.beta])
    for _ in range(_REFINE_MAX_ITER):
        alpha, beta = params
        if not alpha > 0:  # diverged: the model would vanish where t = -beta
            break
        shifted = t + beta
        model = _dispersion_curve(u_hat, alpha, np.abs(shifted))
        jac = np.column_stack([1.0 / (8.0 * u_hat**2 * model), u_hat**2 * shifted / model])
        step = np.linalg.lstsq(jac * weights[:, None], (series.dx - model) * weights, rcond=None)[0]
        params = params + step
        if np.all(np.abs(step) <= _REFINE_TOL * (np.abs(params) + _REFINE_TOL)):
            return float(params[0]), float(params[1])
    raise FitError("Gauss-Newton refinement of the dispersion fit did not converge")


def entanglement_width_from_alpha(alpha: float, u: float) -> float:
    """Invert the fitted alpha into the anticorrelation width b.

    b = (alpha / (u^4 (alpha - 1)))^(1/4) for alpha > 1; alpha = 1 is the
    separable limit (b = inf); alpha < 1 has no preimage in the family.
    """
    if not u > 0:
        raise DomainError(f"momentum dispersion u must be positive, got {u}")
    if alpha < 1.0:
        raise DomainError(f"alpha must be >= 1 to invert, got {alpha}")
    if alpha == 1.0:
        return math.inf
    return (alpha / (u**4 * (alpha - 1.0))) ** 0.25


def classify_blind(
    series: DispersionSeries,
    u_hat: float,
    u_stderr: float = 0.0,
    threshold_sigmas: float = 3.0,
) -> tuple[Verdict, FitOutcome]:
    """Blind verdict from a dispersion series and the measured u.

    Runs the curve fit and z-tests alpha against 1: above +threshold sigma
    -> entangled (with b and the production offset recovered from alpha and
    beta); within the band -> separable; below -threshold sigma -> alpha sits
    unphysically under the separable floor, so the run is inconclusive.
    """
    fit = fit_dispersion_curve(u_hat, series, u_stderr)
    sigma = max(fit.alpha_sigma, _SIGMA_FLOOR * max(1.0, abs(fit.alpha)))
    z = (fit.alpha - 1.0) / sigma
    if z > threshold_sigmas:
        b_hat = entanglement_width_from_alpha(fit.alpha, u_hat)
        return Verdict(ENTANGLED, b_hat, _confidence(z)), fit
    if z >= -threshold_sigmas:
        return Verdict(SEPARABLE, math.inf, 1.0 - _confidence(z)), fit
    return Verdict(INCONCLUSIVE, math.inf, 0.0), fit


# --- simulation drivers --------------------------------------------------------


def _trial_streams(seed: int, trial: int, count: int) -> list[np.random.Generator]:
    """Independent generators keyed by (seed, trial, substream index)."""
    root = np.random.SeedSequence(entropy=[int(seed), int(trial)])
    return [np.random.default_rng(child) for child in root.spawn(count)]


def measure_position_series(
    scenario: HiddenScenario,
    times,
    n_per_point: int,
    rngs: list[np.random.Generator],
) -> DispersionSeries:
    """Simulate one measurement campaign: a sub-ensemble per time point."""
    points = []
    for tm, rng in zip(times, rngs):
        samples = sample_position(scenario, float(tm), n_per_point, rng)
        dx_hat, stderr = estimate_dispersion(samples)
        points.append(SeriesPoint(float(tm), dx_hat, stderr, n_per_point))
    return DispersionSeries(tuple(points))


def exact_position_series(scenario: HiddenScenario, times) -> DispersionSeries:
    """Closed-form series (stderr = 0), for noiseless end-to-end checks."""
    times = np.asarray(times, dtype=float)
    dx = position_dispersion(times + scenario.t0, scenario.params)
    zeros = np.zeros_like(times)
    return DispersionSeries.from_arrays(times, dx, zeros, zeros)


@dataclass(frozen=True)
class BlindTrialResult:
    verdict: Verdict
    fit: FitOutcome
    series: DispersionSeries
    u_hat: float
    u_stderr: float


@dataclass(frozen=True)
class KnownOriginTrialResult:
    verdict: Verdict
    u_hat: float
    t_known: float
    dx_hat: float
    stderr: float
    predicted_separable: float


def run_blind_trial(
    scenario: HiddenScenario,
    times,
    n_samples: int,
    seed: int = 0,
    trial: int = 0,
    threshold_sigmas: float = 3.0,
    noiseless: bool = False,
) -> BlindTrialResult:
    """One full blind campaign: momentum sub-ensemble, position series, fit."""
    times = [float(tm) for tm in times]
    if noiseless:
        u_hat = momentum_dispersion(scenario.params)
        u_stderr = 0.0
        series = exact_position_series(scenario, times)
    else:
        rngs = _trial_streams(seed, trial, 1 + len(times))
        u_hat, u_stderr = estimate_dispersion(sample_momentum(scenario, n_samples, rngs[0]))
        series = measure_position_series(scenario, times, n_samples, rngs[1:])
    verdict, fit = classify_blind(series, u_hat, u_stderr, threshold_sigmas)
    return BlindTrialResult(
        verdict=verdict, fit=fit, series=series, u_hat=u_hat, u_stderr=u_stderr
    )


def run_known_origin_trial(
    scenario: HiddenScenario,
    t_meas: float,
    n_samples: int,
    seed: int = 0,
    trial: int = 0,
    tolerance_sigmas: float = 3.0,
    noiseless: bool = False,
) -> KnownOriginTrialResult:
    """One known-origin campaign; the observer knows t0, hence the lab time."""
    t_known = float(t_meas) + scenario.t0
    if noiseless:
        u_hat = momentum_dispersion(scenario.params)
        dx_hat = position_dispersion(t_known, scenario.params)
        stderr = 0.0
    else:
        rngs = _trial_streams(seed, trial, 2)
        u_hat, _ = estimate_dispersion(sample_momentum(scenario, n_samples, rngs[0]))
        samples = sample_position(scenario, float(t_meas), n_samples, rngs[1])
        dx_hat, stderr = estimate_dispersion(samples)
    verdict = classify_known_origin(u_hat, t_known, dx_hat, stderr, tolerance_sigmas)
    return KnownOriginTrialResult(
        verdict=verdict,
        u_hat=u_hat,
        t_known=t_known,
        dx_hat=dx_hat,
        stderr=stderr,
        predicted_separable=predicted_dispersion_separable(u_hat, t_known),
    )
