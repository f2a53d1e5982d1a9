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

The simulation drivers run whole batches of trials as arrays.  A trial needs
only the sample dispersion of each Gaussian sub-ensemble of n Born-rule
draws, and (n - 1) s^2 / sigma^2 is exactly chi-square distributed with
n - 1 degrees of freedom, so each sub-ensemble costs one chi-square variate
instead of n normals.  Trial k of seed s draws from its own Philox stream
keyed by (s, k) (scheme ``RNG_SCHEME``), so a trial is bit-reproducible
whatever batch it runs in.
This is the only engine: the per-sample Born-rule reference it is checked
against lives with the tests, in ``tests/born_reference.py``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, require_memory
from .states import PairParams, _curve_constants, _dispersion_curve, _fourth_power

__all__ = [
    "SEPARABLE",
    "ENTANGLED",
    "INCONCLUSIVE",
    "HiddenScenario",
    "CrossingTimes",
    "BlindBatch",
    "KnownOriginBatch",
    "RNG_SCHEME",
    "predicted_dispersion_separable",
    "predicted_dispersion_entangled",
    "entangled_alpha",
    "width_from_momentum_dispersion",
    "critical_time",
    "mimic_width",
    "ambiguity_time",
    "crossing_times",
    "entanglement_width_from_alpha",
    "run_blind_batch",
    "run_known_origin_batch",
]

SEPARABLE = "separable"
ENTANGLED = "entangled"
INCONCLUSIVE = "inconclusive"
# the verdict labels by code: 0 inconclusive, 1 separable, 2 entangled
_LABELS = np.array([INCONCLUSIVE, SEPARABLE, ENTANGLED])

# Random streams: trial k of seed s draws from Philox with key words (s, k),
# one chi-square(n - 1) variate per sub-ensemble.
RNG_SCHEME = "philox-chi2-v1"

# z-test floor so exactly noiseless fits (sigma_alpha == 0) classify sanely
_SIGMA_FLOOR = 1e-9
# the fit refuses a weighted design matrix with a larger condition number
_MAX_CONDITION = 1e10
# a batch's peak memory, in float64 words a trial: at most _BATCH_COLUMNS
# (trials, 1 + times) arrays (the draws, dx, stderr and the fit's
# temporaries) beside _BATCH_WORDS of one-per-trial results (u, alpha, beta,
# the 2 x 2 covariance, z, the confidence and the verdict labels).  The
# traced blind batches of the memory test peak at 3.8-6.8 such arrays beside
# those words, sampled or not, so the charge is 1.50-1.69 times their peak
# (2.39 times for known-origin batches).
_BATCH_COLUMNS = 12
_BATCH_WORDS = 32


def _batch_bytes(trials: int, n_times: int) -> int:
    """Bytes a batch of ``trials`` trials at ``n_times`` times holds at its peak."""
    return 8 * trials * (_BATCH_COLUMNS * (n_times + 1) + _BATCH_WORDS)


@dataclass(frozen=True)
class HiddenScenario:
    """Source-side truth: the pair parameters plus the production offset t0
    (time elapsed between pair production and the observer's first
    measurement), hidden from the blind classifier."""

    params: PairParams
    t0: float = 0.0

    def __post_init__(self) -> None:
        if self.t0 < 0:
            raise DomainError(f"production offset t0 must be nonnegative, got {self.t0}")
        if not math.isfinite(self.t0):
            raise DomainError(f"production offset t0 must be finite, got {self.t0}")


@dataclass(frozen=True)
class CrossingTimes:
    """Where the separable and offset-produced entangled curves intersect."""

    lab: float
    entangled_clock: float


# --- closed-form protocol curves ----------------------------------------------


def predicted_dispersion_separable(u: float, t: float | np.ndarray) -> float | np.ndarray:
    """Position dispersion of a separable source with momentum dispersion u,
    at scalar or array t."""
    return predicted_dispersion_entangled(u, math.inf, t)


def _inverse_ub4(u: float, b: float) -> float:
    """w = (u b)^-4 after checking u > 0, b > 0 and u*b > 1; exactly 0 once
    u*b is past the float range, and at b = inf."""
    if not u > 0:
        raise DomainError(f"momentum dispersion u must be positive, got {u}")
    if not b > 0:
        raise DomainError(f"anticorrelation width b must be positive, got {b}")
    ub = u * b
    if not ub > 1.0:
        raise DomainError(f"protocol requires u*b > 1, got u*b = {ub}")
    return ub**-4


def entangled_alpha(u: float, b: float) -> float:
    """Constant term u^4 b^4 / (u^4 b^4 - 1) of the entangled dispersion curve.

    This is the alpha the blind fit recovers for an entangled source; it
    tends to 1 as b -> inf.  Requires u*b > 1, otherwise the entangled curve
    is not defined for all t >= 0.  Taken as 1 / (1 - w) with w = (u b)^-4,
    so no power of u*b overflows.
    """
    return 1.0 / (1.0 - _inverse_ub4(u, b))


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
    if not b > 0:  # NaN fails too
        raise DomainError(f"anticorrelation width b must be positive (or math.inf), got {b}")
    inv_a2 = u * u - 1.0 / (b * b)
    if inv_a2 <= 0:
        raise DomainError(f"no packet width gives u = {u} at b = {b} (needs u*b > 1)")
    return 1.0 / math.sqrt(inv_a2)


def critical_time(u: float, b: float) -> float:
    """Timescale b^2 / (2 sqrt(u^4 b^4 - 1)) beyond which the two curves merge.

    Guidance only: past roughly this time the constant term is dominated by
    the t^2 term and the verdict loses statistical power.  Taken as
    1 / (2 u^2 sqrt(1 - w)) with w = (u b)^-4, which is 1/(2u^2) at b = inf.
    """
    return 1.0 / (2.0 * u * u * math.sqrt(1.0 - _inverse_ub4(u, b)))


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
    Taken as sqrt(w / (1 - w)) / (2 u^2) with w = (u b)^-4, which is 0 at
    b = inf.
    """
    w = _inverse_ub4(u, b)
    return math.sqrt(w / (1.0 - w)) / (2.0 * u * u)


def crossing_times(u: float, b: float, offset: float) -> CrossingTimes:
    """Intersection of a separable curve started at lab t = 0 with an entangled
    curve whose pair was produced ``offset`` later.

    Solves 1 + 4 u^4 t^2 = alpha + 4 u^4 (t - offset)^2 for the lab clock and
    also reports the same instant on a clock starting at the entangled pair's
    production.  Where u^4 overflows (u from ~1.16e77) the lab time is taken
    as (alpha - 1) / (8 u^4 offset) + offset / 2.
    """
    if not offset > 0:  # NaN fails too
        raise DomainError(f"production offset must be positive, got {offset}")
    alpha = entangled_alpha(u, b)
    u4 = _fourth_power(u)
    if math.isinf(u4):
        t_lab = (alpha - 1.0) / (8.0 * u4 * offset) + 0.5 * offset
    else:
        t_lab = (alpha - 1.0 + 4.0 * u4 * offset * offset) / (8.0 * u4 * offset)
    return CrossingTimes(lab=t_lab, entangled_clock=t_lab - offset)


# --- classification -----------------------------------------------------------
#
# The classifiers and the fit run on arrays with one entry (or row) per
# trial.


def _confidence(z: np.ndarray) -> np.ndarray:
    # math.erf never exceeds 1, so no clamp is needed
    return np.array(list(map(math.erf, (np.abs(z) / math.sqrt(2.0)).tolist())))


def _verdicts(z, entangled, separable, alpha, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classification, b_hat, confidence) arrays from the per-trial masks.

    Entangled trials invert their alpha into b; the others report b = inf.
    """
    code = np.where(entangled, 2, separable)
    confidence = _confidence(z)
    confidence = code.choose((0.0, 1.0 - confidence, confidence))
    b_hat = np.where(entangled, _width_from_alpha(alpha, u), math.inf)
    if not (np.isfinite(b_hat) == entangled).all():
        raise DomainError("b_hat must be finite exactly for entangled verdicts")
    return _LABELS[code], b_hat, confidence


def _known_origin_verdicts(u, t_known, dx, stderr, u_stderr, tolerance_sigmas):
    """(predicted, z, verdict arrays) of protocol 1 for arrays of trials.

    Each dx is compared with the separable prediction at t_known.  Within
    tolerance -> separable.  Above -> entangled, with b from the implied
    alpha = (2 u dx)^2 - 4 u^4 t^2.  Below the separable floor (implied
    alpha < 1) -> inconclusive, since no source in the family gives such a
    value.  The band combines ``stderr`` with the sampling error
    ``u_stderr`` of u, propagated through d dx_sep / du.
    """
    if not tolerance_sigmas > 0:  # NaN fails too
        raise DomainError(f"tolerance must be a positive number of sigmas, got {tolerance_sigmas}")
    if not t_known >= 0:  # NaN fails too
        raise DomainError(f"time must be nonnegative, got {t_known}")
    spread = 4.0 * u**4 * t_known * t_known
    root = np.sqrt(1.0 + spread)
    predicted = root / (2.0 * u)  # the separable curve, bit for bit as _dispersion_curve
    # d predicted / du, which carries the sampling error of u into sigma
    slope = (spread - 1.0) / (2.0 * u * u * root)
    sigma = np.maximum(np.hypot(stderr, slope * u_stderr), 1e-12 * np.maximum(1.0, dx))
    z = (dx - predicted) / sigma
    separable = np.abs(z) <= tolerance_sigmas
    alpha_implied = (2.0 * u * dx) ** 2 - spread
    entangled = ~separable & (alpha_implied >= 1.0)
    return predicted, z, _verdicts(z, entangled, separable, alpha_implied, u)


def _linear_fit(u: np.ndarray, t: np.ndarray, dx: np.ndarray, stderr: np.ndarray,
                sensitivity: bool = False):
    """Weighted linear fit of (2 u dx)^2 - 4 u^4 t^2 = c0 + c1 t, row by row.

    ``dx`` and ``stderr`` hold one row per trial, ``u`` one entry per trial,
    and the times ``t`` are shared.  Squaring turns the dispersion curve into
    a polynomial whose t^2 coefficient is fixed by u, so the two free
    parameters enter linearly and the noiseless fit is exact.  A row whose
    every point has a standard error is weighted by its propagated errors;
    any other row (a noiseless series) gets unit weights and a covariance
    scaled by its residual variance.  The 2x2 normal equations are solved
    about the weighted mean time, so their determinant S0 sum w (t - t_mean)^2
    is never formed as the cancellation S0 S2 - S1^2.  Returns (alpha, beta,
    cov(alpha, beta), grad) with one entry (2x2 block) per row; ``grad`` is
    d(alpha, beta)/du, one row per trial, when ``sensitivity`` is set and
    None otherwise (see :func:`_fit_rows`).
    """
    u = u[:, None]
    u4 = u**4
    z = (2.0 * u * dx) ** 2 - 4.0 * u4 * t * t
    weighted = (stderr > 0).all(axis=1)
    sigma_z = 8.0 * u * u * dx * stderr  # first-order error propagation of the squaring
    with np.errstate(divide="ignore"):
        w = np.where(weighted[:, None], 1.0 / (sigma_z * sigma_z), 1.0)
    s0 = w.sum(axis=1)
    t_mean = (w * t).sum(axis=1) / s0
    tc = t - t_mean[:, None]
    s_tt = (w * tc * tc).sum(axis=1)
    # condition number of the weighted design matrix [1, t]: the largest
    # eigenvalue of its Gram matrix over the root of the determinant
    s2 = s_tt + s0 * t_mean * t_mean
    lam_max = 0.5 * (s0 + s2) + np.hypot(0.5 * (s0 - s2), s0 * t_mean)
    if not (lam_max <= _MAX_CONDITION * np.sqrt(s0 * s_tt)).all():
        raise FitError("measurement times too close together: fit is ill conditioned")

    def solve(y):  # (c0, c1) of the weighted normal equations for right-hand side y
        y_mean = (w * y).sum(axis=1) / s0
        yc = y - y_mean[:, None]
        c1 = (w * tc * yc).sum(axis=1) / s_tt
        return y_mean - c1 * t_mean, c1, yc

    c0, c1, zc = solve(z)
    resid = zc - c1[:, None] * tc
    scale = np.where(weighted, 1.0, (resid * resid).sum(axis=1) / (t.size - 2))
    gain = 1.0 / (8.0 * u4[:, 0])
    beta = c1 * gain
    alpha = c0 - 4.0 * u4[:, 0] * beta * beta
    var_c1 = scale / s_tt
    lever = t_mean + beta
    cov = np.empty((alpha.size, 2, 2))
    cov[:, 0, 0] = scale / s0 + lever * lever * var_c1
    cov[:, 0, 1] = cov[:, 1, 0] = -gain * lever * var_c1
    cov[:, 1, 1] = gain * gain * var_c1
    if not sensitivity:
        return alpha, beta, cov, None
    del z, zc, resid  # so the sensitivity's arrays do not add to the fit's peak
    dc0, dc1, _ = solve(8.0 * u * dx * dx - 16.0 * u**3 * t * t)  # dz/du
    u = u[:, 0]
    dbeta = gain * dc1 - 4.0 * beta / u
    dalpha = dc0 - 16.0 * u**3 * beta * beta - 8.0 * u4[:, 0] * beta * dbeta
    return alpha, beta, cov, np.stack([dalpha, dbeta], axis=1)


def _fit_rows(u, t, dx, stderr, u_stderr):
    """(alpha, beta, param_cov, residual_rms) of every row: the fit of
    dx(t) = sqrt(alpha + 4 u^4 (t + beta)^2) / (2u) to at least 3 times.

    The fit treats u as exact (the t^2 coefficient is pinned); where
    ``u_stderr`` is positive, the first-order effect of that is folded into
    the covariance as g g^T u_stderr^2, with g = d(alpha, beta)/du in closed
    form.  (c0, c1) depend on u through z = (2 u dx)^2 - 4 u^4 t^2 alone:
    a weighted row's weights all scale as u^-4, and the fit is blind to a
    common factor of its weights (their derivative -(4/u) w multiplies the
    residuals, which the normal equations make orthogonal to [1, t]).  So
    d(c0, c1)/du is the same normal equations solved for
    dz/du = 8 u dx^2 - 16 u^3 t^2, and with beta = c1 / (8 u^4) and
    alpha = c0 - 4 u^4 beta^2,

        dbeta/du  = dc1/du / (8 u^4) - 4 beta / u,
        dalpha/du = dc0/du - 16 u^3 beta^2 - 8 u^4 beta dbeta/du.
    """
    if t.size < 3:
        raise FitError(f"need at least 3 measurement times, got {t.size}")
    alpha, beta, cov, grad = _linear_fit(u, t, dx, stderr, (u_stderr > 0).any())
    if grad is not None:
        cov = cov + grad[:, :, None] * grad[:, None, :] * (u_stderr * u_stderr)[:, None, None]
    model_dx = _dispersion_curve(u[:, None], alpha[:, None], np.abs(t + beta[:, None]))
    residual_rms = np.sqrt(((model_dx - dx) ** 2).sum(axis=1) / t.size)  # np.mean's bits
    return alpha, beta, cov, residual_rms


def entanglement_width_from_alpha(alpha: float, u: float) -> float:
    """Invert the fitted alpha into the anticorrelation width b.

    b = (alpha / (u^4 (alpha - 1)))^(1/4) for alpha > 1; alpha = 1 is the
    separable limit (b = inf); alpha < 1 has no preimage in the family.
    Scalars give a float; arrays of alpha and u give an array.
    """
    alpha = np.asarray(alpha, dtype=float)
    u = np.asarray(u, dtype=float)
    if not (u > 0).all():
        raise DomainError(f"momentum dispersion u must be positive, got {u}")
    if not (alpha >= 1.0).all():  # NaN fails too
        raise DomainError(f"alpha must be >= 1 to invert, got {alpha}")
    b = _width_from_alpha(alpha, u)
    return b if b.ndim else float(b)


def _width_from_alpha(alpha: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The b of :func:`entanglement_width_from_alpha`, entry by entry and
    unchecked: an alpha below 1 gives NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):  # alpha = 1 gives b = inf
        return np.sqrt(np.sqrt(alpha / (u**4 * (alpha - 1.0))))


def _blind_verdicts(u, alpha, alpha_sigma, threshold_sigmas):
    """(z, verdict arrays) of the blind z-test of alpha against 1: above
    +threshold sigma -> entangled; within the band -> separable; below
    -threshold sigma alpha sits unphysically under the separable floor, so
    the trial is inconclusive."""
    if not threshold_sigmas > 0:  # NaN fails too
        raise DomainError(f"threshold must be a positive number of sigmas, got {threshold_sigmas}")
    sigma = np.maximum(alpha_sigma, _SIGMA_FLOOR * np.maximum(1.0, np.abs(alpha)))
    z = (alpha - 1.0) / sigma
    entangled = z > threshold_sigmas
    separable = ~entangled & (z >= -threshold_sigmas)
    return z, _verdicts(z, entangled, separable, alpha, u)


# --- simulation drivers --------------------------------------------------------


# each thread's Generator over a Philox, made on the thread's first draw
_streams = threading.local()


def _chi2_draws(seed: int, first_trial: int, trials: int, size: int, n: int) -> np.ndarray:
    """(trials, size) chi-square(n - 1) variates; row k comes from the stream
    of trial first_trial + k alone, so it never depends on the batch, on what
    the thread drew before or on what other threads draw.

    Each thread keeps one Philox and its Generator.  Before each row, the
    Philox is reset to the fresh stream
    ``Philox(key=seed + ((first_trial + k) << 64))`` would start from
    (counter 0, key words (seed, first_trial + k), an empty buffer) by
    assigning one literal state dict of ints, so no generator is built
    per batch.  Each row is drawn as gamma((n - 1) / 2) variates straight
    into the batch, which is then doubled once: numpy's chisquare(df) is
    exactly 2 standard_gamma(df / 2), so the bits are those of
    chisquare(n - 1).
    """
    draws = np.empty((trials, size))
    generator = getattr(_streams, "generator", None)
    if generator is None:  # an integer seed reads no OS entropy
        generator = _streams.generator = np.random.Generator(np.random.Philox(0))
    key = [seed, 0]  # written in place, read by each state assignment
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    shape = (n - 1) / 2
    for row in range(trials):
        key[1] = first_trial + row
        generator.bit_generator.state = fresh
        generator.standard_gamma(shape, out=draws[row])
    draws *= 2.0
    return draws


def _trial_dispersions(scenario, times, n, seed, first_trial, trials, noiseless):
    """(u_hat, u_stderr, dx_hat, stderr) of each trial: the momentum
    sub-ensemble, then one position sub-ensemble per time, sampled or exact."""
    seed, first_trial, trials = int(seed), int(first_trial), int(trials)
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    if trials < 0:
        raise DomainError(f"number of trials must be nonnegative, got {trials}")
    if not 0 <= first_trial <= (1 << 64) - trials:
        raise DomainError(f"trial indices must lie in [0, 2^64), got first trial {first_trial}")
    if not noiseless:
        if n < 2:
            raise DomainError(f"need at least 2 samples, got {n}")
        if (times < 0).any():
            raise DomainError(f"measurement time must be nonnegative, got {times.min()}")
    require_memory(_batch_bytes(trials, times.size))
    u, alpha = _curve_constants(scenario.params)
    if math.isfinite(u) and math.isinf(_fourth_power(u)):
        # from u ~ 1.16e77, alpha is below double precision beside 4 u^4 t^2
        raise OverflowError(f"u^4 is outside the float range at u = {u}")
    sigma = np.concatenate([[u], _dispersion_curve(u, alpha, times + scenario.t0)])
    if noiseless:
        stderr = np.zeros((trials, sigma.size))
        dx = sigma + stderr  # sigma in every row
    else:
        dx = sigma * np.sqrt(_chi2_draws(seed, first_trial, trials, sigma.size, n) / (n - 1))
        stderr = dx / math.sqrt(2.0 * (n - 1))
    return dx[:, 0], stderr[:, 0], dx[:, 1:], stderr[:, 1:]


@dataclass(frozen=True)
class BlindBatch:
    """Blind campaigns of consecutive trials, one array entry (or row) per trial.

    ``dx_hat`` and ``stderr`` are (trials, times); ``n_samples`` is the
    sub-ensemble size, 0 for exact series; ``z`` is the z-score of alpha
    against 1.
    """

    times: np.ndarray
    n_samples: int
    u_hat: np.ndarray
    u_stderr: np.ndarray
    dx_hat: np.ndarray
    stderr: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    param_cov: np.ndarray
    alpha_sigma: np.ndarray
    residual_rms: np.ndarray
    z: np.ndarray
    classification: np.ndarray
    b_hat: np.ndarray
    confidence: np.ndarray

@dataclass(frozen=True)
class KnownOriginBatch:
    """Known-origin campaigns of consecutive trials, one array entry per trial.

    ``z`` is the z-score of dx_hat against the separable prediction.
    """

    t_known: float
    u_hat: np.ndarray
    u_stderr: np.ndarray
    dx_hat: np.ndarray
    stderr: np.ndarray
    predicted_separable: np.ndarray
    z: np.ndarray
    classification: np.ndarray
    b_hat: np.ndarray
    confidence: np.ndarray


def run_blind_batch(
    scenario: HiddenScenario,
    times,
    n_samples: int,
    seed: int = 0,
    first_trial: int = 0,
    trials: int = 1,
    threshold_sigmas: float = 3.0,
    noiseless: bool = False,
) -> BlindBatch:
    """Blind campaigns of trials first_trial, ..., first_trial + trials - 1;
    row k of the result is trial first_trial + k.

    Each trial estimates u from a momentum sub-ensemble and the dispersion
    from one sub-ensemble per time, then fits and classifies; all trials run
    as arrays.  Raises DomainError unless 0 <= seed < 2^64, the trial
    indices are nonnegative and the times are finite and strictly increasing.
    """
    times = np.array(times, dtype=float)
    if not np.isfinite(times).all():
        raise DomainError(f"measurement times must be finite, got {times.tolist()}")
    if (times[1:] <= times[:-1]).any():
        raise DomainError("measurement times must be strictly increasing")
    u_hat, u_stderr, dx_hat, stderr = _trial_dispersions(
        scenario, times, n_samples, seed, first_trial, trials, noiseless
    )
    alpha, beta, cov, residual_rms = _fit_rows(u_hat, times, dx_hat, stderr, u_stderr)
    alpha_sigma = np.sqrt(np.maximum(cov[:, 0, 0], 0.0))
    z, verdicts = _blind_verdicts(u_hat, alpha, alpha_sigma, threshold_sigmas)
    return BlindBatch(
        times, 0 if noiseless else n_samples, u_hat, u_stderr, dx_hat, stderr,
        alpha, beta, cov, alpha_sigma, residual_rms, z, *verdicts,
    )


def run_known_origin_batch(
    scenario: HiddenScenario,
    t_meas: float,
    n_samples: int,
    seed: int = 0,
    first_trial: int = 0,
    trials: int = 1,
    tolerance_sigmas: float = 3.0,
    noiseless: bool = False,
) -> KnownOriginBatch:
    """Known-origin campaigns of trials first_trial, ..., first_trial + trials - 1.

    The observer knows t0, hence the lab time; the verdict propagates the
    sampling error of u_hat.  Same stream and range rules as
    :func:`run_blind_batch`.
    """
    if not math.isfinite(t_meas):
        raise DomainError(f"measurement time must be finite, got {t_meas}")
    t_known = float(t_meas) + scenario.t0
    u_hat, u_stderr, dx_hat, stderr = _trial_dispersions(
        scenario, np.array([float(t_meas)]), n_samples, seed, first_trial, trials, noiseless
    )
    dx_hat, stderr = dx_hat[:, 0], stderr[:, 0]
    predicted, z, verdicts = _known_origin_verdicts(
        u_hat, t_known, dx_hat, stderr, u_stderr, tolerance_sigmas
    )
    return KnownOriginBatch(t_known, u_hat, u_stderr, dx_hat, stderr, predicted, z, *verdicts)
