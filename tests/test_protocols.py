"""Measurement protocols: curves, timing, estimation, fits and verdicts."""

import decimal
import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from born_reference import (
    estimate_dispersion,
    measure_position_series,
    refine_dispersion_fit,
    sample_momentum,
    sample_position,
)
from localent.errors import DomainError, FitError
from localent.protocols import (
    HiddenScenario,
    ambiguity_time,
    critical_time,
    crossing_times,
    entangled_alpha,
    entanglement_width_from_alpha,
    mimic_width,
    predicted_dispersion_entangled,
    predicted_dispersion_separable,
    run_blind_batch,
    run_known_origin_batch,
    width_from_momentum_dispersion,
)
import localent.protocols
from localent.protocols import _chi2_draws, _fit_rows, _linear_fit
from localent.states import PairParams, momentum_dispersion, position_dispersion
from one_trial import (
    classify_blind,
    classify_known_origin,
    fit_series,
    run_blind_trial,
    run_known_origin_trial,
)

INF = math.inf

# reference scenario used throughout: u = 1.01 exactly, b = 1
U_REF = 1.01
B_REF = 1.0
KAPPA_REF = 25.62810939116603


def entangled_scenario(t0=0.0, k_c=0.0):
    a = width_from_momentum_dispersion(U_REF, B_REF)
    return HiddenScenario(PairParams(a=a, b=B_REF, k_c=k_c), t0=t0)


def separable_scenario(t0=0.0, k_c=0.0):
    return HiddenScenario(PairParams(a=1.0 / U_REF, b=INF, k_c=k_c), t0=t0)


def exact_series(scenario, times):
    """(times, dx, stderr) of the closed-form dispersions, stderr = 0."""
    times = np.array(times, dtype=float)
    return times, position_dispersion(times + scenario.t0, scenario.params), np.zeros_like(times)


# --- closed-form curves and timing ---------------------------------------------


def test_separable_curve_values():
    assert predicted_dispersion_separable(1.0, 0.0) == 0.5
    assert predicted_dispersion_separable(2.0, 1.0) == pytest.approx(
        math.sqrt(65.0) / 4.0, rel=1e-12
    )
    t_c = critical_time(U_REF, B_REF)
    assert predicted_dispersion_separable(U_REF, t_c) == pytest.approx(
        2.5545758179850226, rel=1e-10
    )


def test_entangled_curve_values():
    assert entangled_alpha(U_REF, B_REF) == pytest.approx(KAPPA_REF, rel=1e-12)
    assert predicted_dispersion_entangled(U_REF, B_REF, 0.0) == pytest.approx(
        2.5061491570698897, rel=1e-12
    )
    assert predicted_dispersion_entangled(U_REF, B_REF, 1.0) == pytest.approx(
        2.7020147293236794, rel=1e-12
    )


def test_entangled_curve_limits_and_domain():
    for t in np.linspace(0.0, 10.0, 21):
        sep = predicted_dispersion_separable(U_REF, t)
        ent = predicted_dispersion_entangled(U_REF, 1e6, t)
        assert abs(ent - sep) <= 1e-10 * sep
    with pytest.raises(DomainError):
        predicted_dispersion_entangled(1.0, 1.0, 0.0)  # u*b = 1
    with pytest.raises(DomainError):
        entangled_alpha(0.5, 1.0)


def test_curves_match_state_family():
    # predicted curves are the family's dispersions under u = sqrt(f1)/a
    for u, b in [(1.01, 1.0), (1.5, 2.0), (0.9, 5.0)]:
        a = width_from_momentum_dispersion(u, b)
        p_ent = PairParams(a=a, b=b)
        assert momentum_dispersion(p_ent) == pytest.approx(u, rel=1e-12)
        p_sep = PairParams(a=1.0 / u, b=INF)
        for t in (0.0, 0.7, 2.3):
            assert predicted_dispersion_entangled(u, b, t) == pytest.approx(
                position_dispersion(t, p_ent), rel=1e-12
            )
            assert predicted_dispersion_separable(u, t) == pytest.approx(
                position_dispersion(t, p_sep), rel=1e-12
            )


def test_curves_accept_time_arrays():
    times = np.array([0.0, 0.3, 1.7, 12.0])
    params = PairParams(a=0.8, b=2.0)
    curves = [
        lambda t: position_dispersion(t, params),
        lambda t: predicted_dispersion_separable(U_REF, t),
        lambda t: predicted_dispersion_entangled(U_REF, B_REF, t),
    ]
    for curve in curves:
        scalars = [curve(float(t)) for t in times]
        assert all(type(value) is float for value in scalars)
        assert curve(times).tolist() == scalars
        with pytest.raises(DomainError):
            curve(np.array([0.0, 1.0, -1e-9]))


def test_critical_time():
    assert critical_time(U_REF, B_REF) == pytest.approx(2.4813357990790985, rel=1e-10)
    assert critical_time(1.1, 1.0) == pytest.approx(0.7339461896251278, rel=1e-10)
    # shrinks like 1/(2u^2) as u grows at fixed b
    assert critical_time(100.0, 1.0) == pytest.approx(1.0 / (2.0 * 100.0**2), rel=1e-3)
    with pytest.raises(DomainError):
        critical_time(0.5, 1.0)


def _closed_forms_in_decimal(u: float, b: float) -> tuple[float, float, float]:
    """(entangled_alpha, critical_time, ambiguity_time) in 60-digit decimal
    arithmetic from the same floats u and b."""
    if math.isinf(b):
        return 1.0, 1.0 / (2.0 * u * u), 0.0
    with decimal.localcontext(decimal.Context(prec=60)):
        u, b = decimal.Decimal(u), decimal.Decimal(b)
        ub4 = (u * b) ** 4
        root = (ub4 - 1).sqrt()
        return (float(ub4 / (ub4 - 1)), float(b * b / (2 * root)),
                float(1 / (2 * u * u * root)))


@pytest.mark.parametrize("u", np.geomspace(1e-2, 1e2, 9).tolist())
def test_closed_forms_hold_over_the_whole_range_of_u_times_b(u):
    for ub in [*np.geomspace(1.01, 1e60, 61).tolist(), INF]:
        b = ub / u
        got = (entangled_alpha(u, b), critical_time(u, b), ambiguity_time(u, b))
        for value, want in zip(got, _closed_forms_in_decimal(u, b)):
            assert abs(value - want) <= 1e-13 * want, (u, b)


@pytest.mark.parametrize("ub", [1e80, 1e200, INF])
@pytest.mark.parametrize("u", [1e-2, 1.0, 1e2])
def test_closed_forms_reach_their_separable_limits_without_overflow(u, ub):
    # (u b)^4 overflows past u b ~ 1e77; the closed forms do not form it
    b = ub / u
    assert entangled_alpha(u, b) == 1.0
    assert critical_time(u, b) == 1.0 / (2.0 * u * u)


def test_mimic_width():
    assert mimic_width(1.0) == 1.0
    assert mimic_width(2.0) == 0.5
    p_ent = PairParams(a=1.0, b=2.0)
    u = momentum_dispersion(p_ent)
    a_prime = mimic_width(u)
    assert a_prime == pytest.approx(0.8944271909999159, rel=1e-12)
    mimic = momentum_dispersion(PairParams(a=a_prime, b=INF))
    assert mimic == pytest.approx(momentum_dispersion(p_ent), rel=1e-12)


def test_ambiguity_time_value_and_matching_condition():
    t_amb = ambiguity_time(U_REF, B_REF)
    assert t_amb == pytest.approx(2.432443681089205, rel=1e-10)
    # both marginal widths of the tuned separable state match the entangled
    # source at production ...
    dx_sep = predicted_dispersion_separable(U_REF, t_amb)
    dx_ent = predicted_dispersion_entangled(U_REF, B_REF, 0.0)
    assert abs(dx_sep - dx_ent) < 1e-12
    # ... which is the inverse-variance matching condition of the two densities
    a = width_from_momentum_dispersion(U_REF, B_REF)
    a_prime = mimic_width(U_REF)
    p_sep = PairParams(a=a_prime, b=INF)
    lhs = 2.0 * (1.0 + 2.0 * (a / B_REF) ** 2) / (a * a * (1.0 + (a / B_REF) ** 2))
    rhs = (2.0 / a_prime**2) / (1.0 + (2.0 * t_amb / p_sep.a**2) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # mismatch strictly away from the ambiguity time
    for factor in (0.9, 1.1):
        off = predicted_dispersion_separable(U_REF, factor * t_amb)
        assert abs(off - dx_ent) > 1e-2
    assert ambiguity_time(2.0, 1e9) < 1e-9  # -> 0 as u*b -> inf


def test_crossing_times():
    crossing = crossing_times(U_REF, B_REF, 1.0)
    assert crossing.lab == pytest.approx(3.458391130835402, rel=1e-10)
    assert crossing.entangled_clock == pytest.approx(2.458391130835402, rel=1e-10)
    # both curves really intersect there
    lhs = predicted_dispersion_separable(U_REF, crossing.lab)
    rhs = predicted_dispersion_entangled(U_REF, B_REF, crossing.entangled_clock)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # equal-origin curves never cross; tiny offset pushes it far out
    assert crossing_times(U_REF, B_REF, 1e-6).lab > 1e6
    # separable-limit entangled twin crosses at half the offset
    assert crossing_times(U_REF, 1e6, 2.0).lab == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(DomainError):
        crossing_times(U_REF, B_REF, 0.0)


def test_asymptotic_indistinguishability():
    for u, b in [(1.01, 1.0), (1.5, 1.0), (1.2, 3.0)]:
        t = 100.0 * critical_time(u, b)
        ratio = predicted_dispersion_entangled(u, b, t) / predicted_dispersion_separable(u, t)
        assert ratio - 1.0 < 1e-4
        assert ratio > 1.0


def test_width_inversion_round_trip():
    assert entanglement_width_from_alpha(entangled_alpha(U_REF, B_REF), U_REF) == pytest.approx(
        1.0, rel=1e-12
    )
    assert entanglement_width_from_alpha(1.0, 0.7) == INF
    assert entanglement_width_from_alpha(2.0, 1.0) == pytest.approx(1.189207115002721, rel=1e-12)
    assert entangled_alpha(1.0, 1.189207115002721) == pytest.approx(2.0, rel=1e-10)
    with pytest.raises(DomainError):
        entanglement_width_from_alpha(0.99, 1.0)


@given(
    u=st.floats(min_value=0.1, max_value=10.0),
    ub=st.floats(min_value=1.001, max_value=30.0),
)
@settings(max_examples=200, deadline=None)
def test_inversion_round_trip_property(u, ub):
    b = ub / u
    assert entanglement_width_from_alpha(entangled_alpha(u, b), u) == pytest.approx(
        b, rel=1e-10
    )


@pytest.mark.parametrize("ub", [50.0, 200.0, 1000.0])
def test_inversion_round_trip_large_ub(ub):
    # alpha - 1 ~ (u b)^-4 cancels against 1.0, so double precision caps the
    # achievable round-trip accuracy at ~eps * (u b)^4 / 4
    u = 1.3
    b = ub / u
    recovered = entanglement_width_from_alpha(entangled_alpha(u, b), u)
    bound = max(1e-10, 8.0 * np.finfo(float).eps * ub**4)
    assert abs(recovered - b) / b <= bound


# --- sampling and estimation ----------------------------------------------------


def test_sample_momentum_statistics():
    rng = np.random.default_rng(11)
    scen = HiddenScenario(PairParams(a=1.0, b=2.0, k_c=5.0))
    draws = sample_momentum(scen, 1_000_000, rng)
    std, stderr = estimate_dispersion(draws)
    assert abs(std - math.sqrt(1.25)) <= 3.0 * stderr
    assert draws.mean() == pytest.approx(5.0, abs=0.005)


def test_sample_position_statistics():
    rng = np.random.default_rng(12)
    scen = HiddenScenario(PairParams(a=1.0, b=2.0))
    draws = sample_position(scen, 1.0, 500_000, rng)
    std, stderr = estimate_dispersion(draws)
    assert abs(std - 1.20761472884912) <= 3.0 * stderr
    plain = HiddenScenario(PairParams(a=1.0, b=INF))
    std, stderr = estimate_dispersion(sample_position(plain, 0.0, 500_000, rng))
    assert abs(std - 0.5) <= 3.0 * stderr


def test_only_elapsed_time_enters_position_sampling():
    p = PairParams(a=1.0, b=2.0, k_c=0.3)
    early = sample_position(HiddenScenario(p, t0=1.0), 0.0, 1000, np.random.default_rng(5))
    late = sample_position(HiddenScenario(p, t0=0.0), 1.0, 1000, np.random.default_rng(5))
    assert np.array_equal(early, late)


def test_estimate_dispersion():
    dx, stderr = estimate_dispersion(np.array([-1.0, 1.0]))
    assert dx == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert stderr == pytest.approx(math.sqrt(2.0) / math.sqrt(2.0), rel=1e-14)
    with pytest.raises(DomainError):
        estimate_dispersion(np.array([0.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        estimate_dispersion(np.array([1.0]))
    rng = np.random.default_rng(13)
    dx, stderr = estimate_dispersion(rng.normal(0.0, 1.0, size=1_000_000))
    assert stderr == pytest.approx(0.000707, abs=2e-5)
    assert abs(dx - 1.0) <= 3.0 * stderr


def test_estimator_coverage():
    rng = np.random.default_rng(20250811)
    samples = rng.normal(0.0, 1.0, size=(1000, 1000))
    s = samples.std(axis=1, ddof=1)
    stderr = s / math.sqrt(2.0 * (1000 - 1))
    covered = np.mean((s - 1.96 * stderr <= 1.0) & (1.0 <= s + 1.96 * stderr))
    assert 0.93 <= covered <= 0.97


def test_scenario_validation():
    with pytest.raises(DomainError):
        HiddenScenario(PairParams(a=1.0, b=2.0), t0=-0.5)


@pytest.mark.parametrize("t0", [math.nan, math.inf])
def test_non_finite_production_offset_is_rejected(t0):
    with pytest.raises(DomainError, match="t0 must be finite"):
        HiddenScenario(PairParams(a=1.0, b=2.0), t0=t0)


@pytest.mark.parametrize(
    "call,named",
    [
        (lambda: width_from_momentum_dispersion(1.0, math.nan), "width b must be positive"),
        (lambda: entanglement_width_from_alpha(math.nan, 1.0), "alpha must be >= 1"),
        (lambda: crossing_times(1.2, 1.0, math.nan), "offset must be positive"),
        (lambda: position_dispersion(math.nan, PairParams(a=1.0, b=2.0)), "time must be"),
    ],
)
def test_closed_forms_reject_nan_naming_the_argument(call, named):
    with pytest.raises(DomainError, match=f"{named}.*got nan"):
        call()


# --- curve fit -------------------------------------------------------------------


def test_fit_noiseless_separable():
    series = exact_series(separable_scenario(t0=0.5), [0.0, 1.0, 2.0])
    fit = fit_series(momentum_dispersion(separable_scenario().params), *series)
    assert fit.alpha == pytest.approx(1.0, abs=1e-8)
    assert fit.beta == pytest.approx(0.5, abs=1e-8)
    assert fit.residual_rms < 1e-12


def test_fit_noiseless_separable_u1():
    scen = HiddenScenario(PairParams(a=1.0, b=INF), t0=0.5)
    fit = fit_series(1.0, *exact_series(scen, [0.0, 1.0, 2.0]))
    assert fit.alpha == pytest.approx(1.0, abs=1e-8)
    assert fit.beta == pytest.approx(0.5, abs=1e-8)


def test_fit_noiseless_entangled():
    series = exact_series(entangled_scenario(t0=0.0), [0.0, 0.5, 1.0])
    fit = fit_series(U_REF, *series)
    assert fit.alpha == pytest.approx(KAPPA_REF, rel=1e-6)
    assert fit.beta == pytest.approx(0.0, abs=1e-6)


def test_fit_grid_independence():
    # unbiased on noiseless data regardless of the time grid
    for times in ([0.0, 0.3, 2.9], [0.1, 0.2, 0.4, 0.8, 1.6], [1.0, 2.0, 3.0, 4.0]):
        series = exact_series(entangled_scenario(t0=0.7), times)
        fit = fit_series(U_REF, *series)
        assert fit.alpha == pytest.approx(KAPPA_REF, rel=1e-6)
        assert fit.beta == pytest.approx(0.7, abs=1e-6)


def test_fit_requires_three_distinct_times():
    series = exact_series(separable_scenario(), [0.0, 1.0])
    with pytest.raises(FitError):
        fit_series(U_REF, *series)


def test_fit_ill_conditioned_times():
    t0 = 1.0
    times = [t0, t0 + 5e-16, t0 + 1e-15]
    dx = [predicted_dispersion_separable(U_REF, t) for t in times]
    with pytest.raises(FitError):
        fit_series(U_REF, times, np.maximum(dx, 1e-12), np.zeros(len(times)))


def test_refinement_agrees_with_linear_fit():
    series = exact_series(entangled_scenario(t0=1.0), [0.0, 0.5, 1.0, 1.5])
    fit = fit_series(U_REF, *series)
    alpha, beta = refine_dispersion_fit(U_REF, *series, fit.alpha, fit.beta)
    assert abs(alpha - fit.alpha) < 1e-6 * max(1.0, abs(fit.alpha))
    assert abs(beta - fit.beta) < 1e-6


def test_refinement_on_sampled_series():
    # every point carries a standard error, so the refinement is weighted
    result = run_blind_trial(
        entangled_scenario(t0=0.5), [0.0, 0.3, 0.6, 0.9, 1.2], n_samples=10_000, seed=11
    )
    fit = result.fit
    series = (result.times, result.dx_hat, result.stderr)
    assert np.all(result.stderr > 0)
    alpha, beta = refine_dispersion_fit(result.u_hat, *series, fit.alpha, fit.beta)
    assert abs(alpha - fit.alpha) < 2.0 * fit.alpha_sigma
    assert abs(beta - fit.beta) < 2.0 * math.sqrt(fit.param_cov[1, 1])
    with pytest.raises(FitError):  # a start with alpha <= 0 has no model to refine
        refine_dispersion_fit(result.u_hat, *series, -1.0, fit.beta)


def test_fit_u_uncertainty_inflates_alpha_sigma():
    rng_times = np.linspace(0.0, 2.4, 5).tolist()
    dx, stderr = measure_position_series(
        entangled_scenario(t0=0.5),
        rng_times,
        5000,
        [np.random.default_rng(i) for i in range(5)],
    )
    tight = fit_series(U_REF, rng_times, dx, stderr, u_stderr=0.0)
    loose = fit_series(U_REF, rng_times, dx, stderr, u_stderr=0.01)
    assert loose.alpha_sigma > tight.alpha_sigma
    assert loose.alpha == tight.alpha  # only the covariance changes


@pytest.mark.parametrize("rows", ["weighted", "unweighted", "mixed"])
@pytest.mark.parametrize("u", [0.1, 1.01, 10.0])
def test_u_sensitivity_matches_a_central_difference(u, rows):
    # the closed-form d(alpha, beta)/du against a 4th-order central
    # difference of the fit itself, on sampled series at u b = 2 whose times
    # span the critical time; unweighted rows keep the noisy dx
    b = 2.0 / u
    t_c = critical_time(u, b)
    scenario = HiddenScenario(PairParams(a=width_from_momentum_dispersion(u, b), b=b),
                              t0=0.5 * t_c)
    times = t_c * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    batch = run_blind_batch(scenario, times, 1000, seed=7, trials=4)
    weighted = {"weighted": [True] * 4, "unweighted": [False] * 4,
                "mixed": [True, False, True, False]}[rows]
    stderr = np.where(np.array(weighted)[:, None], batch.stderr, 0.0)
    u_hat, dx = batch.u_hat, batch.dx_hat
    grad = _linear_fit(u_hat, times, dx, stderr, sensitivity=True)[3]
    h = 1e-3 * u_hat
    fit = {k: np.stack(_fit_rows(u_hat + k * h, times, dx, stderr, np.zeros(4))[:2], axis=1)
           for k in (-2, -1, 1, 2)}
    central = (fit[-2] - 8.0 * fit[-1] + 8.0 * fit[1] - fit[2]) / (12.0 * h[:, None])
    np.testing.assert_allclose(grad, central, rtol=1e-8, atol=0)
    # the fit folds the sensitivity into the covariance as g g^T u_stderr^2
    cov = _fit_rows(u_hat, times, dx, stderr, np.zeros(4))[2]
    folded = cov + central[:, :, None] * central[:, None, :] * batch.u_stderr[:, None, None] ** 2
    np.testing.assert_allclose(_fit_rows(u_hat, times, dx, stderr, batch.u_stderr)[2], folded,
                               rtol=1e-8, atol=0)


# --- known-origin protocol -------------------------------------------------------


def test_known_origin_noiseless_separable():
    verdict = classify_known_origin(1.0, 1.0, math.sqrt(5.0) / 2.0, 0.0)
    assert verdict.classification == "separable"
    assert verdict.b_hat == INF


def test_known_origin_noiseless_entangled_round_trip():
    dx = predicted_dispersion_entangled(U_REF, B_REF, 1.0)
    verdict = classify_known_origin(U_REF, 1.0, dx, 0.0)
    assert verdict.classification == "entangled"
    assert verdict.b_hat == pytest.approx(1.0, rel=1e-10)


def test_known_origin_inconclusive_below_floor():
    predicted = predicted_dispersion_separable(U_REF, 1.0)
    verdict = classify_known_origin(U_REF, 1.0, 0.5 * predicted, 1e-6)
    assert verdict.classification == "inconclusive"


def test_known_origin_monte_carlo():
    hits = sum(
        run_known_origin_trial(
            entangled_scenario(), t_meas=1.0, n_samples=10_000, seed=42, trial=k
        ).verdict.classification
        == "entangled"
        for k in range(100)
    )
    assert hits >= 99
    # the tolerance band covers the position and momentum sampling errors,
    # so the separable side sits near the nominal 3-sigma rate
    hits = sum(
        run_known_origin_trial(
            separable_scenario(), t_meas=1.0, n_samples=10_000, seed=43, trial=k
        ).verdict.classification
        == "separable"
        for k in range(100)
    )
    assert hits >= 95


# --- blind protocol --------------------------------------------------------------


def test_blind_noiseless_entangled():
    result = run_blind_trial(
        entangled_scenario(t0=1.0), [0.0, 0.5, 1.0, 1.5], n_samples=0, noiseless=True
    )
    assert result.verdict.classification == "entangled"
    assert result.verdict.b_hat == pytest.approx(1.0, rel=1e-6)
    assert result.fit.alpha == pytest.approx(KAPPA_REF, rel=1e-6)
    assert result.fit.beta == pytest.approx(1.0, abs=1e-6)  # recovers t0


def test_blind_noiseless_separable():
    result = run_blind_trial(
        HiddenScenario(PairParams(a=1.0, b=INF), t0=2.0),
        [0.0, 1.0, 2.0],
        n_samples=0,
        noiseless=True,
    )
    assert result.verdict.classification == "separable"
    assert result.fit.alpha == pytest.approx(1.0, abs=1e-8)
    assert result.fit.beta == pytest.approx(2.0, abs=1e-8)


def test_blind_monte_carlo_quick():
    times = np.linspace(0.0, critical_time(U_REF, B_REF), 5).tolist()
    correct = sum(
        run_blind_trial(
            entangled_scenario(t0=0.5), times, n_samples=10_000, seed=303, trial=k
        ).verdict.classification
        == "entangled"
        for k in range(50)
    )
    assert correct >= 47
    false_entangled = sum(
        run_blind_trial(
            separable_scenario(t0=0.5), times, n_samples=10_000, seed=404, trial=k
        ).verdict.classification
        == "entangled"
        for k in range(50)
    )
    assert false_entangled <= 2


def test_blind_inconclusive_below_separable_floor():
    # dispersions systematically below every curve in the family: alpha << 1
    times = [0.0, 1.0, 2.0]
    dx = [0.8 * predicted_dispersion_separable(1.0, t) for t in times]
    verdict, fit = classify_blind(1.0, times, dx, [0.001] * len(times))
    assert fit.alpha < 1.0  # below the separable floor
    assert verdict.classification == "inconclusive"
    assert verdict.b_hat == INF


def test_blind_trial_reproducible_by_seed_and_trial():
    times = [0.0, 1.0, 2.0]
    first = run_blind_trial(entangled_scenario(), times, 2000, seed=9, trial=4)
    second = run_blind_trial(entangled_scenario(), times, 2000, seed=9, trial=4)
    assert first.fit.alpha == second.fit.alpha
    assert first.u_hat == second.u_hat
    assert np.array_equal(first.dx_hat, second.dx_hat)
    other = run_blind_trial(entangled_scenario(), times, 2000, seed=9, trial=5)
    assert other.fit.alpha != first.fit.alpha


def test_entangled_verdicts_need_a_finite_width():
    # far above the separable curve, but u^4 underflows, so alpha = 4
    # inverts to b = inf: no entangled verdict carries an infinite width
    with pytest.raises(DomainError, match="b_hat must be finite"):
        classify_known_origin(1e-100, 0.0, 1e100, 1.0)


# --- batched engine ----------------------------------------------------------------


def _ks_statistic(x, y):
    """Two-sample Kolmogorov-Smirnov distance between the empirical CDFs."""
    pooled = np.sort(np.concatenate([x, y]))
    cdf_x = np.searchsorted(np.sort(x), pooled, side="right") / x.size
    cdf_y = np.searchsorted(np.sort(y), pooled, side="right") / y.size
    return float(np.max(np.abs(cdf_x - cdf_y)))


def test_chi2_dispersions_match_born_reference():
    # n = 20 is far from the large-n regime, so the exact chi-square law shows
    n, trials, t_meas = 20, 4000, 0.7
    scenario = entangled_scenario(t0=0.3, k_c=0.8)
    batch = run_known_origin_batch(scenario, t_meas, n, seed=2024, trials=trials)
    rng = np.random.default_rng(2025)
    born_u = np.array([estimate_dispersion(sample_momentum(scenario, n, rng))[0]
                       for _ in range(trials)])
    born_dx = np.array([estimate_dispersion(sample_position(scenario, t_meas, n, rng))[0]
                        for _ in range(trials)])
    ks_critical = 1.95 * math.sqrt(2.0 / trials)  # two-sample KS at the 0.1% level
    assert _ks_statistic(batch.u_hat, born_u) < ks_critical
    assert _ks_statistic(batch.dx_hat, born_dx) < ks_critical
    # E[s^2] = sigma^2, with Var(s^2 / sigma^2) = 2 / (n - 1)
    tolerance = 4.0 * math.sqrt(2.0 / (n - 1) / trials)
    sigma_u = momentum_dispersion(scenario.params)
    sigma_x = position_dispersion(t_meas + scenario.t0, scenario.params)
    assert abs(np.mean(batch.u_hat**2) / sigma_u**2 - 1.0) < tolerance
    assert abs(np.mean(batch.dx_hat**2) / sigma_x**2 - 1.0) < tolerance
    assert np.array_equal(batch.stderr, batch.dx_hat / math.sqrt(2.0 * (n - 1)))


@pytest.mark.parametrize("trial", [0, 5, 150])
def test_trials_are_bit_identical_whatever_the_batch(trial):
    times = [0.0, 0.6, 1.2, 1.9]
    scenario = entangled_scenario(t0=0.5)
    alone = run_blind_batch(scenario, times, 10_000, seed=77, first_trial=trial, trials=1)
    start = max(trial - 3, 0)
    seven = run_blind_batch(scenario, times, 10_000, seed=77, first_trial=start, trials=7)
    many = run_blind_batch(scenario, times, 10_000, seed=77, first_trial=0, trials=200)
    for batch, row in ((seven, trial - start), (many, trial)):
        for field in ("u_hat", "u_stderr", "dx_hat", "stderr", "alpha", "beta", "param_cov",
                      "alpha_sigma", "residual_rms", "z", "classification", "b_hat",
                      "confidence"):
            assert np.array_equal(getattr(batch, field)[row], getattr(alone, field)[0]), field
    single = run_blind_trial(scenario, times, 10_000, seed=77, trial=trial)
    assert single.fit.alpha == alone.alpha[0]
    assert single.dx_hat.tolist() == alone.dx_hat[0].tolist()

    known = run_known_origin_batch(scenario, 1.0, 10_000, seed=78, first_trial=start, trials=7)
    one = run_known_origin_trial(scenario, 1.0, 10_000, seed=78, trial=trial)
    assert (one.u_hat, one.dx_hat) == (known.u_hat[trial - start], known.dx_hat[trial - start])


def _batch_bits(seed, first_trial):
    """The bytes of every array of a blind and a known-origin batch."""
    scenario = entangled_scenario(t0=0.5)
    run = {"seed": seed, "first_trial": first_trial, "trials": 40}
    batches = (run_blind_batch(scenario, [0.0, 0.6, 1.2], 10_000, **run),
               run_known_origin_batch(scenario, 0.6, 10_000, **run))
    return [np.asarray(value).tobytes() for batch in batches for value in vars(batch).values()]


def _run_threads(targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()


def test_batches_are_bit_identical_whatever_their_thread_drew_before_or_beside():
    # each thread keeps one generator.  The reference is each batch alone in
    # a fresh thread; then more threads than cores run every batch at once,
    # in turns, with the interpreter switching threads as often as it can
    keys = [(7, 0), (7, 5), (2**64 - 1, 2**32), (123_456_789, 40), (0, 2**64 - 40),
            (1, 1), (99, 7), (2**63, 3)]
    alone, results = [None] * len(keys), [None] * len(keys)

    def reference(index):
        alone[index] = _batch_bits(*keys[index])

    def worker(index):
        turns = keys[index:] + keys[:index]
        results[index] = [(key, _batch_bits(*key)) for key in turns + turns]

    for index in range(len(keys)):
        _run_threads([functools.partial(reference, index)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads([functools.partial(worker, index) for index in range(len(keys))])
    finally:
        sys.setswitchinterval(interval)
    for runs in results:
        assert len(runs) == 2 * len(keys)
        for key, bits in runs:
            assert bits == alone[keys.index(key)], key
    assert [_batch_bits(*key) for key in keys] == alone  # this thread has drawn before


@pytest.mark.parametrize("noiseless", [False, True])
def test_param_cov_off_diagonals_are_bitwise_equal(noiseless):
    # the CLI renders one of them for both leaves
    scenario = entangled_scenario(t0=0.5)
    batch = run_blind_batch(scenario, [0.0, 0.6, 1.2, 1.9], 100, seed=3, trials=200,
                            noiseless=noiseless)
    assert noiseless or np.all(batch.u_stderr > 0)  # the sampled fit adds u's outer product
    assert batch.param_cov[:, 0, 1].tobytes() == batch.param_cov[:, 1, 0].tobytes()


def test_noiseless_batches_draw_nothing(monkeypatch):
    def no_streams(*args, **kwargs):
        raise AssertionError("a noiseless run drew random numbers")

    # a fresh per-thread store: a batch that draws has to build its generator
    monkeypatch.setattr(localent.protocols, "_streams", threading.local())
    monkeypatch.setattr(np.random, "Philox", no_streams)
    blind = run_blind_batch(entangled_scenario(t0=1.0), [0.0, 0.5, 1.0], 0, trials=3,
                            noiseless=True)
    assert set(blind.classification) == {"entangled"}
    assert blind.n_samples == 0 and not blind.stderr.any()
    known = run_known_origin_batch(separable_scenario(), 1.0, 0, trials=2, noiseless=True)
    assert set(known.classification) == {"separable"}


@pytest.mark.parametrize("times", [[0.0, 1.0, 2.0], [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]])
@pytest.mark.parametrize("noiseless", [False, True])
def test_memory_check_charges_the_traced_peak_of_a_batch(monkeypatch, times, noiseless):
    # a batch holds the draws, dx, stderr and the fit's (trials, 1 + times)
    # arrays at once, and the check charges all of them
    trials = 4000
    charged = []
    require_memory = localent.protocols.require_memory

    def spy(nbytes):
        charged.append(nbytes)
        require_memory(nbytes)

    monkeypatch.setattr(localent.protocols, "require_memory", spy)
    scenario = entangled_scenario(t0=0.5)
    run_blind_batch(scenario, times, 100, trials=2)  # one-time imports, untraced
    for run in (lambda: run_blind_batch(scenario, times, 100, trials=trials, noiseless=noiseless),
                lambda: run_known_origin_batch(scenario, times[1], 100, trials=trials,
                                               noiseless=noiseless)):
        charged.clear()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= max(charged) <= 3 * peak


@pytest.mark.parametrize(
    "seed, first_trial, trials",
    [(-1, 0, 1), (2**64, 0, 1), (0, -1, 1), (0, 0, -3), (0, 2**64 - 1, 2)],
)
def test_stream_keys_out_of_range(seed, first_trial, trials):
    with pytest.raises(DomainError):
        run_blind_batch(separable_scenario(), [0.0, 1.0, 2.0], 100, seed=seed,
                        first_trial=first_trial, trials=trials)


@pytest.mark.parametrize(
    "seed, first_trial, trials",
    [(2**64 - 1, 0, 3), (5, 2**64 - 4, 4), (2**64 - 1, 2**64 - 2, 2), (9, 2**32 + 5, 3)],
)
def test_stream_keys_at_their_edges(seed, first_trial, trials):
    # n = 2 is gamma shape 0.5, another branch of numpy's sampler
    for n in (2, 3, 500, 10**4, 10**6):
        draws = _chi2_draws(seed, first_trial, trials, 4, n)
        for row in range(trials):
            stream = np.random.Philox(key=seed + ((first_trial + row) << 64))
            want = np.random.Generator(stream).chisquare(n - 1, size=4)
            assert np.array_equal(draws[row], want)


# _chi2_draws(7, 2**64 - 2, 2, 4, n), row by row, as float.hex: numpy may
# change a Generator method's stream in a release (NEP 19), and these bits
# are what RNG_SCHEME's label stands for.  n = 2 and 3 take the sampler's
# shape < 1 and shape = 1 branches
PINNED_CHI2_DRAWS = {
    2: [["0x1.0619544380e4ap-1", "0x1.0cb32f4820538p-1", "0x1.bba7533833515p-4",
         "0x1.15c8c0a3e0b42p-1"],
        ["0x1.8afc50b19bf0cp+0", "0x1.0c2be8b23a746p+1", "0x1.10f992101a88dp+1",
         "0x1.40d86e08f9a19p-1"]],
    3: [["0x1.f26a23ca50b46p+2", "0x1.69ffcb19c4ccfp-1", "0x1.545cb16a3e3a6p-2",
         "0x1.261bae83027b0p+2"],
        ["0x1.36d77ce95e668p+0", "0x1.034d598998281p-8", "0x1.39217d5e0fb9cp+0",
         "0x1.f1a3e0df24ea8p+0"]],
    500: [["0x1.edab1bcdeb56ap+8", "0x1.f66c2bf885d55p+8", "0x1.b666b9020016ep+8",
           "0x1.fac15a2f40c20p+8"],
          ["0x1.a5aa92b09ff87p+8", "0x1.d7e0375a7a471p+8", "0x1.05f1b3d577002p+9",
           "0x1.c955913bd631bp+8"]],
    10**6: [["0x1.e82d971794c92p+19", "0x1.e85ea0d6e874fp+19", "0x1.e6ea18dbb3b41p+19",
             "0x1.e876b16df3ca7p+19"],
            ["0x1.e682ed6b965e8p+19", "0x1.e7b100602bbb5p+19", "0x1.e8d48f9fd16f7p+19",
             "0x1.e75bc3ebb9f1ep+19"]],
}


@pytest.mark.parametrize("n", sorted(PINNED_CHI2_DRAWS))
def test_chi2_stream_bits_are_pinned(n):
    draws = _chi2_draws(7, 2**64 - 2, 2, 4, n)
    assert [[value.hex() for value in row] for row in draws.tolist()] == PINNED_CHI2_DRAWS[n]


def test_confidence_is_bitwise_the_clamped_scalar_erf():
    # the per-entry expression that the vectorised one replaced, clamp and all
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 8.3, -8.3, 40.0, -40.0,
             math.inf, -math.inf, math.nan]
    z = np.concatenate([edges, np.random.default_rng(29).normal(size=10**4)])
    for values in (z, z[:0]):
        got = localent.protocols._confidence(values)
        want = np.array([min(math.erf(abs(v) / math.sqrt(2.0)), 1.0) for v in values.tolist()])
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert math.isnan(localent.protocols._confidence(np.array([math.nan]))[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("noiseless", [True, False])
def test_non_finite_times_are_domain_errors(bad, noiseless):
    with pytest.raises(DomainError, match="finite"):
        run_blind_batch(separable_scenario(), [0.0, bad, 2.0], 100, noiseless=noiseless)
    with pytest.raises(DomainError, match="finite"):
        run_known_origin_batch(separable_scenario(), bad, 100, noiseless=noiseless)


def test_batches_reject_what_no_campaign_measures():
    for times in ([1.0, 1.0, 2.0], [0.0, 2.0, 1.0]):
        with pytest.raises(DomainError, match="strictly increasing"):
            run_blind_batch(separable_scenario(), times, 100, noiseless=True)
    with pytest.raises(DomainError, match="at least 2 samples"):
        run_blind_batch(separable_scenario(), [0.0, 1.0, 2.0], 1)
    with pytest.raises(DomainError, match="at least 2 samples"):
        run_known_origin_batch(separable_scenario(), 1.0, 1)
    with pytest.raises(DomainError, match="must be nonnegative"):
        run_known_origin_batch(separable_scenario(), -1.0, 100)


def test_normal_equations_match_lstsq_reference():
    # the design-matrix least squares the closed form replaces
    times = np.linspace(0.0, 2.4, 6)
    for seed, scenario in ((1, entangled_scenario(t0=0.5)), (2, separable_scenario(t0=1.5))):
        rngs = [np.random.default_rng([seed, i]) for i in range(len(times))]
        dx, stderr = measure_position_series(scenario, times, 2000, rngs)
        fit = fit_series(U_REF, times, dx, stderr)
        sigma_z = 8.0 * U_REF**2 * dx * stderr
        design = np.column_stack([np.ones_like(times), times]) / sigma_z[:, None]
        target = ((2.0 * U_REF * dx) ** 2 - 4.0 * U_REF**4 * times**2) / sigma_z
        (c0, c1), *_ = np.linalg.lstsq(design, target, rcond=None)
        beta = c1 / (8.0 * U_REF**4)
        jac = np.array([[1.0, -beta], [0.0, 1.0 / (8.0 * U_REF**4)]])
        cov = jac @ np.linalg.inv(design.T @ design) @ jac.T
        assert fit.beta == pytest.approx(beta, rel=1e-9)
        assert fit.alpha == pytest.approx(c0 - 4.0 * U_REF**4 * beta**2, rel=1e-9)
        np.testing.assert_allclose(fit.param_cov, cov, rtol=1e-9)


def test_known_origin_band_includes_u_error():
    t, u, stderr, u_stderr = 3.0, U_REF, 0.01, 0.005
    slope = (4 * u**4 * t * t - 1) / (2 * u * u * math.sqrt(1 + 4 * u**4 * t * t))
    sigma = math.hypot(stderr, slope * u_stderr)
    dx = predicted_dispersion_separable(u, t) + 3.5 * stderr
    assert sigma > 3.5 * stderr / 3.0
    assert classify_known_origin(u, t, dx, stderr).classification == "entangled"
    verdict = classify_known_origin(u, t, dx, stderr, u_stderr=u_stderr)
    assert verdict.classification == "separable"
    assert verdict.confidence == pytest.approx(1.0 - math.erf(3.5 * stderr / sigma / math.sqrt(2)))


def test_classifiers_are_calibrated():
    # z-scores of a separable source have unit spread, so the 3-sigma bands
    # give their nominal false-alarm rates
    scenario = separable_scenario(t0=0.5)
    times = np.linspace(0.0, critical_time(U_REF, B_REF), 5)
    blind = run_blind_batch(scenario, times, 10_000, seed=31, trials=2000)
    assert 0.9 <= np.std(blind.z) <= 1.1
    for seed, t_meas in ((32, 0.25), (33, 1.0), (34, 3.0)):
        known = run_known_origin_batch(separable_scenario(), t_meas, 10_000, seed=seed,
                                       trials=2000)
        assert 0.9 <= np.std(known.z) <= 1.1, t_meas


@pytest.mark.parametrize("sigmas", [-1.0, 0.0, math.nan])
def test_non_positive_thresholds_are_rejected(sigmas):
    series = exact_series(separable_scenario(t0=2.0), [0.0, 1.0, 2.0])
    with pytest.raises(DomainError):
        classify_blind(U_REF, *series, threshold_sigmas=sigmas)
    with pytest.raises(DomainError):
        classify_known_origin(1.0, 1.0, math.sqrt(5.0) / 2.0, 0.0, tolerance_sigmas=sigmas)
    with pytest.raises(DomainError):
        run_blind_batch(separable_scenario(), [0.0, 1.0, 2.0], 100, threshold_sigmas=sigmas)
    with pytest.raises(DomainError):
        run_known_origin_batch(separable_scenario(), 1.0, 100, tolerance_sigmas=sigmas)
