"""Acceptance gate: one test per criterion, each printing its pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
printed measurements on passing runs).
"""

import math

import numpy as np
import pytest

from localent.covariance import (
    covariance_matrix,
    entanglement_of_formation,
    entropy_from_symplectic_eigenvalue,
    reduced_symplectic_eigenvalue,
    simon_invariant,
    simon_invariant_closed_form,
)
from localent.oracle import evolve, initial_grid, moments, numeric_covariance_matrix
from localent.protocols import (
    HiddenScenario,
    ambiguity_time,
    critical_time,
    crossing_times,
    mimic_width,
    predicted_dispersion_entangled,
    predicted_dispersion_separable,
    width_from_momentum_dispersion,
)
from localent.states import PairParams, momentum_dispersion, position_dispersion
from one_trial import run_blind_trial
from oracle_reference import initial_amplitude

INF = math.inf


def test_criterion_1_simon_equivalence():
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 5.0):
        for b in (0.5, 1.0, 2.0, 10.0, 100.0, INF):
            p = PairParams(a=a, b=b)
            general = simon_invariant(covariance_matrix(p))
            closed = simon_invariant_closed_form(p)
            rel = abs(general - closed) / max(1.0, abs(closed))
            worst = max(worst, rel)
            assert rel <= 1e-10
            if math.isinf(b):
                assert closed == 0.0
                assert general == pytest.approx(0.0, abs=1e-12)
            else:
                assert closed < 0.0
                assert general < 0.0
    print(f"PASS criterion 1: Simon general vs closed form, worst rel delta {worst:.2e}")


def test_criterion_2_eof_entropy_identity():
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 5.0):
        for b in (0.5, 1.0, 2.0, 10.0, 100.0):
            p = PairParams(a=a, b=b)
            eof = entanglement_of_formation(p)
            entropy = entropy_from_symplectic_eigenvalue(
                reduced_symplectic_eigenvalue(covariance_matrix(p))
            )
            worst = max(worst, abs(eof - entropy))
            assert abs(eof - entropy) <= 1e-9
    spot = entanglement_of_formation(PairParams(a=1.0, b=2.0))
    assert spot == pytest.approx(0.082998, abs=1e-6)  # quoted at print precision
    assert spot == pytest.approx(0.08299706200713872, abs=1e-9)  # 50-digit recomputation
    print(f"PASS criterion 2: EoF = reduced entropy, worst delta {worst:.2e}; spot {spot:.9f}")


def test_criterion_3_eof_orderings():
    a_grid = np.arange(1.0, 11.0)
    inv_b_grid = np.linspace(0.02, 1.0, 50)
    surface = np.array(
        [
            [
                entanglement_of_formation(PairParams(a=a, b=1.0 / ib))
                for ib in inv_b_grid
            ]
            for a in a_grid
        ]
    )
    # increasing in 1/b (= decreasing in b) at fixed a; increasing in a at fixed b
    assert np.all(np.diff(surface, axis=1) > 0.0)
    assert np.all(np.diff(surface, axis=0) > 0.0)
    print(
        "PASS criterion 3: EoF strictly decreasing in b and increasing in a "
        f"over a {surface.shape[0]}x{surface.shape[1]} grid"
    )


def test_criterion_4_oracle_agreement():
    worst_dx = worst_dp = worst_cm = worst_norm = 0.0
    for a, b in ((1.0, INF), (1.0, 2.0), (2.0, 2.0)):
        params = PairParams(a=a, b=b)
        grid0 = initial_grid(params, n=512, t_max=2.0)
        cm_delta = float(
            np.abs(numeric_covariance_matrix(grid0).matrix - covariance_matrix(params).matrix).max()
        )
        worst_cm = max(worst_cm, cm_delta)
        assert cm_delta < 1e-4
        for t in (0.0, 0.5, 1.0, 2.0):
            grid = evolve(grid0, t) if t > 0 else grid0
            spreads = moments(grid)
            var_x1, var_k1 = spreads.var_x1, spreads.var_k1
            rel_dx = abs(math.sqrt(var_x1) / position_dispersion(t, params) - 1.0)
            rel_dp = abs(math.sqrt(var_k1) / momentum_dispersion(params) - 1.0)
            drift = abs(grid.norm() - 1.0)
            worst_dx = max(worst_dx, rel_dx)
            worst_dp = max(worst_dp, rel_dp)
            worst_norm = max(worst_norm, drift)
            assert rel_dx < 1e-3
            assert rel_dp < 1e-3
            assert drift < 1e-10
    print(
        "PASS criterion 4: 512^2 spectral oracle, worst rel dx "
        f"{worst_dx:.2e}, rel dp {worst_dp:.2e}, CM delta {worst_cm:.2e}, "
        f"norm drift {worst_norm:.2e}"
    )


def test_criterion_5_crossing():
    crossing = crossing_times(1.01, 1.0, 1.0)
    assert crossing.lab == pytest.approx(3.458391, abs=1e-6)
    assert crossing.entangled_clock == pytest.approx(2.458391, abs=1e-6)
    assert abs(crossing.entangled_clock - 2.46) <= 0.01
    print(
        f"PASS criterion 5: curves cross at lab {crossing.lab:.6f}, "
        f"entangled clock {crossing.entangled_clock:.6f} (reference ~2.46)"
    )


def test_criterion_6_mimicry_uniqueness():
    u, b = 1.01, 1.0
    t_match = ambiguity_time(u, b)
    assert t_match == pytest.approx(2.432444, abs=1e-6)

    # closed form: both marginal widths coincide at t_match and only there
    dx_target = predicted_dispersion_entangled(u, b, 0.0)
    assert abs(predicted_dispersion_separable(u, t_match) - dx_target) < 1e-12
    a_prime = mimic_width(u)
    assert abs(momentum_dispersion(PairParams(a=a_prime, b=INF)) - u) < 1e-12
    for factor in (0.9, 1.1):
        assert abs(predicted_dispersion_separable(u, factor * t_match) - dx_target) > 1e-2

    # grid oracle reproduces the same matching
    entangled = PairParams(a=width_from_momentum_dispersion(u, b), b=b)
    grid_ent = initial_grid(entangled, n=512, t_max=0.0)
    spreads = moments(grid_ent)
    target_x, target_k = math.sqrt(spreads.var_x1), math.sqrt(spreads.var_k1)
    grid_sep = initial_grid(PairParams(a=a_prime, b=INF), n=512, t_max=1.1 * t_match)
    assert abs(math.sqrt(moments(grid_sep).var_k1) / target_k - 1.0) < 1e-4
    for factor, should_match in ((0.9, False), (1.0, True), (1.1, False)):
        dx = math.sqrt(moments(evolve(grid_sep, factor * t_match)).var_x1)
        rel = abs(dx / target_x - 1.0)
        assert (rel < 1e-4) if should_match else (rel > 1e-2)
    print(
        f"PASS criterion 6: mimicry unique at t = {t_match:.6f} "
        "(closed form to 1e-12, grid to 1e-4; strict mismatch at 0.9x and 1.1x)"
    )


def test_criterion_7_blind_protocol_end_to_end():
    u, b = 1.01, 1.0
    times = np.linspace(0.0, critical_time(u, b), 5).tolist()
    entangled = HiddenScenario(PairParams(a=width_from_momentum_dispersion(u, b), b=b), t0=0.5)
    separable = HiddenScenario(PairParams(a=1.0 / u, b=INF), t0=0.5)

    clean = run_blind_trial(entangled, times, n_samples=0, noiseless=True)
    assert clean.fit.alpha == pytest.approx(25.62810939116603, rel=1e-6)
    assert clean.fit.beta == pytest.approx(0.5, abs=1e-6)
    assert clean.verdict.b_hat == pytest.approx(1.0, rel=1e-6)

    entangled_hits = sum(
        run_blind_trial(entangled, times, 10_000, seed=1234, trial=k).verdict.classification
        == "entangled"
        for k in range(200)
    )
    false_entangled = sum(
        run_blind_trial(separable, times, 10_000, seed=5678, trial=k).verdict.classification
        == "entangled"
        for k in range(200)
    )
    assert entangled_hits >= 190  # >= 95% of 200
    assert false_entangled <= 10  # <= 5% of 200
    print(
        "PASS criterion 7: noiseless (alpha, beta, b) exact to 1e-6; noisy "
        f"entangled verdicts {entangled_hits}/200, false entangled {false_entangled}/200"
    )


def test_criterion_8_limit_degradation():
    worst = 0.0
    for t in np.linspace(0.0, 10.0, 41):
        sep = predicted_dispersion_separable(1.01, float(t))
        ent = predicted_dispersion_entangled(1.01, 1e6, float(t))
        worst = max(worst, abs(ent - sep) / sep)
        assert abs(ent - sep) <= 1e-10 * sep
    params = PairParams(a=1.0, b=INF, k_c=0.9)
    x = np.linspace(-3.0, 3.0, 61)
    psi = initial_amplitude(x[:, None], x[None, :], params)
    product = np.outer(
        initial_amplitude(x, np.zeros_like(x), params),
        initial_amplitude(np.zeros_like(x), x, params),
    ) / initial_amplitude(0.0, 0.0, params)
    factorization = float(np.max(np.abs(psi - product)))
    assert factorization <= 1e-10
    print(
        f"PASS criterion 8: b = 1e6 curve matches separable (worst rel {worst:.2e}); "
        f"b = inf amplitude factorizes (max deviation {factorization:.2e})"
    )
