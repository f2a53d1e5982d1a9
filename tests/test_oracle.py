"""Spectral-grid oracle vs closed forms."""

import dataclasses
import itertools
import json
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localent.oracle
from localent.cli import main
from localent.covariance import (
    covariance_matrix,
    entanglement_of_formation,
    simon_invariant,
)
from localent.errors import DomainError, GridError
from localent.oracle import MomentSet, WaveGrid, default_extent, initial_grid, moments
from localent.oracle import ISOMETRY_LIMIT, RESIDUAL_LIMIT, _axis, _envelope_weight, _grid_envelope
from localent.oracle import _EDGE, _correlation_matrix, _gram, _leakage, _propagate, _propagators
from localent.oracle import _schedule, _square_weights, _support, _trace, _wavenumber_weights
from localent.protocols import ambiguity_time, mimic_width, width_from_momentum_dispersion
from localent.states import PairParams, momentum_dispersion, position_dispersion
import oracle_reference as dense
from oracle_reference import reference_moments

INF = math.inf


def _edge_leakage(left: np.ndarray, right: np.ndarray, dx: float) -> float:
    """The mass in the outermost two cells along each edge of left @ right,
    through the package's ``_leakage``."""
    grams = np.stack([left.conj().T @ left, right @ right.conj().T])
    edges = np.concatenate([left[_EDGE], right[:, _EDGE].T], axis=1)
    return float(_leakage(grams, edges, dx))


def test_grid_norm_and_leakage():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=512, extent=20.0)
    assert abs(grid.norm() - 1.0) < 1e-6
    assert _edge_leakage(*_factors(grid), grid.dx) < 1e-8


def test_leakage_is_the_direct_sum_over_the_edge_cells():
    # ~1.6e-15 of mass on the edges: a difference of two sums near 1 was
    # 46% off here
    grid = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.5), n=512)
    edge = np.zeros(grid.n, dtype=bool)
    edge[[0, 1, -2, -1]] = True
    cells = edge[:, None] | edge[None, :]
    direct = float(np.sum(np.abs(_amplitudes(grid)[cells]) ** 2)) * grid.dx * grid.dx
    assert 0.0 < direct < 1e-12
    assert _edge_leakage(*_factors(grid), grid.dx) == pytest.approx(direct, rel=1e-12, abs=0.0)


def test_grid_validation():
    with pytest.raises(GridError):
        initial_grid(PairParams(a=1.0, b=2.0), n=100)  # not a power of two
    with pytest.raises(GridError):
        initial_grid(PairParams(a=1.0, b=2.0), n=32)
    with pytest.raises(GridError):
        initial_grid(PairParams(a=1.0, b=2.0), n=512, extent=3.0)  # < 16 dx(0)
    # resolvable extent but far too few points to hold the norm
    with pytest.raises(GridError):
        initial_grid(PairParams(a=0.05, b=INF), n=64, extent=70.0)


@pytest.mark.parametrize("b", [10.0, 2.0, 0.25, 1 / 8, INF])
def test_grid_envelope_is_symmetric_and_matches_the_pointwise_envelope(b):
    # sampled as a Hankel view of sums times a Toeplitz view of differences
    params = PairParams(a=1.0, b=b)
    x = _axis(512, default_extent(params, 1.0))
    hankel, toeplitz = _grid_envelope(x, params)
    envelope = hankel * toeplitz
    np.testing.assert_array_equal(envelope, envelope.T)
    pointwise = dense.envelope(x[:, None], x[None, :], params)
    assert np.linalg.norm(envelope - pointwise) <= 1e-13 * np.linalg.norm(pointwise)


def test_initial_grid_takes_4n_exponentials_and_no_random_numbers(monkeypatch):
    n = 512
    sizes = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    def no_streams(*args, **kwargs):
        raise AssertionError("the oracle drew random numbers")

    monkeypatch.setattr(np, "exp", counted)
    for name in ("default_rng", "Generator", "RandomState"):
        monkeypatch.setattr(np.random, name, no_streams)
    grid = initial_grid(PairParams(a=1.0, b=0.25, k_c=0.7), n=n)
    m = len(grid._modes[0])
    # 2n - 1 sums, n differences, n phases and one Gaussian h_0 per support row
    assert sum(sizes) <= 4 * n + m


def _factors(grid: WaveGrid) -> tuple[np.ndarray, np.ndarray]:
    """``grid``'s Schmidt factors, left (n x r) and right (r x n), from its
    record: left = diag(p) U on the support rows and 0 off them, and
    right = diag(scale) left^H."""
    u, scale, rows, phase = grid._modes
    left = np.zeros((grid.n, scale.size), dtype=complex)
    left[rows] = phase[:, None] * u
    return left, left.conj().T * scale[:, None]


def _amplitudes(grid: WaveGrid) -> np.ndarray:
    left, right = _factors(grid)
    return left @ right


def _evolved(grid0: WaveGrid, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``grid0``'s factors (left, right) at time t, as ``_schedule`` writes
    them: the package's ``_propagate`` into a fresh n x 2r buffer, whose two
    halves are views of them."""
    n, r = grid0.n, grid0.schmidt.size
    buffer = np.empty((n, 2 * r), dtype=complex)
    _propagate(grid0._spectrum, _propagators(grid0.k_axis, np.array([t]))[0], buffer)
    return buffer[:, :r], buffer[:, r:].T


def _evolved_weights(grid0: WaveGrid, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Particle 1's position and wavenumber weights at time t, as
    ``_schedule`` takes them: |left|^2, and the t = 0 spectral power, each
    over the diagonal of right's Gram."""
    left, right = _evolved(grid0, t)
    diagonal = _gram(right.T, right.T).T.diagonal().real
    x_weights = _square_weights(np.square(left.view(np.float64)), diagonal)
    return x_weights, _wavenumber_weights(grid0, diagonal)


def _schedule_row(grid0: WaveGrid, t: float) -> np.ndarray:
    """(norm, mean_x1, var_x1, mean_k1, var_k1) at time t > 0, from ``_schedule``."""
    return _schedule(grid0, np.array([t]))[0]


def test_separable_grid_factorizes():
    params = PairParams(a=1.0, b=INF, k_c=0.4)
    psi = dense.initial_grid(params, n=256, extent=16.0).amplitudes
    center = 256 // 2  # axis value 0.0
    outer = np.outer(psi[:, center], psi[center, :]) / psi[center, center]
    assert np.max(np.abs(psi - outer)) < 1e-10
    grid = initial_grid(params, n=256, extent=16.0)
    left, right = _factors(grid)
    assert left.shape == (256, 1) and right.shape == (1, 256)
    assert grid.schmidt.tolist() == pytest.approx([1.0], abs=1e-12)


def test_packet_center_shift_is_pure_phase():
    still = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.0), n=256, extent=20.0)
    moving = initial_grid(PairParams(a=1.0, b=2.0, k_c=2.0), n=256, extent=20.0)
    assert np.allclose(
        np.abs(_amplitudes(moving)) ** 2, np.abs(_amplitudes(still)) ** 2, atol=1e-12
    )


def test_evolve_zero_time_is_identity():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=256, extent=20.0)
    left, right = _evolved(grid, 0.0)
    assert np.max(np.abs(left @ right - _amplitudes(grid))) < 1e-14


def test_evolution_unitary():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=512, t_max=2.0)
    norms = _schedule(grid, np.array([0.5, 1.0, 2.0]))[:, 0]
    assert np.all(np.abs(norms - 1.0) < 1e-10)


def test_evolution_detects_boundary_hit():
    # extent passes the t = 0 gate but cannot contain the spread packet
    grid = initial_grid(PairParams(a=1.0, b=INF), n=256, extent=8.0)
    with pytest.raises(GridError, match="packet reached the grid boundary at t = 2 "):
        _schedule(grid, np.array([2.0]))


def _assert_reconstructs(amplitudes: np.ndarray, reference: np.ndarray) -> None:
    """Factors' ``amplitudes`` give ``reference`` to within the
    factorisation's residual limit."""
    miss = np.linalg.norm(amplitudes - reference)
    assert miss <= 1e-13 * np.linalg.norm(reference)


@pytest.mark.parametrize("b,k_c", [(2.0, 0.0), (INF, 0.7), (1.2, -1.3)])
def test_factorised_cached_evolution_is_exact(b, k_c):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=256, t_max=4.0)
    reference0 = dense.initial_grid(params, n=256, t_max=4.0)
    for t in (0.5, 2.0):
        left, right = _evolved(grid0, t)
        reference = dense.evolve(reference0, t)
        _assert_reconstructs(left @ right, reference.amplitudes)
        # U (x) U keeps the Schmidt values
        schmidt = np.linalg.svd(left @ right, compute_uv=False)[:grid0.schmidt.size] * grid0.dx
        np.testing.assert_allclose(schmidt, grid0.schmidt, rtol=0.0, atol=1e-13)
        # one step to 2t against the dense engine's two steps of t
        left, right = _evolved(grid0, 2.0 * t)
        _assert_reconstructs(left @ right, dense.evolve(reference, t).amplitudes)


@pytest.mark.parametrize("b,k_c", [(2.0, 0.5), (INF, 0.0), (0.7, -1.0)])
def test_factors_are_read_only_and_reconstruct_the_dense_amplitude(b, k_c):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=128, t_max=1.0)
    _assert_reconstructs(_amplitudes(grid0),
                         dense.initial_grid(params, n=128, t_max=1.0).amplitudes)
    rank = grid0.schmidt.size
    left, right = _factors(grid0)
    assert left.shape == (128, rank) and right.shape == (rank, 128)
    u, scale, _, phase = grid0._modes
    for factor in (grid0.schmidt, u, scale, phase):
        with pytest.raises(ValueError):
            factor[0] = 0.0


def test_the_grid_stores_no_n_by_r_copy_of_its_factors():
    # one record of U, the scale, the support rows and the phase on them;
    # after the t = 0 moments and an evolution, the grid's only complex n x r
    # words are the two halves of its spectrum
    assert not {"left", "right"} & {field.name for field in dataclasses.fields(WaveGrid)}
    grid = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.5), n=256, t_max=1.0)
    moments(grid)
    _schedule(grid, np.array([0.5, 1.0]))
    n, r = grid.n, grid.schmidt.size
    held = [item for value in vars(grid).values()
            for item in (value if isinstance(value, tuple) else (value,))]
    arrays = [item for item in held if isinstance(item, np.ndarray)]
    assert r > 1 and any(array is grid._spectrum for array in arrays)
    assert [array.shape for array in arrays
            if np.iscomplexobj(array) and array.shape in ((n, r), (r, n))] == []


def test_an_oracle_check_evolves_every_time_into_one_buffer(monkeypatch, capsys):
    # one n x 2r buffer per call, whatever the number of times (the weak
    # reference to one object is one object), and no view of it from one
    # time alive at the next (each view holds a reference)
    calls = []

    def tracked(spectrum, phase, buffer):
        calls.append((weakref.ref(buffer), buffer.shape, sys.getrefcount(buffer)))
        propagate(spectrum, phase, buffer)

    propagate = localent.oracle._propagate
    monkeypatch.setattr(localent.oracle, "_propagate", tracked)
    for t_max, times in ((2.0, "0,0.5,1,2"), (4.0, ",".join(str(0.25 * i) for i in range(17)))):
        rank = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.8), n=256, t_max=t_max).schmidt.size
        calls.clear()
        code = main(["oracle-check", "--a", "1", "--b", "2", "--kc", "0.8",
                     "--times", times, "--grid-n", "256"])
        capsys.readouterr()
        assert code == 0 and len(calls) == times.count(",")
        first, _, references = calls[0]
        assert all(ref is first and shape == (256, 2 * rank) and count == references
                   for ref, shape, count in calls)


@pytest.mark.parametrize("b,n,t_max", [(INF, 256, 1.0), (2.0, 256, 1.0), (0.25, 512, 0.5),
                                       (0.125, 1024, 0.25)])
def test_the_handed_on_spectral_power_is_that_of_the_evolved_factors(b, n, t_max):
    # the propagator is a phase of unit modulus in k: the schedule transforms
    # no evolved factor forward, and the t = 0 |left_k|^2 is that of every time
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=0.5), n=n, t_max=t_max)
    for t in (t_max / 2, t_max):
        fresh = np.abs(np.fft.fft(_evolved(grid0, t)[0], axis=0)) ** 2
        assert np.max(np.abs(grid0._spectral_power - fresh)) <= 1e-14 * np.max(fresh)


@pytest.mark.parametrize("b,n,t_max", [(INF, 256, 1.0), (2.0, 256, 1.0), (0.25, 512, 0.5),
                                       (0.125, 1024, 0.25)])
def test_the_real_view_grams_match_the_complex_products(b, n, t_max):
    # 2e-15 of the largest entry: against a long-double product, complex
    # matmul's Grams err by up to 5.6e-16 here, the real ones by up to 1.2e-15
    # the t = 0 Grams, real sums over U, and the schedule's float-view Grams
    # of each evolved time's factors
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=0.5), n=n, t_max=t_max)
    pairs = [(grid0._grams, _factors(grid0))]
    for t in (t_max / 2, t_max):
        left, right = _evolved(grid0, t)
        pairs.append(((_gram(left, left), _gram(right.T, right.T).T), (left, right)))
    for grams, (left, right) in pairs:
        for gram, direct in zip(grams, (left.conj().T @ left, right @ right.conj().T)):
            assert np.max(np.abs(gram - direct)) <= 2e-15 * np.max(np.abs(direct))


def test_factorisation_is_accepted_only_through_its_exact_residual():
    # Mehler's factors come from the parameters alone; views of an envelope
    # that they do not describe, even one 1e-9 away, miss it by far more
    # than the limit
    x = _axis(256, 16.0)
    for b, described in [(2.0, 2.0), (0.25, 0.25), (INF, INF), (2.0, 2.0 * (1.0 + 1e-9)),
                         (0.25, 0.25 * (1.0 - 1e-9)), (INF, 1e4), (2.0, INF)]:
        envelope = _grid_envelope(x, PairParams(a=1.0, b=b))
        arguments = (PairParams(a=1.0, b=described), x, *envelope, _envelope_weight(*envelope))
        if described == b:
            localent.oracle._schmidt_factors(*arguments)
            continue
        with pytest.raises(GridError, match="no factorisation of the amplitude meets the residual"):
            localent.oracle._schmidt_factors(*arguments)


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("b", [10.0, 2.0, 0.25, INF])
def test_support_bound_covers_the_envelope_outside_it(b, n):
    # room for a drifted, spread packet leaves rows where E is negligible
    params = PairParams(a=1.0, b=b)
    envelope = _grid_envelope(_axis(n, default_extent(params, 2.0)), params)
    weight = _envelope_weight(*envelope)
    rows, outside = _support(*envelope, weight)
    assert 0 < rows.stop - rows.start < n / 2
    assert 0.0 < outside <= (RESIDUAL_LIMIT / 8.0) ** 2 * weight
    outer = np.ones(n, dtype=bool)
    outer[rows] = False
    excluded = (envelope[0] * envelope[1])[outer[:, None] | outer[None, :]]
    excluded = float(np.vdot(excluded, excluded))
    assert outside >= excluded * (1.0 - 1e-12)
    if b == INF:  # rank 1: E_ij^2 = E_ii E_jj, so the bound is tight
        assert outside == pytest.approx(excluded, rel=1e-12, abs=0.0)


def test_support_of_a_packet_at_the_edges_is_every_row():
    params = PairParams(a=1.0, b=2.0)
    envelope = _grid_envelope(_axis(256, default_extent(params)), params)
    assert _support(*envelope, _envelope_weight(*envelope)) == (slice(0, 256), 0.0)


def test_initial_grid_factors_vanish_off_the_support():
    params = PairParams(a=1.0, b=2.0, k_c=0.5)
    grid = initial_grid(params, n=512, t_max=2.0)
    envelope = _grid_envelope(grid.axis, params)
    rows, _ = _support(*envelope, _envelope_weight(*envelope))
    off = np.ones(grid.n, dtype=bool)
    off[rows] = False
    assert off.sum() > grid.n / 2
    assert grid._modes[2] == rows and len(grid._modes[0]) == rows.stop - rows.start
    left, right = _factors(grid)
    assert not left[off].any() and not right[:, off].any()


def test_factorisation_refuses_a_bound_outside_the_rows_above_the_limit():
    params = PairParams(a=1.0, b=2.0)
    x = _axis(256, default_extent(params, 2.0))
    envelope = _grid_envelope(x, params)
    weight = _envelope_weight(*envelope)
    rows, _ = _support(*envelope, weight)
    outside = 1.01 * RESIDUAL_LIMIT**2 * weight  # the tail alone exceeds limit^2
    with pytest.raises(GridError, match="no factorisation of the amplitude meets the residual"):
        localent.oracle._schmidt_factors(params, x, *envelope, weight, rows, outside)


@pytest.mark.parametrize("b", [2.0, INF, 0.25])
def test_memory_check_charges_the_traced_peak(monkeypatch, b):
    # no n x n array is formed, and the check charges all that is alive at
    # the peak
    n = 512
    charged = []
    require_memory = localent.oracle.require_memory

    def spy(nbytes):
        charged.append(nbytes)
        require_memory(nbytes)

    monkeypatch.setattr(localent.oracle, "require_memory", spy)
    initial_grid(PairParams(a=1.0, b=2.0), n=64)  # numpy's one-time imports, untraced
    tracemalloc.start()
    try:
        initial_grid(PairParams(a=1.0, b=b, k_c=0.7), n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(charged) >= peak
    assert peak <= 2 * 8 * n * n


def test_memory_check_charges_the_traced_peak_at_high_rank(monkeypatch):
    # at rank 125 of n = 512 the rank terms, not the n-vectors or the
    # residual's row blocks, set the peak
    n = 512
    charged = []
    require_memory = localent.oracle.require_memory

    def spy(nbytes):
        charged.append(nbytes)
        require_memory(nbytes)

    monkeypatch.setattr(localent.oracle, "require_memory", spy)
    initial_grid(PairParams(a=1.0, b=2.0), n=64)  # numpy's one-time imports, untraced
    tracemalloc.start()
    try:
        grid = initial_grid(PairParams(a=1.0, b=1 / 6.7, k_c=0.7), n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.schmidt.size > 100
    capacity = 128  # below the rank
    # beyond four n x 128 arrays of floats: the rank terms, the sampled
    # functions, Q and the residual's skeleton among them, set the peak
    assert max(charged) >= peak > 8 * (n * capacity + 3 * n * capacity)


@pytest.mark.parametrize("b,n,t_max", [(2.0, 1024, 2.0), (0.15, 1024, 0.25), (1 / 6.7, 256, 0.0)])
def test_memory_check_charges_the_traced_peak_on_the_support(monkeypatch, b, n, t_max):
    # with room for the evolution, the factorisation runs on a support of
    # m < n rows, and the charge, made once the support is known, sizes it
    # by those m rows: taken as all n, it was ~2.5 times the peak at n = 1024
    charged = []
    require_memory = localent.oracle.require_memory

    def spy(nbytes):
        charged.append(nbytes)
        require_memory(nbytes)

    monkeypatch.setattr(localent.oracle, "require_memory", spy)
    initial_grid(PairParams(a=1.0, b=2.0), n=64)  # numpy's one-time imports, untraced
    tracemalloc.start()
    try:
        initial_grid(PairParams(a=1.0, b=b, k_c=0.7), n=n, t_max=t_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(charged) >= peak
    if n == 1024:
        assert max(charged) <= 2 * peak


def test_initial_grid_peaks_below_a_quarter_of_one_envelope():
    # E is never formed whole: the residual's row blocks and the rank terms
    # set the peak, not a dense n x n float64 array (8 n^2 bytes)
    n = 1024
    initial_grid(PairParams(a=1.0, b=2.0), n=64)  # numpy's one-time imports, untraced
    tracemalloc.start()
    try:
        initial_grid(PairParams(a=1.0, b=2.0), n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * n


@pytest.mark.parametrize("b", [10.0, 2.0, 0.25, 1 / 8, INF])
def test_envelope_weight_in_o_n_matches_the_dense_sum(b):
    params = PairParams(a=1.0, b=b)
    x = _axis(512, default_extent(params, 1.0))
    pointwise = dense.envelope(x[:, None], x[None, :], params)
    dense_weight = float(np.vdot(pointwise, pointwise))
    weight = _envelope_weight(*_grid_envelope(x, params))
    assert weight == pytest.approx(dense_weight, rel=1e-14, abs=0.0)


def _position_density(grid: WaveGrid) -> np.ndarray:
    """Particle 1's position marginal on ``grid.axis``: its row weights times dx."""
    left = _factors(grid)[0]
    return _square_weights(np.square(left.view(np.float64)), grid._grams[1].diagonal()) * grid.dx


def _momentum_weights(grid: WaveGrid) -> np.ndarray:
    """Particle 1's unnormalised momentum marginal in FFT order, from the
    row weights of the cached left spectra over the diagonal of right's
    spectral Gram, n times right's Gram by Parseval."""
    left_k = grid._spectrum[:, :grid.schmidt.size]
    return _square_weights(np.square(left_k.view(np.float64)), grid.n * grid._grams[1].diagonal())


def _particle_one(engine, grid) -> tuple[float, float, float, float]:
    """(mean_x1, var_x1, mean_k1, var_k1) of ``grid`` through ``engine``:
    the dense engine's sampled marginals, or the factored engine's
    ``moments``, which ``oracle-check`` takes at t = 0."""
    if engine is dense:
        return dense._particle_one(grid)
    m = moments(grid)
    return m.mean_x1, m.var_x1, m.mean_k1, m.var_k1


def _widths(grid: WaveGrid) -> tuple[float, float]:
    """The spreads of x1 and k1, as ``oracle-check`` takes them."""
    _, var_x1, _, var_k1 = _particle_one(localent.oracle, grid)
    return math.sqrt(var_x1), math.sqrt(var_k1)


@pytest.mark.parametrize("b,k_c", [(2.0, 0.5), (INF, -1.3), (0.5, 0.0)])
def test_cached_spectra_give_the_marginals_of_fresh_transforms(b, k_c):
    # the t = 0 grid derives its right spectra from its left ones; the
    # schedule weighs the t = 0 spectral power by each time's right Gram
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=k_c), n=256, t_max=2.0)
    cases = [(_momentum_weights(grid0), _factors(grid0))]
    cases += [(_evolved_weights(grid0, t)[1], _evolved(grid0, t)) for t in (1.0, 2.0)]
    for weights, (left, right) in cases:
        phi = np.fft.fft(left, axis=0) @ np.fft.fft(right, axis=1)
        fresh = np.sum(np.abs(phi) ** 2, axis=1)
        assert np.max(np.abs(weights - fresh)) <= 1e-13 * np.max(fresh)


@pytest.mark.parametrize("b,k_c", [(2.0, 0.5), (INF, -1.3), (0.25, 0.0)])
def test_parseval_spectral_grams_match_the_grams_of_the_spectra(b, k_c):
    # at t = 0, the cached spectra's; at each later time, those of the evolved
    # factors, whose Grams the schedule takes n times for the spectra's
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=k_c), n=512, t_max=1.0)
    r = grid0.schmidt.size
    cases = [(tuple(grid0.n * gram for gram in grid0._grams),
              (grid0._spectrum[:, :r], grid0._spectrum[:, r:].T))]
    for t in (0.5, 1.0):
        left, right = _evolved(grid0, t)
        cases.append(((grid0.n * _gram(left, left), grid0.n * _gram(right.T, right.T).T),
                      (np.fft.fft(left, axis=0), np.fft.fft(right, axis=1))))
    for grams, (left_k, right_k) in cases:
        for parseval, direct in zip(grams, (left_k.conj().T @ left_k, right_k @ right_k.conj().T)):
            assert np.max(np.abs(parseval - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("b", [INF, 2.0, 0.25])
@pytest.mark.parametrize("k_c", [-1.3, 0.0, 0.5, 300.0])
def test_spectral_grams_scale_by_n_bit_for_bit(b, k_c):
    # moments takes the spectra's trace as n^2 norm and their shift term as
    # (shift n) l1: the grid size is a power of two, so both are, bit for bit,
    # what the spectral Grams n l1 and n r1 give
    grid = initial_grid(PairParams(a=1.0, b=b, k_c=k_c), n=256)
    n, (l1, r1) = grid.n, grid._grams
    assert _trace(n * l1, n * r1) == n * n * _trace(l1, r1)
    m = moments(grid)
    for shift in (m.mean_k1 + m.mean_k2, 1.0 / 3.0, -0.7):
        np.testing.assert_array_equal(shift * (n * l1), (shift * n) * l1, strict=True)


def test_grid_axes_are_cached_and_read_only():
    grid = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.5), n=256, t_max=1.0)
    np.testing.assert_array_equal(grid.axis, _axis(grid.n, grid.extent))
    np.testing.assert_array_equal(grid.k_axis, 2.0 * math.pi * np.fft.fftfreq(grid.n, grid.dx))
    assert not grid.axis.flags.writeable and not grid.k_axis.flags.writeable
    assert grid.axis is grid.axis and grid.k_axis is grid.k_axis


# b = 2, k_c = 25 at n = 64 puts ~2% of the spectral weight in the Nyquist
# bin, which has no -k partner: without its explicit term the moments miss
@pytest.mark.parametrize("b,k_c,n,t_max",
                         [(b, k_c, 512, 0.25) for b in (INF, 2.0, 0.5, 0.25, 0.125)
                          for k_c in (-1.3, 0.0, 0.5)] + [(2.0, 25.0, 64, 0.0)])
def test_the_real_t0_path_matches_the_complex_computation(b, k_c, n, t_max):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid = initial_grid(params, n=n, t_max=t_max)
    left, right = _factors(grid)
    grams = left.conj().T @ left, right @ right.conj().T
    spectra = np.fft.fft(left, axis=0), np.fft.fft(right, axis=1)
    r = grid.schmidt.size
    halves = grid._spectrum[:, :r], grid._spectrum[:, r:].T
    for derived, direct in zip(grid._grams + halves, grams + spectra):
        assert np.max(np.abs(derived - direct)) <= 1e-14 * np.max(np.abs(direct))
    if k_c == 25.0:
        weights = np.abs(spectra[0]) ** 2 @ grams[1].diagonal().real
        assert weights[n // 2] > 1e-2 * weights.sum()
    scale = max(1.0, np.abs(covariance_matrix(params).matrix).max())
    # the dense engine's complex moments of the whole sampled amplitude
    got, want = moments(grid), reference_moments(dense.initial_grid(params, n=n, t_max=t_max))
    for field in dataclasses.fields(MomentSet):
        value, reference = getattr(got, field.name), getattr(want, field.name)
        assert abs(value - reference) <= 1e-13 * scale, field.name


@pytest.mark.parametrize("k_c", [0.0, 300.0])
def test_centred_cross_moments_match_the_closed_form_where_the_mean_dwarfs_the_spread(k_c):
    # at k_c = 300, k1 k2 - mean_k1 mean_k2 put gamma's k1k2 entry 1.5e-10 off; the
    # extent is 1.5 times the default, whose edge truncation alone moves var_k
    # by ~1e-11 at n = 2048
    params = PairParams(a=1.0, b=2.0, k_c=k_c)
    grid = initial_grid(params, n=2048, extent=1.5 * default_extent(params))
    analytic = covariance_matrix(params).matrix
    delta = np.abs(_correlation_matrix(moments(grid)).matrix - analytic).max()
    assert delta <= 1e-13 * max(1.0, np.abs(analytic).max())


def test_a_four_time_oracle_check_makes_5_transform_calls(monkeypatch, capsys):
    # one forward transform at t = 0, one inverse one of both factors per
    # evolution and one for k1 psi in the t = 0 moments
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft"):
        def counted(*args, _transform=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    code = main(["oracle-check", "--a", "1", "--b", "2", "--kc", "0.8",
                 "--times", "0,0.5,1,2", "--grid-n", "256"])
    capsys.readouterr()
    assert code == 0
    assert sorted(calls) == ["fft"] + ["ifft"] * 4


def _isometry_defects(left: np.ndarray, right: np.ndarray) -> list[float]:
    """Each Gram's largest off-diagonal magnitude over its largest diagonal entry."""
    defects = []
    for gram in (left.conj().T @ left, right @ right.conj().T):
        off = np.abs(gram - np.diag(gram.diagonal()))
        defects.append(off.max() / np.abs(gram.diagonal()).max())
    return defects


@pytest.mark.parametrize("b,n,t_max,rank", [(INF, 256, 1.0, 1), (2.0, 256, 1.0, 14),
                                            (0.25, 512, 0.5, 88), (0.15, 512, 0.25, 127),
                                            (0.125, 1024, 0.25, 180)])
def test_isometry_defect_is_at_roundoff_at_every_rank(b, n, t_max, rank):
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=0.5), n=n, t_max=t_max)
    assert grid0.schmidt.size == pytest.approx(rank, rel=0.05)
    for left, right in (_factors(grid0), _evolved(grid0, t_max / 2),
                        _evolved(grid0, t_max)):
        assert max(_isometry_defects(left, right)) <= 1e-14


def test_a_right_factor_that_is_not_orthogonal_fails_the_isometry_check(monkeypatch):
    # every evolution skews right's second row towards its first
    grid = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.5), n=256, t_max=1.0)
    r = grid.schmidt.size

    def skewed(spectrum, phase, buffer):
        propagate(spectrum, phase, buffer)
        buffer[:, r + 1] += 1e-6 * buffer[:, r]

    propagate = localent.oracle._propagate
    monkeypatch.setattr(localent.oracle, "_propagate", skewed)
    left, right = _evolved(grid, 0.5)
    assert max(_isometry_defects(left, right)) <= 1e-14
    right = right.copy()
    right[1] += 1e-6 * right[0]
    assert max(_isometry_defects(left, right)) > ISOMETRY_LIMIT
    with pytest.raises(GridError, match="isometry defect"):
        _schedule(grid, np.array([0.5]))


@pytest.mark.parametrize("b,n,t_max,k_c", [(0.25, 256, 0.5, 0.5), (0.15, 512, 0.25, -1.3),
                                           (0.125, 512, 0.25, 0.0)])
def test_diagonal_sums_match_the_dense_reference_at_high_rank(b, n, t_max, k_c):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=n, t_max=t_max)
    assert grid0.schmidt.size >= 50
    reference0 = dense.initial_grid(params, n=n, t_max=t_max)
    reference = dense.evolve(reference0, t_max)
    x_weights, k_weights = _evolved_weights(grid0, t_max)
    cases = (((_position_density(grid0), _momentum_weights(grid0)), reference0),
             ((x_weights * grid0.dx, k_weights), reference))
    for (position_density, momentum_weights), want in cases:
        axis, reference_density = dense.position_marginal(want)
        np.testing.assert_array_equal(grid0.axis, axis)
        reference_weights = np.sum(want.spectral_density, axis=1)  # FFT order
        for density, wanted in ((position_density, reference_density),
                                (momentum_weights, reference_weights)):
            assert np.max(np.abs(density - wanted)) <= 1e-13 * np.max(density)
    _assert_moments_match(moments(grid0), reference_moments(reference0))
    _assert_schedule_matches(grid0, t_max, reference)


def _particle_one_rows(engine, grid0, times) -> np.ndarray:
    """(dx_grid, dp_grid, mean_x1, mean_k1) at each time, through
    ``engine``'s functions: the dense engine evolves a grid to each time,
    and the package takes t = 0 from ``moments(grid0)`` and every later time
    from one ``_schedule`` pass, as ``oracle-check`` does."""
    if engine is dense:
        moments_at = [dense._particle_one(dense.evolve(grid0, t) if t > 0 else grid0)
                      for t in times]
    else:
        later = np.array(times) > 0
        moments_at = np.empty((len(times), 4))
        moments_at[:] = _particle_one(engine, grid0)
        if later.any():
            moments_at[later] = _schedule(grid0, np.array(times)[later])[:, 1:]
    mean_x1, var_x1, mean_k1, var_k1 = np.array(moments_at).T
    return np.column_stack([np.sqrt(var_x1), np.sqrt(var_k1), mean_x1, mean_k1])


def _assert_rows_match(rows: np.ndarray, reference_rows: np.ndarray) -> None:
    """Widths to 1e-12 relative, and centres to 1e-12 of the width, the
    scale on which ``oracle-check`` judges them."""
    np.testing.assert_allclose(rows[:, :2], reference_rows[:, :2], rtol=1e-12, atol=0.0)
    assert np.all(np.abs(rows[:, 2:] - reference_rows[:, 2:]) <= 1e-12 * reference_rows[:, :2])


def _oracle_check(engine, params: PairParams, n: int, times: list[float]):
    """The t = 0 grid, ``_particle_one_rows`` and cm_max_abs_delta, as
    ``oracle-check`` computes them, through ``engine``'s functions."""
    grid0 = engine.initial_grid(params, n=n, t_max=max(times))
    analytic = covariance_matrix(params).matrix
    numeric = (dense.numeric_covariance_matrix(grid0) if engine is dense
               else _correlation_matrix(moments(grid0)))
    cm_delta = np.abs(numeric.matrix - analytic).max()
    return grid0, _particle_one_rows(engine, grid0, times), cm_delta


@given(
    a=st.floats(0.5, 2.0),
    log_ratio=st.one_of(st.floats(math.log(1 / 8), math.log(4.0)), st.just(INF)),
    k_c=st.floats(-1.5, 1.5),
    n=st.sampled_from((128, 256)),
    times=st.sets(st.sampled_from((0.0, 0.5, 1.0, 2.0)), min_size=1),
)
@settings(max_examples=60, deadline=None)
@example(a=0.5, log_ratio=-1.75, k_c=0.0, n=128, times={0.0})  # entries to 273: 1.25e-12 apart
# b = a: a factorisation residual reaches the k-weighted moments at first
# order, 1.29 times the bound for factors at 0.77 of the residual limit
@example(a=1.0078125, log_ratio=0.0, k_c=0.375, n=256, times={0.0, 0.5, 1.0, 2.0})
def test_factored_engine_matches_the_dense_reference(a, log_ratio, k_c, n, times):
    # b <= a/4 is where unchecked cross approximation converged to the wrong matrix
    params = PairParams(a=a, b=a * math.exp(log_ratio), k_c=k_c)
    times = sorted(times)
    outcomes = []
    for engine in (localent.oracle, dense):
        try:
            outcomes.append(_oracle_check(engine, params, n, times))
        except GridError as exc:  # the leakage in its message may differ in the last digits
            outcomes.append(str(exc).split(" (")[0])
    factored, reference = outcomes
    if isinstance(factored, str) or isinstance(reference, str):
        assert factored == reference
        return
    grid0, rows, cm_delta = factored
    reference0, reference_rows, reference_cm_delta = reference
    _assert_reconstructs(_amplitudes(grid0), reference0.amplitudes)
    _assert_rows_match(rows, reference_rows)
    # relative to the largest entry, which reaches ~270 at b = a/8
    scale = max(1.0, np.abs(covariance_matrix(params).matrix).max())
    assert abs(cm_delta - reference_cm_delta) <= 2e-14 * scale


def _dense_norm(reference) -> float:
    """The dense engine's quadrature of |psi|^2."""
    return float(np.sum(reference.density)) * reference.dx * reference.dx


# the last three: unsorted, repeated and zero times, as oracle-check takes them;
# no group of positive times reads the same backwards
@pytest.mark.parametrize("b,n,k_c,times", [(2.0, 256, -1.3, (0.0, 0.5)),
                                           (0.5, 256, 0.0, (0.0, 0.5)),
                                           (INF, 256, 0.5, (0.0, 1.0)),
                                           (2.0, 1024, 300.0, (0.0,)),
                                           (2.0, 2048, 300.0, (0.0,)),
                                           (INF, 256, -1.3, (0.5, 0.0, 1.0, 1.0, 0.0)),
                                           (2.0, 256, 0.8, (2.0, 0.0, 0.5, 1.0, 2.0)),
                                           (0.25, 256, 0.5, (0.5, 0.0, 0.25, 0.25, 0.0))])
def test_oracle_row_matches_the_dense_marginals_when_the_mean_dwarfs_the_spread(
    capsys, b, n, k_c, times
):
    # at k_c = 300 the mean of k1 is ~270 times its spread: E[k^2] - mean^2
    # put dp_grid 5e-12 to 1.6e-11 off there, the centred variance ~1e-15
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=n, t_max=max(times))
    reference0 = dense.initial_grid(params, n=n, t_max=max(times))
    reference_rows = _particle_one_rows(dense, reference0, times)
    reference_norms = np.array([_dense_norm(dense.evolve(reference0, t) if t > 0 else reference0)
                                for t in times])
    # the engine's widths and centres at every time: moments(grid0) at t = 0,
    # which oracle-check reads there, else the schedule's rows
    _assert_rows_match(_particle_one_rows(localent.oracle, grid0, times), reference_rows)
    # the schedule's norm at each time > 0
    later = np.array(times) > 0
    if later.any():
        norm = _schedule(grid0, np.array(times)[later])[:, 0]
        np.testing.assert_allclose(norm, reference_norms[later], rtol=0.0, atol=1e-13)
    # oracle-check's rows at every time, t = 0 and repeated times among them
    argv = ["oracle-check", "--a", "1", "--b", repr(b), f"--kc={k_c!r}",
            "--times", ",".join(map(repr, times)), "--grid-n", str(n)]
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["results"]["checks"]
    assert [check["t"] for check in checks] == list(times)
    widths = np.array([(check["dx_grid"], check["dp_grid"]) for check in checks])
    np.testing.assert_allclose(widths, reference_rows[:, :2], rtol=1e-12, atol=0.0)
    drifts = np.array([check["norm_drift"] for check in checks])
    np.testing.assert_allclose(drifts, np.abs(reference_norms - 1.0), rtol=0.0, atol=1e-13)
    assert all(check["pass"] for check in checks)
    for i, j in itertools.combinations(range(len(times)), 2):  # a repeated time's rows agree
        if times[i] == times[j]:
            assert checks[i] == checks[j]


@pytest.mark.parametrize("ratio", [0.5, 0.8, 1.2, 2.0, 2.9])
def test_schmidt_entropy_is_the_entanglement_of_formation(ratio):
    # the Schmidt values come from the sampled amplitude, not from the closed
    # form; at the default extent of 16 dispersions the truncated tails
    # already shift the entropy by ~1e-13, so the domain is wider
    params = PairParams(a=1.0, b=ratio)
    schmidt = initial_grid(params, n=512, extent=24.0).schmidt
    p = schmidt**2 / np.sum(schmidt**2)
    entropy = float(-np.sum(p * np.log2(p)))
    eof = entanglement_of_formation(params)
    assert entropy == pytest.approx(eof, rel=1e-12, abs=0.0)


def _assert_moments_match(got, want):
    for field in dataclasses.fields(MomentSet):
        value, reference = getattr(got, field.name), getattr(want, field.name)
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference)), field.name


def _assert_schedule_matches(grid0: WaveGrid, t: float, reference) -> None:
    """The schedule's norm and particle 1's moments at time t match those of
    the dense engine's grid ``reference`` there, as ``_assert_moments_match``
    holds each moment."""
    norm, *particle_one = _schedule_row(grid0, t)
    want = reference_moments(reference)
    for value, name in zip(particle_one, ("mean_x1", "var_x1", "mean_k1", "var_k1")):
        reference_value = getattr(want, name)
        assert abs(value - reference_value) <= 1e-12 * max(1.0, abs(reference_value)), name
    assert abs(norm - _dense_norm(reference)) <= 1e-12


def _chirped(grid: WaveGrid, reference, kappa: float):
    """Both engines' grids of psi exp(i kappa (x1^2 - x2^2)): the chirp is a
    unit-modulus phase on left and its conjugate on right, so the package's
    grid keeps right = diag(scale) left^H and its real modes, and only the
    phase on its support rows takes the chirp."""
    chirp = np.exp(1j * kappa * grid.axis**2)
    u, scale, rows, phase = grid._modes
    chirped = dataclasses.replace(grid, _modes=(u, scale, rows, phase * chirp[rows]))
    amplitudes = reference.amplitudes * chirp[:, None] * chirp.conj()
    return chirped, dataclasses.replace(reference, amplitudes=amplitudes)


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("b", [2.0, INF])
@pytest.mark.parametrize("k_c", [0.0, -1.3])
def test_moments_match_full_grid_reference(n, b, k_c):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=n, t_max=0.7)
    reference0 = dense.initial_grid(params, n=n, t_max=0.7)
    _assert_moments_match(moments(grid0), reference_moments(reference0))
    _assert_schedule_matches(grid0, 0.7, dense.evolve(reference0, 0.7))
    # the cross terms are ~0 at t = 0; opposite chirps on the two particles
    # make sym_x1k1 and sym_x2k2 0.2 and, at b = 2, the other two 0.04
    chirped, reference = _chirped(grid0, reference0, 0.5)
    got = moments(chirped)
    _assert_moments_match(got, reference_moments(reference))
    for name in ("sym_x1k1", "sym_x2k2") + (("sym_x1k2", "sym_x2k1") if b < INF else ()):
        assert abs(getattr(got, name)) > 0.03, name


@pytest.mark.parametrize("bad", [math.nan, INF])
def test_non_finite_grid_inputs_raise(bad):
    params = PairParams(a=1.0, b=2.0)
    with pytest.raises(DomainError, match="extent"):
        initial_grid(params, n=128, extent=bad)
    with pytest.raises(DomainError, match="t_max"):
        initial_grid(params, n=128, t_max=bad)
    # a finite t_max too large for the default extent to stay finite
    with pytest.raises(DomainError, match="extent"):
        initial_grid(params, n=128, t_max=1e300)


def test_nan_amplitudes_fail_the_leakage_guard():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=128, t_max=1.0)
    u, scale, rows, phase = grid._modes
    bad_u, bad_phase = u.copy(), phase.copy()
    bad_u[0, 0] = bad_phase[0] = math.nan  # on the first support row
    for modes in ((bad_u, scale, rows, phase), (u, scale, rows, bad_phase)):
        with pytest.raises(GridError, match="leakage nan"):
            _schedule(dataclasses.replace(grid, _modes=modes), np.array([0.5]))


def test_quadrature_dispersion_examples():
    sep = initial_grid(PairParams(a=1.0, b=INF), n=512, t_max=1.0)
    assert math.sqrt(_schedule_row(sep, 1.0)[2]) == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-4)
    ent = initial_grid(PairParams(a=1.0, b=2.0), n=512, t_max=1.0)
    assert math.sqrt(_schedule_row(ent, 1.0)[2]) == pytest.approx(1.20761472884912, abs=1e-4)


def marginal_excess_kurtosis(axis: np.ndarray, density: np.ndarray) -> float:
    """Excess kurtosis of a sampled density; ~0 certifies Gaussian shape."""
    w = density / density.sum()
    mean = float((w * axis).sum())
    centered = axis - mean
    m2 = float((w * centered**2).sum())
    m4 = float((w * centered**4).sum())
    return m4 / (m2 * m2) - 3.0


@pytest.mark.parametrize("a,b", [(1.0, INF), (1.0, 2.0), (2.0, 2.0), (1.0, 1.2)])
def test_oracle_matches_closed_forms(a, b):
    params = PairParams(a=a, b=b)
    grid0 = initial_grid(params, n=512, t_max=2.0)
    for t in (0.0, 0.5, 1.0, 2.0):
        if t > 0:
            norm, _, var_x1, _, var_k1 = _schedule_row(grid0, t)
            dx, dp = math.sqrt(var_x1), math.sqrt(var_k1)
            density = _evolved_weights(grid0, t)[0] * grid0.dx
        else:
            (dx, dp), norm, density = _widths(grid0), grid0.norm(), _position_density(grid0)
        assert abs(dx / position_dispersion(t, params) - 1.0) < 1e-3
        assert abs(dp / momentum_dispersion(params) - 1.0) < 1e-3
        assert abs(marginal_excess_kurtosis(grid0.axis, density)) < 1e-3
        assert abs(norm - 1.0) < 1e-10


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_marginal_density_is_gaussian_pointwise(t):
    params = PairParams(a=1.0, b=2.0)
    grid = initial_grid(params, n=512, t_max=1.0)
    x = grid.axis
    dens = _evolved_weights(grid, t)[0] * grid.dx if t > 0 else _position_density(grid)
    sigma = position_dispersion(t, params)
    z = (x - params.k_c * t) / sigma
    reference = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    mask = reference > 1e-6 * reference.max()
    rel = np.abs(dens[mask] - reference[mask]) / reference[mask]
    assert rel.max() < 1e-4


def test_moments_values():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=512, extent=24.0)
    m = moments(grid)
    assert m.var_x1 == pytest.approx(0.2083333, abs=1e-5)
    assert m.cov_x1x2 > 0.0
    assert m.cov_k1k2 < 0.0
    assert abs(m.sym_x1k1) < 1e-10
    shifted = moments(initial_grid(PairParams(a=1.0, b=2.0, k_c=3.0), n=512, extent=24.0))
    assert shifted.mean_k1 == pytest.approx(3.0, abs=1e-6)
    assert shifted.mean_k2 == pytest.approx(-3.0, abs=1e-6)
    # drift never touches the second moments
    assert abs(shifted.var_x1 - m.var_x1) < 1e-10
    assert abs(shifted.var_k1 - m.var_k1) < 1e-10
    assert abs(shifted.cov_x1x2 - m.cov_x1x2) < 1e-10


def test_moment_set_cauchy_schwarz():
    for b in (2.0, INF):
        m = moments(initial_grid(PairParams(a=1.0, b=b), n=256, extent=24.0))
        assert m.var_x1 >= 0.0 and m.var_k1 >= 0.0
        assert m.cov_x1x2**2 <= m.var_x1 * m.var_x2 * (1.0 + 1e-12)
        assert m.cov_k1k2**2 <= m.var_k1 * m.var_k2 * (1.0 + 1e-12)


def test_numeric_covariance_matrix():
    params = PairParams(a=1.0, b=2.0)
    numeric = _correlation_matrix(moments(initial_grid(params, n=512, extent=24.0)))
    analytic = covariance_matrix(params)
    assert numeric.A[0, 0] == pytest.approx(0.4166667, abs=1e-4)
    assert np.abs(numeric.matrix - analytic.matrix).max() < 1e-4
    invariant = simon_invariant(numeric)
    assert invariant == pytest.approx(-1.0 / 6.0, abs=1e-3)


def test_numeric_covariance_matrix_separable():
    numeric = _correlation_matrix(moments(initial_grid(PairParams(a=1.0, b=INF), n=512,
                                                       extent=16.0)))
    assert np.abs(numeric.C).max() < 1e-6


def test_marginal_sigma_examples():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=512, extent=24.0)
    dx, dp = _widths(grid)
    assert dx == pytest.approx(0.45643546, abs=1e-4)
    assert np.sum(_position_density(grid)) * grid.dx == pytest.approx(1.0, abs=1e-6)
    assert dp == pytest.approx(1.1180340, abs=1e-4)
    # Parseval: the spectra's weights sum to n^2 times the amplitudes'
    momentum_mass = np.sum(_momentum_weights(grid)) * (grid.dx / grid.n) ** 2
    assert momentum_mass == pytest.approx(1.0, abs=1e-6)
    sep = initial_grid(PairParams(a=1.0, b=INF), n=512, extent=16.0)
    assert _widths(sep)[1] == pytest.approx(1.0, abs=1e-4)


def test_mimicry_on_the_grid():
    u, b = 1.01, 1.0
    t_match = ambiguity_time(u, b)
    entangled = PairParams(a=width_from_momentum_dispersion(u, b), b=b)
    mimic = PairParams(a=mimic_width(u), b=INF)
    grid_ent = initial_grid(entangled, n=512, t_max=0.0)
    target_x, target_k = _widths(grid_ent)

    grid_sep = initial_grid(mimic, n=512, t_max=1.5 * t_match)
    assert abs(_widths(grid_sep)[1] / target_k - 1.0) < 1e-4  # holds at all times

    factors = [(0.5, False), (0.9, False), (1.0, True), (1.1, False), (1.5, False)]
    var_x1 = _schedule(grid_sep, np.array([factor for factor, _ in factors]) * t_match)[:, 2]
    for (factor, should_match), var in zip(factors, var_x1):
        rel = abs(math.sqrt(var) / target_x - 1.0)
        if should_match:
            assert rel < 1e-4
        else:
            assert rel > 1e-2


def test_variances_independent_of_packet_center():
    resting = moments(initial_grid(PairParams(a=1.0, b=2.0, k_c=0.0), n=256, extent=24.0))
    drifting_params = PairParams(a=1.0, b=2.0, k_c=1.5)
    grid = initial_grid(drifting_params, n=256, extent=24.0, t_max=0.0)
    _, mean_x1, var_x1, _, _ = _schedule_row(grid, 0.5)
    # mean follows the drift, spread does not depend on k_c
    assert mean_x1 == pytest.approx(0.75, abs=1e-6)
    assert abs(math.sqrt(var_x1) - position_dispersion(0.5, drifting_params)) < 1e-8


def test_default_extent_covers_evolution():
    params = PairParams(a=1.0, b=2.0, k_c=2.0)
    extent = default_extent(params, t_max=2.0)
    assert extent >= 16.0 * position_dispersion(2.0, params)
    grid = initial_grid(params, n=512, t_max=2.0)
    left, right = _evolved(grid, 2.0)  # packet must stay inside
    assert _edge_leakage(left, right, grid.dx) < 1e-8
