"""Spectral-grid oracle vs closed forms."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localent.oracle
from localent.cli import ORACLE_COLUMNS, _oracle_row, main
from localent.covariance import (
    covariance_matrix,
    entanglement_of_formation,
    simon_invariant,
)
from localent.errors import DomainError, GridError
from localent.oracle import (
    MomentSet,
    WaveGrid,
    boundary_leakage,
    default_extent,
    evolve,
    initial_grid,
    moments,
    numeric_covariance_matrix,
)
from localent.oracle import ISOMETRY_LIMIT, RESIDUAL_LIMIT, _axis, _envelope_weight, _grid_envelope
from localent.oracle import _particle_one, _row_weights, _support
from localent.protocols import ambiguity_time, mimic_width, width_from_momentum_dispersion
from localent.states import PairParams, momentum_dispersion, position_dispersion
import oracle_reference as dense
from oracle_reference import reference_moments

INF = math.inf


def test_grid_norm_and_leakage():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=512, extent=20.0)
    assert abs(grid.norm() - 1.0) < 1e-6
    assert boundary_leakage(grid) < 1e-8


def test_leakage_is_the_direct_sum_over_the_edge_cells():
    # ~1.6e-15 of mass on the edges: a difference of two sums near 1 was
    # 46% off here
    grid = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.5), n=512)
    edge = np.zeros(grid.n, dtype=bool)
    edge[[0, 1, -2, -1]] = True
    cells = edge[:, None] | edge[None, :]
    direct = float(np.sum(np.abs((grid.left @ grid.right)[cells]) ** 2)) * grid.dx * grid.dx
    assert 0.0 < direct < 1e-12
    assert boundary_leakage(grid) == pytest.approx(direct, rel=1e-12, abs=0.0)


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
    initial_grid(PairParams(a=1.0, b=0.25, k_c=0.7), n=n)
    assert sum(sizes) <= 4 * n  # 2n - 1 sums, n differences and n phases


def _amplitudes(grid: WaveGrid) -> np.ndarray:
    return grid.left @ grid.right


def test_separable_grid_factorizes():
    params = PairParams(a=1.0, b=INF, k_c=0.4)
    psi = dense.initial_grid(params, n=256, extent=16.0).amplitudes
    center = 256 // 2  # axis value 0.0
    outer = np.outer(psi[:, center], psi[center, :]) / psi[center, center]
    assert np.max(np.abs(psi - outer)) < 1e-10
    grid = initial_grid(params, n=256, extent=16.0)
    assert grid.left.shape == (256, 1) and grid.right.shape == (1, 256)
    assert grid.schmidt.tolist() == pytest.approx([1.0], abs=1e-12)


def test_packet_center_shift_is_pure_phase():
    still = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.0), n=256, extent=20.0)
    moving = initial_grid(PairParams(a=1.0, b=2.0, k_c=2.0), n=256, extent=20.0)
    assert np.allclose(
        np.abs(_amplitudes(moving)) ** 2, np.abs(_amplitudes(still)) ** 2, atol=1e-12
    )


def test_evolve_zero_time_is_identity():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=256, extent=20.0)
    evolved = evolve(grid, 0.0)
    assert np.max(np.abs(_amplitudes(evolved) - _amplitudes(grid))) < 1e-14


def test_evolution_unitary():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=512, t_max=2.0)
    for t in (0.5, 1.0, 2.0):
        assert abs(evolve(grid, t).norm() - 1.0) < 1e-10


def test_evolution_detects_boundary_hit():
    # extent passes the t = 0 gate but cannot contain the spread packet
    grid = initial_grid(PairParams(a=1.0, b=INF), n=256, extent=8.0)
    with pytest.raises(GridError):
        evolve(grid, 2.0)


def _assert_reconstructs(grid: WaveGrid, reference: np.ndarray) -> None:
    """The factors give ``reference`` to within the factorisation's residual limit."""
    miss = np.linalg.norm(_amplitudes(grid) - reference)
    assert miss <= 1e-13 * np.linalg.norm(reference)


@pytest.mark.parametrize("b,k_c", [(2.0, 0.0), (INF, 0.7), (1.2, -1.3)])
def test_factorised_cached_evolution_is_exact(b, k_c):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=256, t_max=4.0)
    reference0 = dense.initial_grid(params, n=256, t_max=4.0)
    for t in (0.5, 2.0):
        evolved = evolve(grid0, t)
        reference = dense.evolve(reference0, t)
        _assert_reconstructs(evolved, reference.amplitudes)
        np.testing.assert_array_equal(evolved.schmidt, grid0.schmidt)  # U (x) U keeps them
        twice = evolve(evolved, t)  # evolving an evolved grid
        _assert_reconstructs(twice, dense.evolve(reference, t).amplitudes)


@pytest.mark.parametrize("b,k_c", [(2.0, 0.5), (INF, 0.0), (0.7, -1.0)])
def test_factors_are_read_only_and_reconstruct_the_dense_amplitude(b, k_c):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=128, t_max=1.0)
    _assert_reconstructs(grid0, dense.initial_grid(params, n=128, t_max=1.0).amplitudes)
    rank = grid0.schmidt.size
    assert grid0.left.shape == (128, rank) and grid0.right.shape == (rank, 128)
    for grid in (grid0, evolve(grid0, 1.0)):
        for factor in (grid.left, grid.right, grid.schmidt):
            with pytest.raises(ValueError):
                factor[0] = 0.0


def test_an_oracle_check_evolves_every_time_into_one_buffer(monkeypatch, capsys):
    factors = []

    def tracked(grid, t, buffer):
        out = real_evolve(grid, t, buffer)
        factors.append((out.left, out.right))
        return out

    real_evolve = localent.cli._evolve
    monkeypatch.setattr(localent.cli, "_evolve", tracked)
    code = main(["oracle-check", "--a", "1", "--b", "2", "--kc", "0.8",
                 "--times", "0,0.5,1,2", "--grid-n", "256"])
    capsys.readouterr()
    assert code == 0 and len(factors) == 3
    for (left, right), (later_left, later_right) in zip(factors, factors[1:]):
        assert np.shares_memory(left, later_left) and np.shares_memory(right, later_right)


def test_evolve_hands_out_read_only_factors_that_a_later_evolve_leaves_alone():
    grid0 = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.5), n=256, t_max=2.0)
    first = evolve(grid0, 1.0)
    left, right = first.left.copy(), first.right.copy()
    second = evolve(grid0, 2.0)
    assert not np.shares_memory(first.left, second.left)
    np.testing.assert_array_equal(first.left, left)
    np.testing.assert_array_equal(first.right, right)
    for factor in (first.left, first.right):
        with pytest.raises(ValueError):
            factor[0, 0] = 0.0


@pytest.mark.parametrize("b,n,t_max", [(INF, 256, 1.0), (2.0, 256, 1.0), (0.25, 512, 0.5),
                                       (0.125, 1024, 0.25)])
def test_the_handed_on_spectral_power_is_that_of_the_evolved_factors(b, n, t_max):
    # the propagator is a phase of unit modulus in k: an evolved grid keeps no
    # spectra, but its parent's |left_k|^2 is its own, chained evolutions too
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=0.5), n=n, t_max=t_max)
    once = evolve(grid0, t_max / 2)
    assert "_spectra" not in vars(once)
    for grid in (once, evolve(once, t_max / 2)):
        assert grid._spectral_power is grid0._spectral_power
        fresh = np.abs(np.fft.fft(grid.left, axis=0)) ** 2
        assert np.max(np.abs(grid._spectral_power - fresh)) <= 1e-14 * np.max(fresh)


@pytest.mark.parametrize("b,n,t_max", [(INF, 256, 1.0), (2.0, 256, 1.0), (0.25, 512, 0.5),
                                       (0.125, 1024, 0.25)])
def test_the_real_view_grams_match_the_complex_products(b, n, t_max):
    # 2e-15 of the largest entry: against a long-double product, complex
    # matmul's Grams err by up to 5.6e-16 here, the real ones by up to 1.2e-15
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=0.5), n=n, t_max=t_max)
    once = evolve(grid0, t_max / 2)
    rebuilt = dataclasses.replace(once, left=once.left.copy(), right=once.right.copy())
    for grid in (grid0, once, evolve(once, t_max / 2), dataclasses.replace(grid0), rebuilt):
        left, right = grid.left, grid.right
        for gram, direct in zip(grid._grams, (left.conj().T @ left, right @ right.conj().T)):
            assert np.max(np.abs(gram - direct)) <= 2e-15 * np.max(np.abs(direct))


def test_factorisation_is_accepted_only_through_its_exact_residual():
    # a zero diagonal leaves no pivot and a zero trace, yet the residual is
    # the whole matrix: ones - eye, a Hankel view of ones times a Toeplitz
    # view that is 0 only at zero difference
    n = 64
    hankel = sliding_window_view(np.ones(2 * n - 1), n)
    toeplitz = sliding_window_view(np.concatenate([np.ones(n - 1), [0.0], np.ones(n - 1)]), n)
    amp = hankel * toeplitz[:, ::-1]
    np.testing.assert_array_equal(amp, np.ones((n, n)) - np.eye(n))
    with pytest.raises(GridError, match="no factorisation of the amplitude meets the residual"):
        localent.oracle._schmidt_factors(hankel, toeplitz[:, ::-1], float(np.vdot(amp, amp)))


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
    assert not grid.left[off].any() and not grid.right[:, off].any()


def test_factorisation_refuses_a_bound_outside_the_rows_above_the_limit():
    params = PairParams(a=1.0, b=2.0)
    envelope = _grid_envelope(_axis(256, default_extent(params, 2.0)), params)
    weight = _envelope_weight(*envelope)
    rows, _ = _support(*envelope, weight)
    outside = 1.01 * RESIDUAL_LIMIT**2 * weight  # the tail alone exceeds limit^2
    with pytest.raises(GridError, match="no factorisation of the amplitude meets the residual"):
        localent.oracle._schmidt_factors(*envelope, weight, rows, outside)


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
    capacity = 128  # the skeleton's, doubled from 32 to hold the rank
    # beyond the skeleton (nc words) and the SVD's copy and singular vectors (3nc)
    assert max(charged) >= peak > 8 * (n * capacity + 3 * n * capacity)


@pytest.mark.parametrize("b,n,t_max", [(2.0, 1024, 2.0), (0.15, 1024, 0.25), (1 / 6.7, 256, 0.0)])
def test_memory_check_charges_the_traced_peak_on_the_support(monkeypatch, b, n, t_max):
    # with room for the evolution, the factorisation runs on a support of
    # m < n rows but the factors are n x r; at n = 256 the factors beside
    # the leakage check's Grams set the charge
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


def test_initial_grid_peaks_below_a_quarter_of_one_envelope():
    # E is never formed whole: the residual's row blocks and the skeleton
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
    return _row_weights(grid.left, grid._grams[1]) * grid.dx


def _momentum_weights(grid: WaveGrid) -> np.ndarray:
    """Particle 1's unnormalised momentum marginal in FFT order, from the
    row weights of the cached spectra."""
    return _row_weights(grid._spectra[0], grid._spectral_grams[1])


def _widths(grid: WaveGrid) -> tuple[float, float]:
    """The spreads of x1 and k1, as ``oracle-check`` takes them."""
    _, var_x1, _, var_k1 = _particle_one(grid)
    return math.sqrt(var_x1), math.sqrt(var_k1)


@pytest.mark.parametrize("b,k_c", [(2.0, 0.5), (INF, -1.3), (0.5, 0.0)])
def test_cached_spectra_give_the_marginals_of_fresh_transforms(b, k_c):
    # the t = 0 grid derives its right spectra from its left ones; an evolved
    # grid transforms its own factors afresh
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=k_c), n=256, t_max=2.0)
    once = evolve(grid0, 1.0)
    for grid in (grid0, once, evolve(once, 1.0)):
        phi = np.fft.fft(grid.left, axis=0) @ np.fft.fft(grid.right, axis=1)
        fresh = np.sum(np.abs(phi) ** 2, axis=1)
        assert np.max(np.abs(_momentum_weights(grid) - fresh)) <= 1e-13 * np.max(fresh)


@pytest.mark.parametrize("b,k_c", [(2.0, 0.5), (INF, -1.3), (0.25, 0.0)])
def test_parseval_spectral_grams_match_the_grams_of_the_spectra(b, k_c):
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=k_c), n=512, t_max=1.0)
    once = evolve(grid0, 0.5)
    for grid in (grid0, once, evolve(once, 0.5)):
        left_k, right_k = grid._spectra
        for parseval, direct in zip(grid._spectral_grams,
                                    (left_k.conj().T @ left_k, right_k @ right_k.conj().T)):
            assert np.max(np.abs(parseval - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_grid_axes_are_cached_read_only_and_handed_on():
    grid0 = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.5), n=256, t_max=1.0)
    evolved = evolve(grid0, 1.0)
    for grid in (grid0, evolved):
        np.testing.assert_array_equal(grid.axis, _axis(grid.n, grid.extent))
        np.testing.assert_array_equal(grid.k_axis, 2.0 * math.pi * np.fft.fftfreq(grid.n, grid.dx))
        assert not grid.axis.flags.writeable and not grid.k_axis.flags.writeable
    assert evolved.axis is grid0.axis and evolved.k_axis is grid0.k_axis


# b = 2, k_c = 25 at n = 64 puts ~2% of the spectral weight in the Nyquist
# bin, which has no -k partner: without its explicit term the moments miss
@pytest.mark.parametrize("b,k_c,n,t_max",
                         [(b, k_c, 512, 0.25) for b in (INF, 2.0, 0.5, 0.25, 0.125)
                          for k_c in (-1.3, 0.0, 0.5)] + [(2.0, 25.0, 64, 0.0)])
def test_the_real_t0_path_matches_the_complex_computation(b, k_c, n, t_max):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid = initial_grid(params, n=n, t_max=t_max)
    complex_grid = dataclasses.replace(grid)  # the same factors, with no real modes
    assert grid._modes is not None and complex_grid._modes is None
    left, right = grid.left, grid.right
    grams = left.conj().T @ left, right @ right.conj().T
    spectra = np.fft.fft(left, axis=0), np.fft.fft(right, axis=1)
    for derived, direct in zip(grid._grams + grid._spectra, grams + spectra):
        assert np.max(np.abs(derived - direct)) <= 1e-14 * np.max(np.abs(direct))
    if k_c == 25.0:
        weights = np.abs(spectra[0]) ** 2 @ grams[1].diagonal().real
        assert weights[n // 2] > 1e-2 * weights.sum()
    scale = max(1.0, np.abs(covariance_matrix(params).matrix).max())
    got, want = moments(grid), moments(complex_grid)
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
    delta = np.abs(numeric_covariance_matrix(grid).matrix - analytic).max()
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


def _isometry_defects(grid: WaveGrid) -> list[float]:
    """Each Gram's largest off-diagonal magnitude over its largest diagonal entry."""
    defects = []
    for gram in (grid.left.conj().T @ grid.left, grid.right @ grid.right.conj().T):
        off = np.abs(gram - np.diag(gram.diagonal()))
        defects.append(off.max() / np.abs(gram.diagonal()).max())
    return defects


@pytest.mark.parametrize("b,n,t_max,rank", [(INF, 256, 1.0, 1), (2.0, 256, 1.0, 14),
                                            (0.25, 512, 0.5, 88), (0.15, 512, 0.25, 127),
                                            (0.125, 1024, 0.25, 180)])
def test_isometry_defect_is_at_roundoff_at_every_rank(b, n, t_max, rank):
    grid0 = initial_grid(PairParams(a=1.0, b=b, k_c=0.5), n=n, t_max=t_max)
    assert grid0.schmidt.size == pytest.approx(rank, rel=0.05)
    once = evolve(grid0, t_max / 2)
    for grid in (grid0, once, evolve(once, t_max / 2)):
        assert max(_isometry_defects(grid)) <= 1e-14


def test_a_right_factor_that_is_not_orthogonal_fails_the_isometry_check():
    grid = initial_grid(PairParams(a=1.0, b=2.0, k_c=0.5), n=256, t_max=1.0)
    right = grid.right.copy()
    right[1] += 1e-6 * right[0]
    skewed = dataclasses.replace(grid, right=right)
    assert max(_isometry_defects(skewed)) > ISOMETRY_LIMIT
    with pytest.raises(GridError, match="isometry defect"):
        evolve(skewed, 0.5)


@pytest.mark.parametrize("b,n,t_max,k_c", [(0.25, 256, 0.5, 0.5), (0.15, 512, 0.25, -1.3),
                                           (0.125, 512, 0.25, 0.0)])
def test_diagonal_sums_match_the_dense_reference_at_high_rank(b, n, t_max, k_c):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=n, t_max=t_max)
    assert grid0.schmidt.size >= 50
    reference0 = dense.initial_grid(params, n=n, t_max=t_max)
    pairs = ((grid0, reference0), (evolve(grid0, t_max), dense.evolve(reference0, t_max)))
    for grid, reference in pairs:
        axis, reference_density = dense.position_marginal(reference)
        np.testing.assert_array_equal(grid.axis, axis)
        reference_weights = np.sum(reference.spectral_density, axis=1)  # FFT order
        for density, want in ((_position_density(grid), reference_density),
                              (_momentum_weights(grid), reference_weights)):
            assert np.max(np.abs(density - want)) <= 1e-13 * np.max(density)
        _assert_moments_match(moments(grid), reference_moments(reference))


def _particle_one_rows(engine, grid0, times) -> np.ndarray:
    """(dx_grid, dp_grid, mean_x1, mean_k1) at each time, as ``oracle-check``
    takes them, through ``engine``'s functions."""
    rows = []
    for t in times:
        grid = engine.evolve(grid0, t) if t > 0 else grid0
        mean_x1, var_x1, mean_k1, var_k1 = engine._particle_one(grid)
        rows.append((math.sqrt(var_x1), math.sqrt(var_k1), mean_x1, mean_k1))
    return np.array(rows)


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
    cm_delta = np.abs(engine.numeric_covariance_matrix(grid0).matrix - analytic).max()
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
    _assert_reconstructs(grid0, reference0.amplitudes)
    _assert_rows_match(rows, reference_rows)
    # relative to the largest entry, which reaches ~270 at b = a/8
    scale = max(1.0, np.abs(covariance_matrix(params).matrix).max())
    assert abs(cm_delta - reference_cm_delta) <= 2e-14 * scale


@pytest.mark.parametrize("b,n,k_c,times", [(2.0, 256, -1.3, (0.0, 0.5)),
                                           (0.5, 256, 0.0, (0.0, 0.5)),
                                           (INF, 256, 0.5, (0.0, 1.0)),
                                           (2.0, 1024, 300.0, (0.0,)),
                                           (2.0, 2048, 300.0, (0.0,))])
def test_oracle_row_matches_the_dense_marginals_when_the_mean_dwarfs_the_spread(b, n, k_c, times):
    # at k_c = 300 the mean of k1 is ~270 times its spread: E[k^2] - mean^2
    # put dp_grid 5e-12 to 1.6e-11 off there, the centred variance ~1e-15
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=n, t_max=max(times))
    rows = _particle_one_rows(localent.oracle, grid0, times)
    reference0 = dense.initial_grid(params, n=n, t_max=max(times))
    _assert_rows_match(rows, _particle_one_rows(dense, reference0, times))
    moments0, buffer = moments(grid0), np.empty((n, 2 * grid0.schmidt.size), dtype=complex)
    for t, (dx_grid, dp_grid, _, _) in zip(times, rows):
        row = dict(zip(ORACLE_COLUMNS, _oracle_row(grid0, moments0, buffer, t)))
        assert (row["dx_grid"], row["dp_grid"]) == (dx_grid, dp_grid)
        assert row["pass"]


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


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("b", [2.0, INF])
@pytest.mark.parametrize("k_c", [0.0, -1.3])
def test_moments_match_full_grid_reference(n, b, k_c):
    params = PairParams(a=1.0, b=b, k_c=k_c)
    grid0 = initial_grid(params, n=n, t_max=0.7)
    evolved = evolve(grid0, 0.7)
    reference0 = dense.initial_grid(params, n=n, t_max=0.7)
    for grid, reference in ((grid0, reference0), (evolved, dense.evolve(reference0, 0.7))):
        _assert_moments_match(moments(grid), reference_moments(reference))
    # the cross terms are ~0 at t = 0; only the evolved grid exercises them
    assert abs(moments(evolved).sym_x1k1) > 0.1


@pytest.mark.parametrize("bad", [math.nan, INF])
def test_non_finite_grid_inputs_raise(bad):
    params = PairParams(a=1.0, b=2.0)
    with pytest.raises(DomainError, match="extent"):
        initial_grid(params, n=128, extent=bad)
    with pytest.raises(DomainError, match="t_max"):
        initial_grid(params, n=128, t_max=bad)
    grid = initial_grid(params, n=128, t_max=1.0)
    with pytest.raises(DomainError, match="time step"):
        evolve(grid, bad)
    # a finite t_max too large for the default extent to stay finite
    with pytest.raises(DomainError, match="extent"):
        initial_grid(params, n=128, t_max=1e300)


def test_nan_amplitudes_fail_the_leakage_guard():
    grid = initial_grid(PairParams(a=1.0, b=2.0), n=128, t_max=1.0)
    left = grid.left.copy()
    left[0, 0] = math.nan
    with pytest.raises(GridError, match="leakage nan"):
        evolve(dataclasses.replace(grid, left=left), 0.5)


def test_quadrature_dispersion_examples():
    sep = initial_grid(PairParams(a=1.0, b=INF), n=512, t_max=1.0)
    assert _widths(evolve(sep, 1.0))[0] == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-4)
    ent = initial_grid(PairParams(a=1.0, b=2.0), n=512, t_max=1.0)
    assert _widths(evolve(ent, 1.0))[0] == pytest.approx(1.20761472884912, abs=1e-4)


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
        grid = evolve(grid0, t) if t > 0 else grid0
        dx, dp = _widths(grid)
        assert abs(dx / position_dispersion(t, params) - 1.0) < 1e-3
        assert abs(dp / momentum_dispersion(params) - 1.0) < 1e-3
        assert abs(marginal_excess_kurtosis(grid.axis, _position_density(grid))) < 1e-3
        assert abs(grid.norm() - 1.0) < 1e-10


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_marginal_density_is_gaussian_pointwise(t):
    params = PairParams(a=1.0, b=2.0)
    grid = initial_grid(params, n=512, t_max=1.0)
    if t > 0:
        grid = evolve(grid, t)
    x, dens = grid.axis, _position_density(grid)
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
    numeric = numeric_covariance_matrix(initial_grid(params, n=512, extent=24.0))
    analytic = covariance_matrix(params)
    assert numeric.A[0, 0] == pytest.approx(0.4166667, abs=1e-4)
    assert np.abs(numeric.matrix - analytic.matrix).max() < 1e-4
    invariant = simon_invariant(numeric)
    assert invariant == pytest.approx(-1.0 / 6.0, abs=1e-3)


def test_numeric_covariance_matrix_separable():
    numeric = numeric_covariance_matrix(initial_grid(PairParams(a=1.0, b=INF), n=512, extent=16.0))
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

    for factor, should_match in [(0.5, False), (0.9, False), (1.0, True), (1.1, False), (1.5, False)]:
        evolved = evolve(grid_sep, factor * t_match)
        rel = abs(_widths(evolved)[0] / target_x - 1.0)
        if should_match:
            assert rel < 1e-4
        else:
            assert rel > 1e-2


def test_variances_independent_of_packet_center():
    resting = moments(initial_grid(PairParams(a=1.0, b=2.0, k_c=0.0), n=256, extent=24.0))
    drifting_params = PairParams(a=1.0, b=2.0, k_c=1.5)
    grid = initial_grid(drifting_params, n=256, extent=24.0, t_max=0.0)
    evolved = evolve(grid, 0.5)
    m = moments(evolved)
    # mean follows the drift, spread does not depend on k_c
    assert m.mean_x1 == pytest.approx(0.75, abs=1e-6)
    assert abs(math.sqrt(m.var_x1) - position_dispersion(0.5, drifting_params)) < 1e-8


def test_default_extent_covers_evolution():
    params = PairParams(a=1.0, b=2.0, k_c=2.0)
    extent = default_extent(params, t_max=2.0)
    assert extent >= 16.0 * position_dispersion(2.0, params)
    grid = initial_grid(params, n=512, t_max=2.0)
    evolved = evolve(grid, 2.0)  # packet must stay inside
    assert boundary_leakage(evolved) < 1e-8
