"""One protocol trial, or one hand-made set of estimates, as scalars.

The package runs trials only in batches.  These helpers pass one row to the
engine's array functions and read row 0 back; they validate nothing.
"""

from types import SimpleNamespace

import numpy as np

from localent.protocols import (_blind_verdicts, _fit_rows, _known_origin_verdicts,
                                run_blind_batch, run_known_origin_batch)

FIT = ("alpha", "beta", "param_cov", "residual_rms", "alpha_sigma")
VERDICT = ("classification", "b_hat", "confidence")


def _row0(names, arrays) -> SimpleNamespace:
    """Row 0 of each array, as a Python scalar or a numpy row."""
    return SimpleNamespace(**{name: array[0] if array.ndim > 1 else array[0].item()
                              for name, array in zip(names, arrays)})


def fit_series(u_hat, times, dx, stderr, u_stderr=0.0) -> SimpleNamespace:
    alpha, beta, cov, rms = _fit_rows(np.array([u_hat]), np.array(times, dtype=float),
                                      np.array([dx], dtype=float),
                                      np.array([stderr], dtype=float), np.array([u_stderr]))
    return _row0(FIT, (alpha, beta, cov, rms, np.sqrt(np.maximum(cov[:, 0, 0], 0.0))))


def classify_blind(u_hat, times, dx, stderr, u_stderr=0.0, threshold_sigmas=3.0):
    fit = fit_series(u_hat, times, dx, stderr, u_stderr)
    _, verdicts = _blind_verdicts(np.array([u_hat]), np.array([fit.alpha]),
                                  np.array([fit.alpha_sigma]), threshold_sigmas)
    return _row0(VERDICT, verdicts), fit


def classify_known_origin(u_hat, t_known, dx_hat, stderr, tolerance_sigmas=3.0, u_stderr=0.0):
    _, _, verdicts = _known_origin_verdicts(np.array([u_hat]), t_known, np.array([dx_hat]),
                                            np.array([stderr]), np.array([u_stderr]),
                                            tolerance_sigmas)
    return _row0(VERDICT, verdicts)


def _pick(batch, names) -> SimpleNamespace:
    return _row0(names, [getattr(batch, name) for name in names])


def run_blind_trial(scenario, times, n_samples, seed=0, trial=0, noiseless=False):
    batch = run_blind_batch(scenario, times, n_samples, seed, trial, noiseless=noiseless)
    row = _pick(batch, ("u_hat", "dx_hat", "stderr"))
    row.times, row.verdict, row.fit = batch.times, _pick(batch, VERDICT), _pick(batch, FIT)
    return row


def run_known_origin_trial(scenario, t_meas, n_samples, seed=0, trial=0):
    batch = run_known_origin_batch(scenario, t_meas, n_samples, seed, trial)
    row = _pick(batch, ("u_hat", "dx_hat"))
    row.verdict = _pick(batch, VERDICT)
    return row
