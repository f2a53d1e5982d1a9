"""The public surface: exported names and the README library example."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import localent

# the per-sample Born-rule path that lives in tests/born_reference.py
REFERENCE_ONLY = ("SeriesPoint", "sample_momentum", "sample_position", "estimate_dispersion",
                  "measure_position_series", "refine_dispersion_fit")
# the single-trial protocol API: trials run in batches, run_blind_batch and
# run_known_origin_batch, and the tests view one row through tests/one_trial.py
REMOVED = ("run_blind_trial", "run_known_origin_trial", "BlindTrialResult",
           "KnownOriginTrialResult", "classify_blind", "classify_known_origin",
           "fit_dispersion_curve", "FitOutcome", "Verdict", "DispersionSeries",
           "exact_position_series", "_verdict", "_check_estimates")
# closed forms that no command or engine ran: the standard form, whose work
# the partial-transpose kernel does, and wrappers of one field or formula
CLOSED_FORMS_REMOVED = {
    "covariance": ("StandardForm", "standard_form", "standard_form_from_cm"),
    "states": ("GaussianDensity", "marginal_position", "marginal_momentum", "drift_velocity",
               "spreading_factor"),
}
# oracle-check's second route to particle 1's widths and centres: sampled
# marginals, their spread and their mean, where the moments already had them
MARGINALS_REMOVED = ("position_marginal", "momentum_marginal", "marginal_sigma")
# names that only tests called: Simon's verdict type, whose I >= 0 is wrong
# where I rounds to 0, the symplectic form and the physicality check (now
# private), the dense amplitude, which tests/oracle_reference.py holds, and
# the oracle's second evolution path and its wrappers: oracle-check evolves
# only through its schedule and reads its correlation matrix from the t = 0
# moments
ONLY_TESTS_CALLED = {
    "covariance": ("SimonResult", "J_BLOCK", "symplectic_form", "check_physical"),
    "states": ("initial_amplitude",),
    "oracle": ("evolve", "boundary_leakage", "numeric_covariance_matrix"),
}


# what the oracle's t = 0 grid derived twice: its spectra's Grams (n times
# its Grams), a view of its spectrum's two halves, and a wrapper of
# _square_weights with one caller
DERIVED_REMOVED = {"WaveGrid": ("_spectra", "_spectral_grams"), "oracle": ("_row_weights",)}


@pytest.mark.parametrize("layer", ["states", "covariance", "protocols", "oracle"])
def test_every_exported_name_resolves(layer):
    module = importlib.import_module(f"localent.{layer}")
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_reference_path_is_not_exported():
    protocols = importlib.import_module("localent.protocols")
    for name in REFERENCE_ONLY:
        assert not hasattr(protocols, name), name
        assert not hasattr(localent, name), name
        assert name not in protocols.__all__


def test_single_trial_api_is_gone():
    protocols = importlib.import_module("localent.protocols")
    for name in REMOVED:
        assert not hasattr(protocols, name), name
        assert not hasattr(localent, name), name
        assert name not in protocols.__all__
    for batch in (protocols.BlindBatch, protocols.KnownOriginBatch):
        assert not hasattr(batch, "result")


@pytest.mark.parametrize("layer", sorted(CLOSED_FORMS_REMOVED))
def test_unused_closed_forms_are_gone(layer):
    module = importlib.import_module(f"localent.{layer}")
    for name in CLOSED_FORMS_REMOVED[layer]:
        assert not hasattr(module, name), name
        assert not hasattr(localent, name), name
        assert name not in module.__all__


def test_marginal_path_is_gone():
    oracle = importlib.import_module("localent.oracle")
    for name in MARGINALS_REMOVED:
        assert not hasattr(oracle, name), name
        assert not hasattr(localent, name), name
        assert name not in oracle.__all__
    assert not hasattr(importlib.import_module("localent.cli"), "_mean")


@pytest.mark.parametrize("layer", sorted(ONLY_TESTS_CALLED))
def test_names_only_tests_called_are_gone(layer):
    module = importlib.import_module(f"localent.{layer}")
    for name in ONLY_TESTS_CALLED[layer]:
        assert not hasattr(module, name), name
        assert not hasattr(localent, name), name
        assert name not in module.__all__


def test_derived_copies_of_the_oracle_grid_are_gone():
    oracle = importlib.import_module("localent.oracle")
    for name in DERIVED_REMOVED["WaveGrid"]:
        assert not hasattr(oracle.WaveGrid, name), name
    for name in DERIVED_REMOVED["oracle"]:
        assert not hasattr(oracle, name), name


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library example\n.*?```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    simon, eof, verdict, rate = out.getvalue().splitlines()
    assert float(simon) == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert float(eof) == pytest.approx(0.0829971, abs=1e-7)
    classification, b_hat = verdict.split()
    assert classification == "entangled"
    assert float(b_hat) == pytest.approx(1.0, abs=0.05)
    assert float(rate) >= 0.99
