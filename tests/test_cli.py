"""Command-line interface: values, formats, determinism and exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localent
from localent import cli
from localent.cli import DEFAULT_TIMES, OUT_OF_RANGE, build_parser, main
from localent.covariance import entanglement_of_formation
from localent.errors import DomainError
from localent.protocols import (
    HiddenScenario,
    crossing_times,
    entangled_alpha,
    predicted_dispersion_entangled,
    run_blind_batch,
    run_known_origin_batch,
)
from localent.states import PairParams
from eof_reference import eof_reference

try:
    from importlib.resources import files

    ENVELOPE_SCHEMA = json.loads(
        files("localent").joinpath("schemas/envelope.json").read_text()
    )
except Exception:  # pragma: no cover
    ENVELOPE_SCHEMA = None


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    if ENVELOPE_SCHEMA is not None:
        jsonschema.validate(payload, ENVELOPE_SCHEMA)
    return code, payload


def test_simon_entangled(capsys):
    code, payload = run_json(capsys, "simon", "--a", "1", "--b", "2")
    assert code == 0
    assert payload["results"]["I_general"] == pytest.approx(-1.0 / 6.0, rel=1e-9)
    assert payload["results"]["I_closed"] == pytest.approx(-1.0 / 6.0, rel=1e-12)
    assert payload["results"]["separable"] is False


def test_simon_accepts_inf(capsys):
    code, payload = run_json(capsys, "simon", "--a", "1", "--b", "inf")
    assert code == 0
    assert payload["results"]["I_general"] == 0.0
    assert payload["results"]["separable"] is True


def test_simon_a2_b2(capsys):
    code, payload = run_json(capsys, "simon", "--a", "2", "--b", "2")
    assert code == 0
    assert payload["results"]["I_closed"] == pytest.approx(-4.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("a,b", [("1", "1e170"), ("1", "1e163"), ("1e-100", "1e100")])
def test_simon_is_entangled_at_every_finite_b(capsys, a, b):
    # (a/b)^2 underflows from a/b ~ 1e-162, and so does 1 - nu, but nu < 1
    # for every finite b
    code, payload = run_json(capsys, "simon", "--a", a, "--b", b)
    assert code == 0
    assert payload["results"] == {"I_general": 0.0, "I_closed": 0.0, "separable": False}
    code, out, _ = run_cli(capsys, "simon", "--a", a, "--b", b, "--format", "csv")
    assert (code, out) == (0, "I_general,I_closed,separable\n0,0,false\n")


def test_eof_surface_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "eof-surface",
        "--a-min", "1", "--a-max", "2", "--a-steps", "2",
        "--b-min", "2", "--b-max", "10", "--b-steps", "3",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,b,eof"
    assert len(lines) == 1 + 2 * 3  # header + steps_a * steps_b
    first = lines[1].split(",")
    assert float(first[0]) == 1.0 and float(first[1]) == 2.0
    assert float(first[2]) == pytest.approx(0.08299706, abs=1e-6)
    # monotone decrease along the b grid at fixed a
    eofs = [float(line.split(",")[2]) for line in lines[1:4]]
    assert eofs[0] > eofs[1] > eofs[2]


# log-uniform in [1e-3, 1e3] on a fine lattice, so ends are rarely round numbers
_AXIS_END = st.integers(0, 6 * 10**6).map(lambda i: 10.0 ** (i / 10**6 - 3.0))
_AXIS_STEPS = st.one_of(st.sampled_from((0, 1)), st.integers(2, 25))


def _axis(start: float, stop: float, steps: int) -> list[float]:
    return np.linspace(start, stop, steps).tolist()


@given(a_min=_AXIS_END, a_max=_AXIS_END, a_steps=_AXIS_STEPS,
       b_min=_AXIS_END, b_max=_AXIS_END, b_steps=_AXIS_STEPS)
@settings(max_examples=100, deadline=None)
def test_eof_surface_matches_the_scalar_composition(a_min, a_max, a_steps, b_min, b_max,
                                                     b_steps):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eof-surface", f"--a-min={a_min!r}", f"--a-max={a_max!r}",
                     f"--a-steps={a_steps}", f"--b-min={b_min!r}", f"--b-max={b_max!r}",
                     f"--b-steps={b_steps}", "--format=json"])
    assert code == 0
    rows = json.loads(out.getvalue())["results"]
    pairs = [(a, b) for a in _axis(a_min, a_max, a_steps) for b in _axis(b_min, b_max, b_steps)]
    assert [(row["a"], row["b"]) for row in rows] == pairs
    # the scalar function is a 0-d call of the kernel the surface runs on
    # arrays, so the values agree to the bit, not only to a few ulp
    for row in rows:
        want = entanglement_of_formation(PairParams(a=row["a"], b=row["b"]))
        assert row["eof"] == want, (row, want)


def _scalar_surface_outcome(argv: list[str]) -> tuple[int, str, list[float]]:
    """Exit code, stderr and values of the per-pair scalar loop: the first
    pair in row-major order that raises decides the error, and a value that
    is not finite fails the output."""
    args = build_parser().parse_args(argv)
    try:
        values = [entanglement_of_formation(PairParams(a=a, b=b))
                  for a in _axis(args.a_min, args.a_max, args.a_steps)
                  for b in _axis(args.b_min, args.b_max, args.b_steps)]
    except DomainError as exc:
        return 2, f"error: {exc}\n", []
    except ArithmeticError:
        return 2, f"error: {OUT_OF_RANGE}\n", []
    if not all(map(math.isfinite, values)):
        return 2, f"error: {OUT_OF_RANGE}\n", []
    return 0, "", values


@pytest.mark.parametrize(
    "argv",
    [
        # negative: an a of row 0, a b of row 0, an a of a later row
        "--a-min -1 --a-max 2 --a-steps 3 --b-min -1 --b-max 2 --b-steps 3",
        "--a-min 1 --a-max 2 --a-steps 3 --b-min -1 --b-max 2 --b-steps 3",
        "--a-min 1 --a-max -2 --a-steps 3 --b-min 1 --b-max -2 --b-steps 3",
        "--a-min 1 --a-max -2 --a-steps 3 --b-min 1 --b-max 2 --b-steps 3",
        # not a number, given or made by linspace from an infinite end
        "--a-min nan --a-max 2 --a-steps 3",
        "--b-min 1 --b-max nan --b-steps 3 --format json",
        "--a-min 1 --a-max inf --a-steps 3",
        "--a-min inf --a-max inf --a-steps 2 --b-steps 2",
        # 2 (a/b)**2 overflows, but L = log1p(2 (a/b)**2) is finite
        "--a-steps 2 --b-steps 2 --b-min 1e-200",
        "--a-steps 2 --b-steps 2 --b-min 1e-200 --format json",
        "--a-min 1e154 --a-max 1e154 --a-steps 1 --b-min 1 --b-max 1 --b-steps 1",
        "--a-min 1e154 --a-max 1e154 --a-steps 1 --b-min 1 --b-max 1 --b-steps 1 --format json",
        # overflowing: a/b itself
        "--a-min 1 --a-max 1e300 --a-steps 3 --b-min 1e-10 --b-max 1 --b-steps 2",
        "--a-min 1e300 --a-max 1 --a-steps 2 --b-min 1 --b-max 1e-10 --b-steps 2",
        # no pairs: nothing to reject
        "--a-steps 0 --a-min -1 --b-min -1",
        "--a-steps 2 --b-steps 0 --a-min -1 --format json",
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # linspace from an infinite end
def test_eof_surface_errors_match_the_scalar_loop(capsys, argv):
    argv = ["eof-surface", *argv.split()]
    code, out, err = run_cli(capsys, *argv)
    want_code, want_err, want = _scalar_surface_outcome(argv)
    assert code == want_code
    if code:
        assert (out, err) == ("", want_err)
    elif "json" in argv:
        assert [row["eof"] for row in json.loads(out)["results"]] == want
    else:
        lines = out.splitlines()
        assert lines[0] == "a,b,eof"
        assert [line.split(",")[2] for line in lines[1:]] == [f"{value:.9g}" for value in want]


def test_eof_surface_holds_at_strong_entanglement(capsys):
    # a/b = 1e9 and 5e8: n - k of the standard form rounds to 0 from a/b ~ 9.5e7
    code, payload = run_json(capsys, "eof-surface", "--a-min", "1e9", "--a-max", "1e9",
                             "--a-steps", "1", "--b-min", "1", "--b-max", "2", "--b-steps", "2")
    assert code == 0
    rows = payload["results"]
    assert [(row["a"], row["b"]) for row in rows] == [(1e9, 1.0), (1e9, 2.0)]
    for row in rows:
        want = eof_reference(row["a"], row["b"])
        assert abs(row["eof"] - want) <= 1e-13 * want, (row, want)


# log-uniform over [10**low, 10**high] on a fine lattice
def _log_uniform(low: int, high: int):
    return st.integers(low * 10**6, high * 10**6).map(lambda i: 10.0 ** (i / 10**6))


@given(a=_log_uniform(-2, 2), b_over_a=st.one_of(_log_uniform(-8, 8), st.just(math.inf)))
@example(a=1.0, b_over_a=3e4)  # I_general rounds to 0 here, I_closed = -4.9e-18
@settings(max_examples=150, deadline=None)
def test_verdict_and_eof_hold_at_every_ratio(a, b_over_a):
    b = a * b_over_a
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["simon", f"--a={a!r}", f"--b={b!r}"]) == 0
    assert json.loads(out.getvalue())["results"]["separable"] is math.isinf(b)
    want = eof_reference(a, b)
    assert abs(entanglement_of_formation(PairParams(a=a, b=b)) - want) <= 1e-13 * want


def test_dispersion_curve_values(capsys):
    code, out, _ = run_cli(
        capsys,
        "dispersion-curve",
        "--u", "1.01", "--b", "1", "--t-min", "0", "--t-max", "1", "--t-steps", "2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,dx_separable,dx_entangled"
    t0_row = lines[1].split(",")
    assert float(t0_row[1]) == pytest.approx(0.495049505, rel=1e-8)
    assert float(t0_row[2]) == pytest.approx(2.50614916, rel=1e-8)


def test_dispersion_curve_crossing(capsys):
    code, payload = run_json(
        capsys,
        "dispersion-curve",
        "--u", "1.01", "--b", "1", "--t-max", "4", "--t-steps", "5", "--offset", "1",
    )
    assert code == 0
    crossing = payload["results"]["crossing"]
    assert crossing["lab"] == pytest.approx(3.458391130835402, rel=1e-9)
    assert crossing["entangled_clock"] == pytest.approx(2.458391130835402, rel=1e-9)
    # entangled column is empty before its pair exists
    assert payload["results"]["rows"][0]["dx_entangled"] is None


def test_dispersion_curve_at_a_huge_u_times_b_is_the_separable_curve(capsys):
    # (u b)^4 overflows at u b = 1e80, but both curves are finite and equal
    code, payload = run_json(capsys, "dispersion-curve", "--u", "1", "--b", "1e80",
                             "--t-steps", "6", "--offset", "1")
    assert code == 0
    rows = payload["results"]["rows"]
    for before, row in zip(rows, rows[1:]):  # t = 0, 1, ..., 5: the offset is one step
        assert row["dx_entangled"] == before["dx_separable"]
    assert payload["results"]["crossing"] == {"lab": 0.5, "entangled_clock": -0.5}


def test_dispersion_curve_holds_where_u_to_the_fourth_overflows(capsys):
    # u^4 overflows from u ~ 1.2e77, and 4 u^4 t^2 at t = 0 is NaN: the
    # curves are hypot(sqrt(alpha) / (2u), u t) there
    code, payload = run_json(capsys, "dispersion-curve", "--u", "1e78", "--b", "1",
                             "--t-steps", "3", "--offset", "1")
    assert code == 0
    rows = payload["results"]["rows"]
    assert [row["dx_separable"] for row in rows] == pytest.approx([5e-79, 2.5e78, 5e78], rel=1e-15)
    assert rows[0]["dx_entangled"] is None  # before the pair is produced
    assert [row["dx_entangled"] for row in rows[1:]] == pytest.approx([1.5e78, 4e78], rel=1e-15)
    assert payload["results"]["crossing"] == {"lab": 0.5, "entangled_clock": -0.5}
    code, out, _ = run_cli(capsys, "dispersion-curve", "--u", "1e78", "--b", "1", "--t-steps", "3")
    assert (code, out) == (0, "t,dx_separable,dx_entangled\n0,5e-79,5e-79\n"
                              "2.5,2.5e+78,2.5e+78\n5,5e+78,5e+78\n")


@pytest.mark.parametrize("u", [1e-3, 0.7, 1.01, 3.0, 1e20, 1e60, 1e76])
def test_dispersion_curves_keep_their_bits_where_finite(u):
    # the fallbacks apply only where the direct forms are not finite
    times = np.linspace(0.0, 5.0, 11)
    alpha = entangled_alpha(u, 2.0 / u)
    want = [math.sqrt(alpha + 4.0 * u**4 * t * t) / (2.0 * u) for t in times.tolist()]
    assert predicted_dispersion_entangled(u, 2.0 / u, times).tolist() == want
    u4 = u**4
    want_lab = (alpha - 1.0 + 4.0 * u4 * 0.5 * 0.5) / (8.0 * u4 * 0.5)
    assert crossing_times(u, 2.0 / u, 0.5).lab == want_lab


def test_dispersion_curve_domain_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "dispersion-curve", "--u", "1", "--b", "1")
    assert code == 2
    assert "error" in err


def test_protocol_mode2_noiseless_entangled(capsys):
    code, payload = run_json(
        capsys,
        "protocol", "--mode", "2", "--u", "1.01", "--b", "1", "--t0", "1",
        "--times", "0,0.5,1,1.5", "--noiseless",
    )
    assert code == 0
    trial = payload["results"]["trials"][0]
    assert trial["verdict"]["classification"] == "entangled"
    assert trial["verdict"]["b_hat"] == pytest.approx(1.0, rel=1e-6)
    assert trial["fit"]["alpha"] == pytest.approx(25.62810939116603, rel=1e-6)
    assert trial["fit"]["beta"] == pytest.approx(1.0, abs=1e-6)


def test_protocol_mode2_noiseless_separable(capsys):
    code, payload = run_json(
        capsys,
        "protocol", "--mode", "2", "--a", "1", "--b", "inf", "--t0", "2",
        "--times", "0,1,2", "--noiseless",
    )
    assert code == 0
    trial = payload["results"]["trials"][0]
    assert trial["verdict"]["classification"] == "separable"
    assert trial["verdict"]["b_hat"] == "inf"
    assert trial["fit"]["alpha"] == pytest.approx(1.0, abs=1e-8)
    assert trial["fit"]["beta"] == pytest.approx(2.0, abs=1e-8)


def test_protocol_mode1(capsys):
    code, payload = run_json(
        capsys,
        "protocol", "--mode", "1", "--u", "1.01", "--b", "1",
        "--times", "1", "--n-samples", "10000", "--seed", "7",
    )
    assert code == 0
    trial = payload["results"]["trials"][0]
    assert trial["verdict"]["classification"] == "entangled"
    assert trial["verdict"]["b_hat"] == pytest.approx(1.0, abs=0.05)
    assert payload["results"]["summary"]["entangled"] == 1


def test_protocol_deterministic_output(capsys):
    argv = (
        "protocol", "--mode", "2", "--u", "1.01", "--b", "1",
        "--times", "0,0.5,1", "--n-samples", "2000", "--seed", "11", "--trials", "2",
    )
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    _, different, _ = run_cli(capsys, *argv[:-1], "12")
    assert different != first


def test_protocol_ill_conditioned_exits_4(capsys):
    code, _, err = run_cli(
        capsys,
        "protocol", "--mode", "2", "--a", "1", "--b", "inf",
        "--times", "1,1.0000000000000002,1.0000000000000004", "--noiseless",
    )
    assert code == 4
    assert "ill conditioned" in err


def test_oracle_check_passes(capsys):
    code, payload = run_json(
        capsys,
        "oracle-check", "--a", "1", "--b", "2", "--times", "0,1", "--grid-n", "256",
    )
    assert code == 0
    assert payload["results"]["pass"] is True
    assert payload["results"]["cm_max_abs_delta"] < 1e-4
    for check in payload["results"]["checks"]:
        assert check["rel_dx"] < 1e-3
        assert check["rel_dp"] < 1e-3
        assert check["norm_drift"] < 1e-10


ORACLE_ARGV = ("oracle-check", "--a", "1", "--b", "2", "--kc", "0.5", "--times", "0,0.5,1,2",
               "--grid-n", "256")


def _count_transforms(monkeypatch, names) -> list:
    """The names of the ``np.fft`` transforms called from now on, in order."""
    calls = []

    def counted(name):
        transform = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls.append(name)
            return transform(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(np.fft, name, counted(name))
    return calls


def test_oracle_check_makes_no_2d_transforms(capsys, monkeypatch):
    # the grids are Schmidt factors: every transform is 1-D
    calls = _count_transforms(monkeypatch, ("fft2", "ifft2"))
    code, _, _ = run_cli(capsys, *ORACLE_ARGV)
    assert code == 0
    assert calls == []


def test_oracle_check_transforms_each_grid_once(capsys, monkeypatch):
    # 2 forward transforms at t = 0, whose spectra every evolution reuses;
    # 2 inverse ones for each of the 3 evolutions; 2 for the cross terms
    transforms = [name for name in np.fft.__all__ if "fft" in name and "freq" not in name
                  and "shift" not in name]
    calls = _count_transforms(monkeypatch, transforms)
    code, _, _ = run_cli(capsys, *ORACLE_ARGV)
    assert code == 0
    assert len(calls) <= 10, calls


def test_oracle_check_releases_each_evolved_grid(capsys, monkeypatch):
    # every time is evolved into the one buffer that holds the previous
    # time's factors, so nothing made of that time may be alive by then:
    # each view of the buffer holds a reference to it, and the buffer's count
    # of references is the same at the start of every time
    references, buffers = [], []

    def tracked(spectrum, phase, buffer):
        references.append(sys.getrefcount(buffer))
        buffers.append(weakref.ref(buffer))
        propagate(spectrum, phase, buffer)

    propagate = localent.oracle._propagate
    monkeypatch.setattr(localent.oracle, "_propagate", tracked)
    code, _, _ = run_cli(capsys, *ORACLE_ARGV)
    assert code == 0
    assert len(references) == 3 and len(set(references)) == 1
    assert all(ref() is None for ref in buffers)  # no view outlives the call either


def _conjugated(grid):
    """The grid of conj(psi), whose packet moves with -k_c: the conjugate
    packet phase on the support rows."""
    u, scale, rows, phase = grid._modes
    return dataclasses.replace(grid, _modes=(u, scale, rows, phase.conj()))


def _oracle_checks(capsys, b: str):
    code, out, _ = run_cli(capsys, "oracle-check", "--a", "1", "--b", b, "--kc", "-1.3",
                           "--times", "0,1", "--grid-n", "256")
    results = json.loads(out)["results"]
    # every width is right: only the packet's centre can fail these runs
    assert all(check["rel_dx"] < 1e-3 and check["rel_dp"] < 1e-3 for check in results["checks"])
    return code, results["pass"], [check["pass"] for check in results["checks"]]


@pytest.mark.parametrize("b", ["inf", "2"])
def test_oracle_check_fails_a_conjugated_packet_phase(capsys, monkeypatch, b):
    # swapping p and conj p between the factors keeps every width, the norm
    # and the centred correlation matrix; only the centres move, to -k_c t
    # and -k_c
    def conjugated(*args, **kwargs):
        return _conjugated(initial_grid(*args, **kwargs))

    initial_grid = localent.cli.initial_grid
    monkeypatch.setattr(localent.cli, "initial_grid", conjugated)
    assert _oracle_checks(capsys, b) == (3, False, [False, False])


@pytest.mark.parametrize("b", ["inf", "2"])
def test_oracle_check_fails_a_packet_that_drifts_backwards(capsys, monkeypatch, b):
    # every evolution runs U(-t): that keeps the widths, which are even in t
    # here, and the mean wavenumber; only the mean position moves, to -k_c t
    def backwards(k, times):
        return propagators(k, -times)

    propagators = localent.oracle._propagators
    monkeypatch.setattr(localent.oracle, "_propagators", backwards)
    assert _oracle_checks(capsys, b) == (3, False, [True, False])


def test_overflow_warnings_stay_off_stderr():
    # numpy would warn about the overflowing intermediates before the error line
    src = str(Path(localent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "localent.cli", "protocol", "--mode", "2", "--a", "1e200",
         "--b", "2", "--noiseless"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert re.fullmatch(r"error: [^\n]*\n", done.stderr)


def test_oracle_check_grid_failure_exits_3(capsys):
    # the first failing time in the schedule's order decides, not its sign
    for times, code, message in [
        ("0,2", 3, "packet reached the grid boundary at t = 2 "),
        ("-1,2", 2, "time must be nonnegative, got -1.0"),
        ("2,-1", 3, "packet reached the grid boundary at t = 2 "),
        ("0,-0.5,2", 2, "time must be nonnegative, got -0.5"),
        # three times to a stacked group here: the first leak is in the third
        ("0.1,0.2,0.25,0.1,0.2,0.25,0.25,2,0.5", 3, "packet reached the grid boundary at t = 2 "),
    ]:
        got, out, err = run_cli(capsys, "oracle-check", "--a", "1", "--b", "inf",
                                f"--times={times}", "--grid-n", "64", "--grid-L", "8")
        assert (got, out) == (code, "")
        assert err.startswith(f"error: {message}")


def test_csv_formatting(capsys):
    _, out, err = run_cli(capsys, "simon", "--a", "1", "--b", "2", "--format", "csv")
    assert out.startswith("I_general,I_closed,separable\n")
    assert "-0.166666667" in out  # 9 significant digits
    assert out.endswith("\n") and "\r" not in out
    assert err.startswith("config:")  # config echo for CSV runs


def test_output_file(tmp_path, capsys):
    target = tmp_path / "simon.json"
    code, out, _ = run_cli(
        capsys, "simon", "--a", "1", "--b", "2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["results"]["separable"] is False
    assert payload["metadata"]["version"]


@pytest.mark.parametrize(
    "longer, shorter",
    [
        ("eof-surface --a-steps 20 --b-steps 20", "eof-surface --a-steps 2 --b-steps 2"),
        ("protocol --mode 2 --a 1 --b 2 --n-samples 100 --trials 20",
         "protocol --mode 2 --a 1 --b 2 --n-samples 100 --trials 1"),
        # documents of many pieces, each written over the other
        ("protocol --mode 2 --a 1 --b 2 --n-samples 100 --trials 300",
         "protocol --mode 2 --a 1 --b 2 --n-samples 100 --trials 100"),
    ],
)
def test_output_file_is_rewritten_in_place(tmp_path, capsys, longer, shorter):
    # --out is written over without truncation and cut after: no tail of
    # the longer old text may be left behind the shorter new one
    target = tmp_path / "out"
    assert run_cli(capsys, *longer.split(), "--out", str(target))[0] == 0
    old_size = target.stat().st_size
    code, want, _ = run_cli(capsys, *shorter.split())
    assert code == 0
    assert run_cli(capsys, *shorter.split(), "--out", str(target))[:2] == (0, "")
    assert target.read_bytes() == want.encode()
    assert len(want) < old_size


def test_output_file_grows_over_a_shorter_one(tmp_path, capsys):
    target = tmp_path / "out.json"
    target.write_text("{}")
    assert run_cli(capsys, "simon", "--a", "1", "--b", "2", "--out", str(target))[0] == 0
    assert target.read_text() == run_cli(capsys, "simon", "--a", "1", "--b", "2")[1]


def test_output_to_a_device(capsys):
    # a device is not a regular file: it is written and never cut
    assert run_cli(capsys, "simon", "--a", "1", "--b", "2", "--out", os.devnull) == (0, "", "")


def test_new_output_file_mode(tmp_path, capsys):
    umask = os.umask(0o022)
    os.umask(umask)
    target = tmp_path / "new.csv"
    assert run_cli(capsys, "simon", "--a", "1", "--b", "2", "--format", "csv",
                   "--out", str(target))[0] == 0
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask


def test_output_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("x" * 10_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert run_cli(capsys, "simon", "--a", "1", "--b", "2", "--out", str(link))[0] == 0
    assert link.is_symlink()
    assert target.read_text() == run_cli(capsys, "simon", "--a", "1", "--b", "2")[1]


@pytest.mark.parametrize("argv, failing", [
    ("simon --a 1 --b 2", 1),  # the first and only piece
    # the third piece of a document of many, after two were written
    ("protocol --mode 2 --a 1 --b 2 --n-samples 100 --trials 200", 3),
], ids=["first-piece", "later-piece"])
def test_failed_write_leaves_an_empty_file(tmp_path, capsys, monkeypatch, argv, failing):
    target = tmp_path / "out.json"
    target.write_text("x" * 10_000)
    write, calls = os.write, []

    def failing_write(fd, data):
        calls.append(len(data))
        if len(calls) == failing:
            raise OSError(28, "No space left on device")
        return write(fd, data)

    monkeypatch.setattr(os, "write", failing_write)
    code, out, err = run_cli(capsys, *argv.split(), "--out", str(target))
    monkeypatch.undo()
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {str(target)!r}: No space left on device\n"
    assert len(calls) == failing
    assert target.read_bytes() == b""


@pytest.mark.parametrize("piece", [1, 3, cli._PIECE_FRAGMENTS])
def test_documents_written_in_pieces_are_the_standard_librarys(tmp_path, capsys, monkeypatch,
                                                                piece):
    # however many fragments make a piece, --out and stdout get the same
    # bytes, and they are json.dumps' own
    monkeypatch.setattr(cli, "_PIECE_FRAGMENTS", piece)
    target = tmp_path / "out.json"
    for argv in ("protocol --mode 2 --u 1.01 --b 1 --times 0,1,2 --n-samples 100 --trials 50",
                 "protocol --mode 1 --u 1.01 --b 1 --times 1 --n-samples 100 --trials 3",
                 "oracle-check --a 1 --b 2 --kc 0.5 --times 0,0.5 --grid-n 128"):
        code, text, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert run_cli(capsys, *argv.split(), "--out", str(target))[:2] == (0, "")
        assert target.read_bytes() == text.encode()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("where", ["missing-directory", "directory", "full-device"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    path = {"missing-directory": str(tmp_path / "missing" / "x.json"),
            "directory": str(tmp_path), "full-device": "/dev/full"}[where]
    if where == "full-device" and not os.path.exists(path):
        pytest.skip("no /dev/full on this platform")
    code, out, err = run_cli(capsys, "simon", "--a", "1", "--b", "2", "--out", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path!r}: ")
    assert err.count("\n") == 1


def test_protocol_requires_width_or_u(capsys):
    code, _, err = run_cli(capsys, "protocol", "--mode", "2", "--b", "2")
    assert code == 2
    assert "provide the source width" in err


def test_b_hat_matches_scenario_inversion(capsys):
    # protocol configured via --u reports the width it implies
    code, payload = run_json(
        capsys,
        "protocol", "--mode", "2", "--u", "1.01", "--b", "1", "--times", "0,1,2",
        "--noiseless",
    )
    assert code == 0
    assert payload["config"]["a"] == pytest.approx(7.053456158585982, rel=1e-9)
    assert math.isclose(payload["results"]["trials"][0]["verdict"]["b_hat"], 1.0, rel_tol=1e-6)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(localent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import localent.cli, sys; assert 'scipy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )


@pytest.mark.parametrize(
    "extra",
    [
        ("--seed", "-1"),
        ("--seed", str(2**64)),
        ("--trials", "-3"),
        ("--mode", "1", "--times", ""),
    ],
)
def test_protocol_input_escapes_exit_2(capsys, extra):
    code, out, err = run_cli(
        capsys, "protocol", "--mode", "2", "--a", "1", "--b", "2", "--n-samples", "100", *extra
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_protocol_metadata_names_rng_scheme(capsys):
    _, payload = run_json(
        capsys, "protocol", "--mode", "1", "--a", "1", "--b", "2", "--n-samples", "100"
    )
    assert payload["metadata"]["rng"] == "philox-chi2-v1"
    if ENVELOPE_SCHEMA is not None:  # the schema requires the label on protocol runs
        del payload["metadata"]["rng"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, ENVELOPE_SCHEMA)
    _, payload = run_json(capsys, "simon", "--a", "1", "--b", "2")
    assert "rng" not in payload["metadata"]


@pytest.mark.parametrize(
    "argv",
    [
        "eof-surface --a-steps -1",
        "dispersion-curve --u 1 --b 2 --t-steps -1",
        "eof-surface --a-steps 2 --b-steps 2 --a-max 1e300 --b-min 1e-200",
        "simon --a 1 --b 1e-200",
        "simon --a 1e200 --b 1",
        "oracle-check --a 1 --b 2 --times ,",
        "protocol --mode 1 --a 1e-200 --b 2 --noiseless",
        "protocol --mode 2 --a 1e200 --b 2 --noiseless",
        "protocol --mode 2 --a 1 --b inf --times 0,1,2 --noiseless --threshold-sigmas -1",
        "protocol --mode 1 --a 1 --b 2 --noiseless --threshold-sigmas -1",
        "protocol --mode 1 --a 1 --b 2 --noiseless --threshold-sigmas 0",
        "protocol --mode 2 --a 1 --b 2 --n-samples 100 --threshold-sigmas nan",
        "simon --a nan --b 2 --format csv",
        "protocol --mode 2 --a 1 --b 2 --times 0,nan,1 --noiseless",
        "protocol --mode 2 --a 1 --b 2 --times 0,1,inf --noiseless",
        "protocol --mode 2 --a 1 --b 2 --times 0,1,inf",
        "dispersion-curve --u 1 --b 2 --offset 1e300 --format csv",
        # alpha is below double precision beside 4 u^4 t^2 once u^4 overflows
        "protocol --mode 2 --u 1e78 --b 1 --noiseless",
        "protocol --mode 1 --u 1e78 --b 1 --noiseless",
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_escapes_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# each asks for 1 PiB or more in its first large array: no allocation can give
# that, so each fails at once
@pytest.mark.parametrize(
    "argv",
    [
        "protocol --mode 2 --a 1 --b 2 --trials 1000000000000000",
        "protocol --mode 1 --a 1 --b 2 --trials 1000000000000000 --noiseless",
        "eof-surface --a-steps 1000000000000000 --b-steps 2",
        "dispersion-curve --u 1.2 --b 1 --t-steps 1000000000000000 --format json",
    ],
)
def test_oversize_request_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == "error: the request does not fit in memory\n"


def _never_called(*args, **kwargs):
    raise AssertionError("allocated past the memory check")


# each needs 100 TB or more at its peak (for the oracle at n = 2^36, its
# O(n) vectors alone): the memory check refuses it before the first large
# array
@pytest.mark.parametrize(
    "argv,allocator",
    [
        ("oracle-check --a 1 --b 2 --grid-n 68719476736", "localent.oracle._axis"),
        ("protocol --mode 2 --a 1 --b 2 --trials 200000000000000",
         "localent.protocols._chi2_draws"),
        ("protocol --mode 1 --a 1 --b 2 --trials 400000000000000 --noiseless",
         "localent.protocols.np.zeros"),
    ],
)
def test_oversize_request_is_refused_before_allocating(capsys, monkeypatch, argv, allocator):
    monkeypatch.setattr(allocator, _never_called)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == "error: the request does not fit in memory\n"


def test_protocol_mode_1_refuses_csv_before_the_batch(capsys, monkeypatch):
    monkeypatch.setattr(localent.cli, "run_known_origin_batch", _never_called)
    argv = "protocol --mode 1 --u 1.01 --b 1 --times 1 --trials 200000 --format csv"
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == "error: command 'protocol' has no CSV rendering\n"


PROTOCOL_2000 = "protocol --u 1.01 --b 1 --n-samples 100 --trials 2000"


@pytest.mark.parametrize(
    "extra",
    ["--mode 1 --times 1", "--mode 1 --times 1 --noiseless",
     "--mode 2 --times 0,1,2", "--mode 2 --times 0,1,2 --format csv",
     "--mode 2 --times 0,0.5,1,1.5,2,3,4,5 --noiseless",
     "--mode 2 --times 0,0.5,1,1.5,2,3,4,5 --format csv"],
)
def test_memory_check_charges_the_traced_peak_of_a_protocol_run(capsys, monkeypatch, extra):
    # the batch and then the text of its output, the strings it is rendered
    # from and the copies that the writer joins
    argv = f"{PROTOCOL_2000} {extra}".split()
    charged = []
    monkeypatch.setattr(cli, "require_memory", charged.append)
    run_cli(capsys, *argv)  # one-time imports, untraced
    charged.clear()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= max(charged) <= 3 * peak


@pytest.mark.parametrize(
    "extra",
    ["--a 1.2 --b 2 --kc 0.8 --times 0,0.5,1,2 --grid-n 1024",
     "--a 1.2 --b 2 --kc 0.8 --times 0,0.5,1,2 --grid-n 16384",
     "--a 1 --b 0.25 --kc 0.5 --times 0,0.25,0.5 --grid-n 1024",
     "--a 1 --b 0.125 --kc 0.5 --times 0,0.25 --grid-n 1024",  # rank 180
     # 501 times: the schedule holds one group of them at once, the output all
     pytest.param("--a 1 --b 2 --kc 0.5 --grid-n 256 --times "
                  + ",".join(f"{i / 100:g}" for i in range(501)), id="501-times")],
)
def test_memory_check_charges_the_traced_peak_of_an_oracle_check(capsys, monkeypatch, extra):
    # initial_grid charges its factorisation; oracle-check then charges the
    # factors, spectra, spectral power, the schedule's buffer and group of
    # times, the temporaries of moments and its output, whose peaks come
    # after initial_grid's
    charged = []

    def spy(module):
        real = module.require_memory

        def charge(nbytes):
            charged.append(nbytes)
            real(nbytes)

        monkeypatch.setattr(module, "require_memory", charge)

    spy(localent.oracle)
    spy(cli)
    argv = f"oracle-check {extra}".split()
    run_cli(capsys, "oracle-check", "--a", "1", "--b", "2", "--grid-n", "64")  # untraced imports
    charged.clear()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= max(charged) <= 2 * peak


def test_oracle_check_charges_its_memory_before_the_moments(capsys, monkeypatch):
    def refuse(nbytes):
        raise MemoryError(f"{nbytes} bytes")

    monkeypatch.setattr(cli, "require_memory", refuse)
    monkeypatch.setattr(cli, "moments", _never_called)
    code, out, err = run_cli(capsys, "oracle-check", "--a", "1", "--b", "2")
    assert (code, out) == (2, "")
    assert err == "error: the request does not fit in memory\n"


# b = a/4 on a 173-row support: the factors' exact squared residual must
# stay within the 0.9896 of the limit that the bound outside it leaves
def test_oracle_check_factorises_b_a_quarter_at_n_2048(capsys):
    argv = "oracle-check --a 1 --b 0.25 --kc 0.5 --times 0,0.5,1,2 --grid-n 2048".split()
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


def test_under_resolved_grid_exits_3_before_the_factorisation_is_charged(capsys, monkeypatch):
    # r ~ 22 a/b = 2.2e5 Hermite functions would need ~4 TB; the grid's
    # renormalization check refuses the state first, on any machine
    monkeypatch.setattr(os, "sysconf", lambda name: 2**30 if name == "SC_PHYS_PAGES" else 1)
    code, out, err = run_cli(capsys, *"oracle-check --a 1 --b 1e-4 --grid-n 1024".split())
    assert (code, out) == (3, "")
    assert err == "error: grid under-resolves the state (renormalization factor 0.000067)\n"


def test_protocol_output_that_does_not_fit_exits_2(capsys, monkeypatch):
    # memory for twice the batch, but not for its output as well
    argv = f"{PROTOCOL_2000} --mode 2 --times 0,1,2".split()
    physical = 2 * localent.protocols._batch_bytes(2000, 3)
    monkeypatch.setattr(os, "sysconf", lambda name: physical if name == "SC_PHYS_PAGES" else 1)
    scenario = HiddenScenario(PairParams(a=1.0, b=2.0))
    run_blind_batch(scenario, [0.0, 1.0, 2.0], 100, trials=2000)  # the batch alone fits
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: the request does not fit in memory\n"


@pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_offset_exits_2_naming_it(capsys, monkeypatch, offset, fmt):
    monkeypatch.setattr(localent.cli, "predicted_dispersion_separable", _never_called)
    code, out, err = run_cli(capsys, "dispersion-curve", "--u", "1.2", "--b", "1",
                             f"--offset={offset}", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == f"error: production offset --offset must be finite, got {offset}\n"


def test_nan_width_exits_2_naming_it(capsys):
    code, out, err = run_cli(capsys, "protocol", "--mode", "2", "--u", "1.2", "--b", "nan")
    assert (code, out) == (2, "")
    assert err == "error: anticorrelation width b must be positive (or math.inf), got nan\n"


@pytest.mark.parametrize("kc", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        # it once exited 3 as a grid that under-resolves the state
        "oracle-check --a 1 --b 2",
        # it once ran the whole batch, then exited 2 with the out-of-range line
        "protocol --mode 2 --u 1.01 --b 1",
    ],
)
def test_non_finite_kc_exits_2_naming_it(capsys, argv, kc):
    code, out, err = run_cli(capsys, *argv.split(), f"--kc={kc}")
    assert (code, out) == (2, "")
    assert err == f"error: packet center wavenumber k_c must be finite, got {kc}\n"


@pytest.mark.parametrize("t0", ["nan", "inf"])
@pytest.mark.parametrize("mode", ["1", "2"])
@pytest.mark.parametrize("noise", [["--noiseless"], ["--n-samples", "100"]])
def test_non_finite_t0_exits_2_naming_it(capsys, t0, mode, noise):
    code, out, err = run_cli(capsys, "protocol", "--mode", mode, "--u", "1.01", "--b", "1",
                             "--t0", t0, "--times", "0,1,2", *noise)
    assert (code, out) == (2, "")
    assert err == f"error: production offset t0 must be finite, got {t0}\n"


@pytest.mark.parametrize(
    "option,value,named",
    [
        ("--times", "nan", "measurement times must be finite, got [nan]"),
        ("--times", "inf", "measurement times must be finite, got [inf]"),
        # the first time once sized the grid, so the order decided the outcome
        ("--times", "nan,1", "measurement times must be finite, got [nan, 1.0]"),
        ("--times", "1,nan", "measurement times must be finite, got [1.0, nan]"),
        ("--grid-L", "nan", "grid extent must be finite, got nan"),
        ("--grid-L", "inf", "grid extent must be finite, got inf"),
    ],
)
def test_oracle_check_non_finite_input_exits_2_naming_it(capsys, option, value, named):
    code, out, err = run_cli(capsys, "oracle-check", "--a", "1", "--b", "2", "--grid-n", "64",
                             f"{option}={value}")
    assert (code, out) == (2, "")
    assert err == f"error: {named}\n"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


_FLOATS = st.one_of(
    st.builds(lambda sign, exponent: sign * 10.0**exponent,
              st.sampled_from((1.0, -1.0)), st.floats(-300.0, 300.0)),
    st.sampled_from((0.0, math.inf, math.nan)),
)
_COUNTS = st.integers(-3, 12)
_WIDTHS = st.floats(0.1, 10.0)
_TIMES = st.floats(0.0, 5.0)
# the range in which each float option is valid; one option per argv is drawn
# from the extreme values of _FLOATS instead, or none is
_VALID = {
    "a": _WIDTHS, "u": _WIDTHS, "b": st.one_of(st.floats(0.1, 100.0), st.just(math.inf)),
    "a-min": _WIDTHS, "a-max": _WIDTHS, "b-min": _WIDTHS, "b-max": st.floats(0.1, 100.0),
    "t0": _TIMES, "t-min": _TIMES, "t-max": _TIMES, "offset": _TIMES,
    "kc": st.floats(-3.0, 3.0), "grid-L": st.floats(1.0, 100.0),
    "threshold-sigmas": st.floats(0.1, 10.0),
}
_FUZZED = {
    "simon": ("a", "b"),
    "eof-surface": ("a-min", "a-max", "b-min", "b-max"),
    "dispersion-curve": ("u", "b", "t-min", "t-max", "offset"),
    "oracle-check": ("a", "b", "kc", "times", "grid-L"),
    "protocol": ("a", "u", "b", "kc", "t0", "times", "threshold-sigmas"),
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(tuple(_FUZZED)))
    extreme = draw(st.sampled_from((None, *_FUZZED[command])))

    def floats(name):
        return _FLOATS if name == extreme else _VALID[name]

    def opt(name, values=None):
        return f"--{name}={draw(floats(name) if values is None else values)}"

    def times():
        if extreme == "times":
            values = draw(st.lists(_FLOATS, max_size=4))
        else:  # increasing, as the blind fit needs
            values = sorted(draw(st.lists(_TIMES, min_size=1, max_size=4, unique=True)))
        return "--times=" + ",".join(map(repr, values))

    if command == "simon":
        argv = [opt("a"), opt("b")]
    elif command == "eof-surface":
        argv = [opt(name, _COUNTS if name.endswith("steps") else None)
                for name in ("a-min", "a-max", "a-steps", "b-min", "b-max", "b-steps")]
    elif command == "dispersion-curve":
        argv = [opt(name, _COUNTS if name == "t-steps" else None)
                for name in ("u", "b", "t-min", "t-max", "t-steps", "offset")]
    elif command == "oracle-check":
        argv = [opt("a"), opt("b"), opt("kc"), times(), "--grid-n=64"]
        argv += [opt("grid-L")] if extreme == "grid-L" or draw(st.booleans()) else []
    else:
        argv = [opt("mode", st.sampled_from((1, 2))), opt(draw(st.sampled_from(("a", "u")))),
                opt("b"), opt("kc"), opt("t0"), times(),
                opt("n-samples", st.one_of(_COUNTS, st.just(10_000))), opt("trials", _COUNTS),
                opt("seed", _COUNTS), opt("threshold-sigmas")]
        argv += ["--noiseless"] if draw(st.booleans()) else []
    return [command, *argv, opt("format", st.sampled_from(("json", "csv")))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite intermediates are expected
@given(argv=_fuzz_argv())
# its crossing overflowed to inf, which CSV once wrote to stderr with exit 0
@example(argv=["dispersion-curve", "--u=1.0", "--b=2.0", "--t-min=0.0", "--t-max=5.0",
               "--t-steps=3", "--offset=1e+300", "--format=csv"])
@settings(max_examples=300, deadline=None)
def test_cli_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0 and "--format=json" in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    if code == 0 and "--format=csv" in argv:
        crossing = [line for line in err.getvalue().splitlines() if line.startswith("crossing:")]
        for text in (out.getvalue(), *crossing):
            cells = re.split(r"[\s,=]+", text)
            assert not [cell for cell in cells if cell.lower().lstrip("+-") in ("inf", "nan")], text
    if code in (2, 4):
        assert out.getvalue() == ""


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    joined = re.sub(r"\\\n\s*", " ", block)
    return [line for line in joined.splitlines() if line.startswith("localent ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(tmp_path, capsys, line):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


# --- the JSON writer ----------------------------------------------------------------

_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, 1e308, -1e308, 0.1, 1e16)),
    st.text(),
    st.sampled_from(("", "\x00\x1f\t\n\"\\/", "\u00e9\u2028\U0001f600", "%s %%", "inf")),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=40,
)


@given(value=_JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, allow_nan=False)
    assert cli._dumps(value, indent=None) == json.dumps(value, allow_nan=False)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(key=st.text(), constant=_JSON_VALUES,
       cells=st.lists(st.tuples(_FINITE, st.text(), st.one_of(_FINITE, st.just("inf"))),
                      max_size=5))
@settings(max_examples=200, deadline=None)
def test_json_writer_records_match_their_rows(key, constant, cells):
    # a float column, a string column, an object column of floats and "inf",
    # and one array object at two leaves
    floats, texts, mixed = (list(column) for column in zip(*cells)) if cells else ([], [], [])
    x = np.array(floats, dtype=float)
    label = np.array(texts, dtype=str)
    b_hat = np.array(mixed, dtype=object)
    skeleton = {f"k{key}": constant, "x": x, "label": label, "b_hat": b_hat, "pair": [x, [x]]}
    rows = [{f"k{key}": constant, "x": value, "label": text, "b_hat": b, "pair": [value, [value]]}
            for value, text, b in zip(x.tolist(), label.tolist(), b_hat.tolist())]
    records = cli._Records(skeleton, len(cells))
    assert cli._dumps({"rows": records}) == json.dumps({"rows": rows}, indent=2)
    assert cli._dumps({"rows": records}, indent=None) == json.dumps({"rows": rows})


def _assert_records_match(skeleton, count, rows):
    records = cli._Records(skeleton, count)
    for value, expected in (({"rows": records}, {"rows": rows}), (records, rows)):
        assert cli._dumps(value) == json.dumps(expected, indent=2)
        assert cli._dumps(value, indent=None) == json.dumps(expected)


@pytest.mark.parametrize("count", [1, 3])
def test_json_writer_records_without_a_column(count):
    skeleton = {"a": 1, "b": [None, "x"], "c": {}}
    _assert_records_match(skeleton, count, [skeleton] * count)


def test_json_writer_records_with_columns_at_the_first_and_last_leaf():
    x = np.array([0.5, -1e-300, 3.0])
    label = np.array(["p", "", "q\n"])
    skeleton = {"x": x, "middle": {"k": [1, 2]}, "label": label}
    rows = [{"x": value, "middle": {"k": [1, 2]}, "label": text}
            for value, text in zip(x.tolist(), label.tolist())]
    _assert_records_match(skeleton, 3, rows)
    _assert_records_match([x, label], 3, [list(row) for row in zip(x.tolist(), label.tolist())])


def test_json_writer_record_with_one_column_at_two_leaves():
    x = np.array([0.25])
    _assert_records_match({"a": x, "b": [x]}, 1, [{"a": 0.25, "b": [0.25]}])


def test_json_writer_records_keep_percent_signs_and_nul_characters():
    # the skeleton's text is split at the column leaves, so no literal text
    # is taken for a format directive or a column leaf
    x = np.array([1.5, 2.5])
    constants = {"%": "%s", "%s": "%%s %d", "\x00": "\x00%", "%(x)s": ["\x00", "%"]}
    rows = [{**constants, "x%": value, "\x00x": [value, "%s"]} for value in x.tolist()]
    _assert_records_match({**constants, "x%": x, "\x00x": [x, "%s"]}, 2, rows)


def test_json_writer_records_with_null_and_float_cells():
    # as dispersion-curve writes dx_entangled before the pair is produced
    cells = np.array([None, None, 0.5, 1e-300], dtype=object)
    t = np.array([0.0, 0.5, 1.0, 1.5])
    rows = [{"t": time, "dx": cell} for time, cell in zip(t.tolist(), cells.tolist())]
    _assert_records_match({"t": t, "dx": cells}, 4, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_writer_rejects_non_finite_numbers(bad):
    envelopes = [
        bad,
        [1, bad],
        {"a": {"b": (0.5, bad)}},
        {"rows": cli._Records({"x": np.array([0.0, bad]), "y": 1}, 2)},
        {"rows": cli._Records({"x": np.array([0.0, 1.0]), "y": bad}, 2)},
        {"rows": cli._Records({"x": np.array([0.0, "inf", bad], dtype=object), "y": 1}, 3)},
    ]
    for value in envelopes:
        for indent in ("  ", None):
            with pytest.raises(DomainError):
                cli._dumps(value, indent)


# --- the CSV writer ---------------------------------------------------------------

_CSV_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from((-0.0, 1e-300, 1e300, -1e300, 5e-324)))


def _csv_columns(rows: int):
    def column(cells, as_array):
        return st.tuples(st.lists(cells, min_size=rows, max_size=rows), st.just(as_array))

    return st.lists(
        st.one_of(
            column(_CSV_FLOATS, True),
            column(_CSV_FLOATS, False),
            column(st.integers(-(2**62), 2**62), True),
            column(st.integers(-(2**80), 2**80), False),
            column(st.booleans(), False),
            column(st.one_of(st.none(), _CSV_FLOATS), False),
            column(st.none(), False),
        ),
        min_size=1,
        max_size=5,
    )


@given(columns=st.integers(0, 6).flatmap(_csv_columns))
@example(columns=[([0, 2**63], False)])  # numpy holds these two Python ints as float64
@settings(max_examples=300, deadline=None)
def test_csv_writer_matches_fmt(columns):
    names = [f"c{j}" for j in range(len(columns))]
    table = {name: np.array(cells) if as_array else cells
             for name, (cells, as_array) in zip(names, columns)}
    lines = [",".join(names)]
    lines += [",".join(map(cli._fmt, row)) for row in zip(*(cells for cells, _ in columns))]
    assert cli._csv_text(table) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_writer_rejects_non_finite_numbers(bad):
    for column in (np.array([0.5, bad]), [0.5, bad], [None, bad]):
        with pytest.raises(DomainError):
            cli._csv_text({"n": [1, 2], "x": column})


@pytest.mark.parametrize("rows, pieces", [(0, 1), (1, 1), (511, 1), (512, 1), (513, 2), (1025, 3)])
def test_csv_table_is_rendered_in_blocks_of_rows(rows, pieces):
    # the bytes of one %-format over the whole table, a piece per block of rows
    columns = {"i": np.arange(rows), "x": np.linspace(-1.0, 1.0, rows),
               "c": [None if i % 3 else i * 0.5 for i in range(rows)]}
    lines = ["i,x,c"] + [",".join(map(cli._fmt, row))
                         for row in zip(range(rows), np.linspace(-1.0, 1.0, rows).tolist(),
                                        columns["c"])]
    got = list(cli._csv_pieces(columns))
    assert len(got) == pieces
    assert "".join(got) == "\n".join(lines) + "\n"
    assert got[0].startswith("i,x,c\n")


def test_csv_table_is_checked_before_a_piece_is_drawn():
    columns = {"x": np.append(np.zeros(2 * cli._PIECE_FRAGMENTS), np.nan)}
    with pytest.raises(DomainError):
        cli._csv_pieces(columns)


def test_large_csv_table_is_written_in_pieces(tmp_path, capsys, monkeypatch):
    argv = ["eof-surface", "--a-steps", "30", "--b-steps", "30"]  # 900 rows: two pieces
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0 and text.count("\n") == 901
    target = tmp_path / "surface.csv"
    target.write_text("x" * 100_000)
    write, sizes = os.write, []

    def counting_write(fd, data):
        sizes.append(len(data))
        return write(fd, data)

    monkeypatch.setattr(os, "write", counting_write)
    assert run_cli(capsys, *argv, "--out", str(target))[:2] == (0, "")
    monkeypatch.undo()
    assert len(sizes) == 2
    assert target.read_bytes() == text.encode()


def _reference_trials(batch, mode: int) -> list[dict]:
    """The per-trial dicts the protocol command built before it wrote its
    trials column by column."""

    def verdict(classification, b_hat, confidence):
        return {"classification": classification, "b_hat": "inf" if math.isinf(b_hat) else b_hat,
                "confidence": confidence}

    if mode == 1:
        columns = (batch.classification, batch.b_hat, batch.confidence, batch.u_hat,
                   batch.dx_hat, batch.stderr, batch.predicted_separable)
        return [
            {"verdict": verdict(c, b, conf), "u_hat": u_hat, "t_known": batch.t_known,
             "dx_hat": dx_hat, "stderr": stderr, "predicted_separable": predicted}
            for c, b, conf, u_hat, dx_hat, stderr, predicted in zip(
                *(column.tolist() for column in columns)
            )
        ]
    columns = (batch.classification, batch.b_hat, batch.confidence, batch.u_hat,
               batch.u_stderr, batch.alpha, batch.beta, batch.alpha_sigma,
               batch.param_cov, batch.residual_rms, batch.dx_hat, batch.stderr)
    t_list = batch.times.tolist()
    return [
        {
            "verdict": verdict(c, b, conf),
            "u_hat": u_hat,
            "u_stderr": u_stderr,
            "fit": {"alpha": alpha, "beta": beta, "alpha_sigma": alpha_sigma,
                    "param_cov": cov, "residual_rms": rms},
            "series": [
                {"t": t, "dx_hat": d, "stderr": s, "n_samples": batch.n_samples}
                for t, d, s in zip(t_list, dx_row, stderr_row)
            ],
        }
        for c, b, conf, u_hat, u_stderr, alpha, beta, alpha_sigma, cov, rms, dx_row,
        stderr_row in zip(*(column.tolist() for column in columns))
    ]


@pytest.mark.parametrize("trials", [0, 1, 7, 200])
@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("b", ["2", "inf"])
@pytest.mark.parametrize("noiseless", [True, False])
def test_protocol_output_matches_reference_dicts(capsys, trials, mode, b, noiseless):
    times = [0.0, 0.7, 1.5]
    noise = ["--noiseless"] if noiseless else ["--n-samples", "400", "--seed", "11"]
    argv = ["protocol", "--mode", str(mode), "--a", "1", "--b", b, "--t0", "0.3",
            "--times", "0,0.7,1.5", "--trials", str(trials), *noise]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    scenario = HiddenScenario(PairParams(a=1.0, b=float(b)), t0=0.3)
    run = {"n_samples": 10_000 if noiseless else 400, "seed": 0 if noiseless else 11,
           "trials": trials, "noiseless": noiseless}
    if mode == 1:
        batch = run_known_origin_batch(scenario, times[0], **run)
    else:
        batch = run_blind_batch(scenario, times, **run)
    reference = _reference_trials(batch, mode)
    payload = json.loads(out)
    payload["results"]["trials"] = reference
    assert out == json.dumps(payload, indent=2) + "\n"
    if mode == 2:
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = [(i, point["t"], point["dx_hat"], point["stderr"], point["n_samples"])
                for i, trial in enumerate(reference) for point in trial["series"]]
        lines = ["trial,t,dx_hat,stderr,n_samples"]
        lines += [f"{i},{t:.9g},{d:.9g},{s:.9g},{n}" for i, t, d, s, n in rows]
        assert out == "\n".join(lines) + "\n"


# --- the parser -------------------------------------------------------------------


def test_parser_is_built_once(capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for argv in (["simon", "--a", "1", "--b", "2"], ["eof-surface", "--a-steps", "2"],
                 ["simon", "--a", "1", "--b", "inf"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 1


def test_cli_import_builds_no_parser():
    src = str(Path(localent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c",
         "import localent.cli as cli; assert cli._parser.cache_info().currsize == 0"],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )


def test_subcommand_is_parsed_by_its_own_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simon", "--a", "1", "--b", "2", "--bogus", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: localent simon ")
    assert "localent simon: error: unrecognized arguments: --bogus 3" in err


@pytest.mark.parametrize("argv, code", [([], 2), (["nocmd"], 2), (["-h"], 0)])
def test_other_argv_takes_the_top_level_parser(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert (captured.out + captured.err).startswith("usage: localent [-h]")


@pytest.mark.parametrize(
    "argv",
    [
        "eof-surface --a-steps 2 --b-steps 2",
        "simon --a 1 --b inf",
        "dispersion-curve --u 1 --b 2 --t-steps 3 --offset 0.5",
        "protocol --mode 2 --u 1.01 --b 1 --noiseless",
        "oracle-check --a 1 --b 2 --times 0 --grid-n 64",
    ],
)
def test_config_echo_key_order(capsys, argv):
    # the order the top-level parser gives: command first, then the
    # subcommand's options as --help lists them
    args = vars(build_parser().parse_args(argv.split()))
    want = [key for key in args if key not in ("format", "out", "func")]
    if argv.startswith("protocol"):
        want.remove("u")  # echoed as the width a it implies
    _, payload = run_json(capsys, *argv.split())
    assert list(payload["config"]) == want
    assert want[0] == "command"


def test_parser_options_do_not_leak_between_calls(capsys):
    _, first = run_json(capsys, "protocol", "--mode", "2", "--a", "1", "--b", "2",
                        "--times", "0,2,4", "--noiseless")
    assert first["config"]["times"] == [0.0, 2.0, 4.0]
    assert first["config"]["noiseless"] is True
    _, second = run_json(capsys, "protocol", "--mode", "2", "--a", "1", "--b", "2",
                         "--n-samples", "100")
    assert second["config"]["times"] == list(DEFAULT_TIMES)
    assert second["config"]["noiseless"] is False


def test_parser_survives_an_argparse_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--mode", "3", "--a", "1", "--b", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, payload = run_json(capsys, "simon", "--a", "1", "--b", "2")
    assert code == 0
    assert payload["results"]["separable"] is False


# --- the walk over well-formed argv ------------------------------------------------


def _outcome(run, argv):
    """(exit code, stdout, stderr) of ``run(argv)``, an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _argparse_main(argv):
    """``main`` with every argv parsed by argparse: by the subcommand's
    parser, as the top-level parser would hand it over."""
    command = build_parser().commands[argv[0]]
    args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    with np.errstate(all="ignore"):
        try:
            return args.func(args)
        except tuple(cli.EXIT_CODES) as exc:
            kind = next(kind for kind in cli.EXIT_CODES if isinstance(exc, kind))
            print(f"error: {cli._MESSAGES.get(kind, exc)}", file=sys.stderr)
            return cli.EXIT_CODES[kind]


def _respelled(argv: list) -> list:
    """``argv``, of options in full, with each value of an option with a type
    that begins with ``-`` joined to its option as ``--opt=value``."""
    table = build_parser().commands[argv[0]]._option_string_actions
    out, tokens = argv[:1], iter(argv[1:])
    for token in tokens:
        action = table[token]
        if action.nargs == 0:
            out.append(token)
            continue
        value = next(tokens)
        out += [f"{token}={value}"] if action.type and value.startswith("-") else [token, value]
    return out


_NEGATIVE_VALUES = [
    "protocol --mode 2 --u 1.01 --b 1 --times -1,2 --noiseless",
    "protocol --mode 2 --u 1.01 --b 1 --kc -1e5 --noiseless",
    "protocol --mode 2 --u 1.01 --b -inf --noiseless",
    "protocol --mode 2 --a -1e5 --b 1 --noiseless",
    "protocol --mode 1 --u 1.01 --b 1 --times -1,2 --noiseless",
    "protocol --mode 1 --u 1.01 --b 1 --t0 -1e-3 --noiseless",
    "protocol --mode 1 --u -1e5 --b 1 --noiseless",
    "oracle-check --a 1 --b inf --times -1,2 --grid-n 64 --grid-L 8",
    "oracle-check --a 1 --b 2 --kc -1e5 --grid-n 64",
    "oracle-check --a 1 --b -inf --grid-n 64",
    "oracle-check --a 1 --b 2 --kc -5e-1 --times 0,0.5 --grid-n 128 --grid-L 12",
]


@pytest.mark.parametrize("argv", _NEGATIVE_VALUES)
def test_negative_values_read_as_their_equals_spelling(argv):
    spaced = argv.split()
    joined = _respelled(spaced)
    assert joined != spaced
    got = _outcome(main, spaced)
    assert got == _outcome(main, joined)
    assert "usage:" not in got[2]
    assert got[0] in (0, 2, 3)


def test_negative_time_exits_2_naming_it():
    code, out, err = _outcome(main, _NEGATIVE_VALUES[0].split())
    assert (code, out) == (2, "")
    assert err.startswith("error: time must be nonnegative")


@pytest.mark.parametrize("option", ["--out", "--format"])
def test_untyped_options_keep_argparses_rule_for_negative_values(option):
    argv = ["simon", "--a", "1", "--b", "2", option, "-1,2"]  # no Python's negative number
    assert _outcome(main, argv) == _outcome(_argparse_main, argv)
    assert "expected one argument" in _outcome(main, argv)[2]


@pytest.mark.parametrize("name", ["--", "-x"])
def test_equals_joined_out_value_is_taken_verbatim(tmp_path, capsys, monkeypatch, name):
    # only a separate token can be taken for an option: --out=-- names a
    # file "--", where argparse would drop the "--" and write to stdout
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simon", "--a", "1", "--b", "2", f"--out={name}")
    assert (code, out, err) == (0, "", "")
    assert (tmp_path / name).read_text() == run_cli(capsys, "simon", "--a", "1", "--b", "2")[1]
    assert [path.name for path in tmp_path.iterdir()] == [name]


def test_well_formed_argv_reaches_no_argparse_parse(tmp_path, capsys, monkeypatch):
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    lines = [shlex.split(line)[1:] for line in _readme_cli_lines()]
    lines += [  # each subcommand with every option given
        ["eof-surface", "--a-min", "1", "--a-max", "2", "--a-steps", "3", "--b-min", "1",
         "--b-max=2", "--b-steps", "3", "--format", "json", "--out", "full.out"],
        ["simon", "--a", "1", "--b", "2", "--format", "csv", "--out", "full.out"],
        ["dispersion-curve", "--u", "1", "--b", "2", "--t-min", "0", "--t-max", "1",
         "--t-steps", "3", "--offset", "0.5", "--format", "json", "--out", "full.out"],
        ["protocol", "--mode", "2", "--a", "1", "--u", "1.01", "--b", "1", "--kc=0.5",
         "--t0", "0.5", "--times", "0,1,2", "--n-samples", "100", "--trials", "2",
         "--threshold-sigmas", "3", "--noiseless", "--seed", "1", "--format", "csv",
         "--out", "full.out"],
        ["oracle-check", "--a", "1", "--b", "2", "--kc", "0.5", "--times", "0,0.5",
         "--grid-n", "64", "--grid-L", "12", "--format", "csv", "--out", "full.out"],
    ]
    for argv in lines:
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / Path(argv[at]).name)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
    assert len(lines) >= 12
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [f"{command} -h" for command in ("eof-surface", "simon", "dispersion-curve", "protocol",
                                     "oracle-check")]
    + [
        "simon --a 1 --b 2 --bogus 3",
        "simon --a 1 --b 2 --form csv",
        "simon --a 1",
        "simon --a x --b 2",
        "protocol --mode 3 --a 1 --b 2",
    ],
)
def test_other_subcommand_argv_is_argparses(argv):
    assert _outcome(main, argv.split()) == _outcome(_argparse_main, argv.split())


_OPTIONS = {
    name: [action for action in command._actions if action.option_strings]
    for name, command in build_parser().commands.items()
}
_VALUE_POOL = st.one_of(
    st.floats().map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(("inf", "-inf", "nan", "", "-1", "-1e5", "-1,2", "1,2", "0,nan", "-h",
                     "--a", "--", "csv", "json", "3")),
)


@st.composite
def _walk_argv(draw):
    """A subcommand, its argv, the argv with each value of an option with a
    type that begins with ``-`` spelled ``--opt=value`` (None where a token
    is not one of the options in full), and whether such a token is there:
    an abbreviation, an unknown option, ``-h``, an option with no value, or
    a required option missing."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    table = build_parser().commands[command]._option_string_actions
    named = [action for action in _OPTIONS[command] if action.dest != "help"]
    required = [action for action in named if action.required]
    picks = required + draw(st.lists(st.sampled_from(named), max_size=5))
    kind = draw(st.sampled_from(("none",) * 5 + ("abbreviation", "unknown", "missing", "help",
                                                 "unrequired")))
    if kind == "unrequired" and required:  # no value for a required option
        gone = draw(st.sampled_from(required))
        picks = [action for action in picks if action is not gone]
    items, plain = [], []  # the argv's items, each an option with its value
    for action in draw(st.permutations(picks)):
        option = action.option_strings[0]
        if action.nargs == 0:
            items.append([option])
            plain.append(option)
            continue
        valid = st.sampled_from([str(choice) for choice in action.choices or range(4)])
        value = draw(st.one_of(valid, _VALUE_POOL))
        typed_negative = action.type is not None and value.startswith("-")
        if draw(st.booleans()):
            items.append([option, value])
            plain += [f"{option}={value}"] if typed_negative else [option, value]
        else:
            items.append([f"{option}={value}"])
            plain.append(f"{option}={value}")
    stray = [] if kind == "unrequired" and required else None
    if kind == "abbreviation":
        option = draw(st.sampled_from([option for option in table if len(option) > 3]))
        stray = option[:draw(st.integers(3, len(option) - 1))]
        stray = None if stray in table else [stray + "=1"]
    elif kind in ("unknown", "help"):
        stray = ["--bogus" if kind == "unknown" else "-h"]
    if stray:
        items.insert(draw(st.integers(0, len(items))), stray)
    argv = [token for item in items for token in item]
    if kind == "missing":
        option = draw(st.sampled_from(named))
        argv.append(option.option_strings[0])
        plain.append(option.option_strings[0])
        stray = [] if option.nargs != 0 else None  # a flag needs no value
    return command, argv, plain if stray is None else None, stray is not None


def _same(got, want) -> bool:
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(map(_same, got, want)))
    return type(got) is type(want) and got == want


@given(drawn=_walk_argv())
@example(drawn=("simon", ["--a", "1", "--b", "2", "--out=--"],
                ["--a", "1", "--b", "2", "--out=--"], False))
@settings(max_examples=600, deadline=None)
def test_walk_gives_argparses_namespace(drawn):
    command, argv, plain, malformed = drawn
    got = cli._walk(cli._parser().commands[command], command, argv)
    if malformed:
        assert got is None
    if got is None:
        return
    assert plain is not None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            want = build_parser().parse_args([command, *plain])
        except SystemExit:
            pytest.fail(f"argparse refuses {plain}: {err.getvalue()}")
    assert list(vars(got)) == list(vars(want))
    outs = [token for token in argv if token == "--out" or token.startswith("--out=")]
    for key, value in vars(want).items():
        if key == "func":
            assert vars(got)[key] is getattr(cli, value.__name__)
        elif key == "out" and outs[-1:] == ["--out=--"]:
            # the one intended difference: argparse drops an explicit "--"
            assert (vars(got)[key], value) == ("--", [])
        else:
            assert _same(vars(got)[key], value), key
