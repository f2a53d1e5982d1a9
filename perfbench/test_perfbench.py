"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench

They run the real ``run.py`` in subprocesses, so they take about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B")


@pytest.fixture
def scratch():
    """A scratch directory inside the checkout, which the benchmark keeps to."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as path:
        yield Path(path)


def bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def summary(workload: str, seed: int, trace: int) -> dict:
    done = bench(ROOT, workload, seed, trace)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, done.stdout
    return doc["metrics"]


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.WORK_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_match_benchmark_json(workload):
    metrics = summary(workload, seed=3, trace=0)
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = summary(workload, seed=3, trace=1)
    assert {name: m["unit"] for name, m in first.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(m["value"]) for m in first.values())
    again = summary(workload, seed=3, trace=1)
    other = summary(workload, seed=4, trace=1)
    for name, metric in first.items():
        if metric["unit"] in COUNT_UNITS:
            assert again[name]["value"] == metric["value"], name
    # The seed draws parameters, never the amount of sampling or FFT work.
    for name in ("protocols.normals_drawn", "oracle.fft2_calls"):
        assert other[name]["value"] == first[name]["value"], name


def test_fails_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(scratch, "closed-form-sweep", seed=1, trace=0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _write(scratch: Path, name: str, text: str) -> str:
    path = scratch / name
    path.write_text(text)
    return str(path)


def _sweep_calls() -> dict[str, workloads.Call]:
    calls = workloads.cycle("closed-form-sweep", seed=5, index=1, size="tiny")
    return {"entangled simon": calls[0], "separable simon": calls[4], "eof": calls[5],
            "curve": calls[6]}


def test_simon_verdict_is_checked_against_the_truth(scratch):
    calls = _sweep_calls()
    ok = '{"results": {"I_general": -1.0, "I_closed": -1.0, "separable": false}}'
    # The answer the general route gives at b/a >= 3e4, where I rounds to 0.
    wrong = '{"results": {"I_general": 0.0, "I_closed": -4.9e-18, "separable": true}}'
    assert workloads.check(calls["entangled simon"], _write(scratch, "ok.json", ok)) is None
    assert workloads.check(calls["entangled simon"], _write(scratch, "bad.json", wrong))
    assert workloads.check(calls["separable simon"], _write(scratch, "bad2.json", ok))


def test_eof_rows_are_checked_against_the_closed_form(scratch):
    call = _sweep_calls()["eof"]
    grid = [(a, b) for a in workloads._linspace(*call.expect["a"])
            for b in workloads._linspace(*call.expect["b"])]
    rows = ["a,b,eof"] + [f"{a:.9g},{b:.9g},{workloads.eof_closed_form(a, b):.9g}"
                          for a, b in grid]
    assert workloads.check(call, _write(scratch, "ok.csv", "\n".join(rows))) is None
    rows[3] = rows[3].rsplit(",", 1)[0] + ",0.5"
    assert workloads.check(call, _write(scratch, "bad.csv", "\n".join(rows)))
    assert workloads.check(call, _write(scratch, "short.csv", "\n".join(rows[:-1])))


def test_dispersion_rows_are_checked_against_the_closed_form(scratch):
    call = _sweep_calls()["curve"]
    u, b, offset = call.expect["u"], call.expect["b"], call.expect["offset"]
    alpha = (u * b) ** 4 / ((u * b) ** 4 - 1.0)
    rows = ["t,dx_separable,dx_entangled"]
    for i in range(call.expect["t_steps"]):
        t = workloads.T_MAX * i / (call.expect["t_steps"] - 1)
        sep = math.sqrt(1.0 + 4.0 * u**4 * t * t) / (2.0 * u)
        ent = math.sqrt(alpha + 4.0 * u**4 * (t - offset) ** 2) / (2.0 * u)
        rows.append(f"{t:.9g},{sep:.9g}," + (f"{ent:.9g}" if t >= offset else ""))
    assert workloads.check(call, _write(scratch, "ok.csv", "\n".join(rows))) is None
    rows[-1] = rows[-1].rsplit(",", 1)[0] + ",1.0"
    assert workloads.check(call, _write(scratch, "bad.csv", "\n".join(rows)))


def test_eof_closed_form_known_values():
    assert workloads.eof_closed_form(1.0, math.inf) == 0.0
    # a = b: f2 = 3, delta = 3^-1/2
    delta = 3.0**-0.5
    c_plus, c_minus = ((delta**-0.5 + delta**0.5) ** 2 / 4, (delta**-0.5 - delta**0.5) ** 2 / 4)
    want = c_plus * math.log2(c_plus) - c_minus * math.log2(c_minus)
    assert workloads.eof_closed_form(2.0, 2.0) == pytest.approx(want, rel=1e-12)


def test_protocol_output_is_checked(scratch):
    call = workloads.cycle("mc-campaign", seed=5, index=1, size="tiny")[0]
    trials = call.expect["trials"]

    def doc(summary, value=1.0):
        entries = [{"u_hat": value} for _ in range(trials)]
        return json.dumps({"results": {"trials": entries, "summary": summary}})

    good = {"separable": 0, "entangled": trials, "inconclusive": 0}
    low = {"separable": trials, "entangled": 0, "inconclusive": 0}
    short = {"separable": 0, "entangled": trials - 1, "inconclusive": 0}
    assert workloads.check(call, _write(scratch, "ok.json", doc(good))) is None
    assert workloads.check(call, _write(scratch, "low.json", doc(low)))
    assert workloads.check(call, _write(scratch, "short.json", doc(short)))
    assert workloads.check(call, _write(scratch, "nan.json", doc(good, math.nan)))


def test_oracle_must_pass(scratch):
    call = workloads.cycle("oracle-validate", seed=5, index=1, size="tiny")[0]
    checks = [{"t": 0.0, "pass": True}] * call.expect["n_times"]
    good = json.dumps({"results": {"checks": checks, "pass": True}})
    bad = json.dumps({"results": {"checks": checks, "pass": False}})
    assert workloads.check(call, _write(scratch, "ok.json", good)) is None
    assert workloads.check(call, _write(scratch, "bad.json", bad))


def test_cycles_are_seeded():
    first = workloads.cycle("closed-form-sweep", seed=7, index=2)
    assert first == workloads.cycle("closed-form-sweep", seed=7, index=2)
    other = workloads.cycle("closed-form-sweep", seed=8, index=2)
    assert [c.kind for c in other] == [c.kind for c in first]
    assert [c.argv for c in other] != [c.argv for c in first]
