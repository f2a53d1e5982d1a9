"""Workload call schedules and output checks for the localent benchmark.

A workload is a fixed cycle of ``localent`` CLI calls.  The seed draws the
parameters of every call, never the kinds of call or their sizes, so the mix
that sets the call-time median and the per-layer counts is the same for
every seed.

The checks compare each output with references computed here from the call's
own inputs, never with recorded output bytes, so an engine with other random
streams or other roundoff still passes.  A check returns ``None`` when the
output is right and a one-line reason when it is not.

This module imports nothing from ``localent``.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("mc-campaign", "oracle-validate", "closed-form-sweep")

# What one unit of ``work`` is on each workload, as the metric name a user
# knows it by.
WORK_NAMES = {
    "mc-campaign": "trials_per_s",
    "oracle-validate": "oracle_points_per_s",
    "closed-form-sweep": "rows_per_s",
}

SIZES = {
    "full": {"trials": 200, "n_samples": 10_000, "grids": (1024, 512), "eof_steps": 20,
             "t_steps": 101},
    # Smoke-test size: every call kind still runs and is checked.  The protocol
    # sample count stays at 10^4 so the detection gate keeps its power, and the
    # oracle grid stays at the smallest size that resolves every drawn packet.
    "tiny": {"trials": 4, "n_samples": 10_000, "grids": (256, 256), "eof_steps": 3,
             "t_steps": 11},
}

# Acceptance criterion 7's source: u = 1.01, b = 1, produced 0.5 before the
# first measurement, measured at five times up to the critical time
# b^2 / (2 sqrt((u b)^4 - 1)).
CRITERION7_U = 1.01
CRITERION7_T0 = 0.5
_TC = 1.0 / (2.0 * math.sqrt(CRITERION7_U**4 - 1.0))
CRITERION7_TIMES = ",".join(repr(_TC * k / 4) for k in range(5))
DETECTION_GATE = 0.95

ORACLE_TIMES = "0,0.5,1,2"
SWEEP_PROTOCOL_TIMES = "0,0.5,1"
T_MAX = 5.0
OFFSET_STEP = 20  # the pair is produced between grid times 20 and 21

REL_TOL_EOF = 1e-6
REL_TOL_CURVE = 1e-7  # CSV cells carry 9 significant digits


@dataclass(frozen=True)
class Call:
    """One CLI invocation, without its ``--out`` path."""

    kind: str
    argv: tuple[str, ...]
    fmt: str
    work: int
    expect: dict  # what the output check needs to know about the inputs


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


def _mc_cycle(rng: random.Random, size: dict) -> list[Call]:
    def protocol(mode: int, b: str) -> Call:
        argv = ("protocol", "--mode", str(mode), "--u", repr(CRITERION7_U), "--b", b,
                "--t0", repr(CRITERION7_T0), "--times", CRITERION7_TIMES,
                "--n-samples", str(size["n_samples"]), "--trials", str(size["trials"]),
                "--seed", _seed(rng), "--format", "json")
        return Call("protocol", argv, "json", size["trials"],
                    {"trials": size["trials"], "gate": b != "inf"})

    # Two thirds of the calls are mode 2, so the call-time median sits inside
    # one class of calls rather than on the edge between two.
    return [protocol(2, "1"), protocol(2, "inf"), protocol(1, "1"),
            protocol(2, "1"), protocol(2, "inf"), protocol(1, "inf")]


def _oracle_cycle(rng: random.Random, size: dict) -> list[Call]:
    big, small = size["grids"]

    def check(n: int, b: str) -> Call:
        a = rng.uniform(0.7, 1.4)
        kc = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)  # non-zero: the packet drifts
        argv = ("oracle-check", "--a", repr(a), "--b", b, f"--kc={kc!r}",
                "--times", ORACLE_TIMES, "--grid-n", str(n), "--format", "json")
        n_times = len(ORACLE_TIMES.split(","))
        return Call("oracle-check", argv, "json", n_times * n * n, {"n_times": n_times})

    # As above, the larger grid is two thirds of the calls.
    return [check(big, "2"), check(big, "inf"), check(small, "2"),
            check(big, "inf"), check(big, "2"), check(small, "inf")]


def _sweep_cycle(rng: random.Random, size: dict) -> list[Call]:
    calls = []
    # a/b log-uniform over [1e-2, 1e6], one draw in each two-decade stratum.
    for stratum in range(4):
        ratio = 10.0 ** rng.uniform(-2.0 + 2 * stratum, 2 * stratum)
        a = 10.0 ** rng.uniform(-1.0, 1.0)
        calls.append(Call("simon", ("simon", "--a", repr(a), "--b", repr(a / ratio)),
                          "json", 1, {"separable": False}))
    a = 10.0 ** rng.uniform(-1.0, 1.0)
    calls.append(Call("simon", ("simon", "--a", repr(a), "--b", "inf"), "json", 1,
                      {"separable": True}))

    steps = size["eof_steps"]
    a_min = rng.uniform(0.5, 2.0)
    a_max = a_min * rng.uniform(2.0, 10.0)
    b_min = rng.uniform(0.5, 2.0)
    b_max = b_min * rng.uniform(2.0, 10.0)
    argv = ("eof-surface", "--a-min", repr(a_min), "--a-max", repr(a_max),
            "--a-steps", str(steps), "--b-min", repr(b_min), "--b-max", repr(b_max),
            "--b-steps", str(steps), "--format", "csv")
    calls.append(Call("eof-surface", argv, "csv", steps * steps,
                      {"a": (a_min, a_max, steps), "b": (b_min, b_max, steps)}))

    u = rng.uniform(0.8, 2.0)
    b = rng.uniform(1.5, 20.0) / u
    t_steps = size["t_steps"]
    dt = T_MAX / (t_steps - 1)
    step = min(OFFSET_STEP, t_steps - 2)
    offset = dt * (step + rng.uniform(0.05, 0.95))
    argv = ("dispersion-curve", "--u", repr(u), "--b", repr(b), "--t-min", "0",
            "--t-max", repr(T_MAX), "--t-steps", str(t_steps), "--offset", repr(offset),
            "--format", "csv")
    calls.append(Call("dispersion-curve", argv, "csv", t_steps,
                      {"u": u, "b": b, "offset": offset, "t_steps": t_steps}))

    u = rng.uniform(0.8, 2.0)
    b = rng.uniform(1.5, 5.0) / u
    argv = ("protocol", "--mode", "2", "--u", repr(u), "--b", repr(b),
            "--t0", repr(rng.uniform(0.0, 1.0)), "--times", SWEEP_PROTOCOL_TIMES,
            "--noiseless", "--format", "json")
    calls.append(Call("protocol", argv, "json", 0, {"trials": 1, "gate": True}))

    u = rng.uniform(0.8, 2.0)
    b = rng.choice(("inf", repr(rng.uniform(1.5, 20.0) / u)))
    argv = ("protocol", "--mode", "1", "--u", repr(u), "--b", b, "--times", "0.5",
            "--n-samples", str(size["n_samples"]), "--trials", "1", "--seed", _seed(rng),
            "--format", "json")
    calls.append(Call("protocol", argv, "json", 0, {"trials": 1, "gate": False}))
    return calls


_CYCLES = {
    "mc-campaign": _mc_cycle,
    "oracle-validate": _oracle_cycle,
    "closed-form-sweep": _sweep_cycle,
}


def cycle(workload: str, seed: int, index: int, size: str = "full") -> list[Call]:
    """The calls of cycle ``index``; the same arguments give the same calls."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _CYCLES[workload](rng, SIZES[size])


# --- output checks --------------------------------------------------------------


def _nonfinite(value, path: str = "") -> str | None:
    """Path of the first non-finite number in a parsed JSON document."""
    if isinstance(value, float) and not math.isfinite(value):
        return path or "/"
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        found = _nonfinite(item, f"{path}/{key}")
        if found:
            return found
    return None


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want) + 1e-300


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def eof_closed_form(a: float, b: float) -> float:
    """EoF (bits) from delta = f2^(-1/2), c± = (delta^(-1/2) ± delta^(1/2))^2 / 4."""
    delta = (1.0 + 2.0 * (a / b) ** 2) ** -0.5
    c_minus = (delta**-0.5 - delta**0.5) ** 2 / 4.0
    # c+ = 1 + c-, so c+ log2 c+ is taken through log1p to keep small c- exact
    value = (1.0 + c_minus) * math.log1p(c_minus) / math.log(2.0)
    if c_minus > 0.0:
        value -= c_minus * math.log2(c_minus)
    return value


def _check_protocol(doc: dict, expect: dict) -> str | None:
    trials = expect["trials"]
    summary = doc["results"]["summary"]
    if sum(summary.values()) != trials or len(doc["results"]["trials"]) != trials:
        return f"summary {summary} does not account for {trials} trials"
    if expect["gate"] and summary["entangled"] < DETECTION_GATE * trials:
        return f"entangled source detected in {summary['entangled']}/{trials} trials"
    return None


def _check_simon(doc: dict, expect: dict) -> str | None:
    got = doc["results"]["separable"]
    if got is not expect["separable"]:
        return f"separable={got}, but the source is {'' if expect['separable'] else 'not '}separable"
    return None


def _check_oracle(doc: dict, expect: dict) -> str | None:
    if doc["results"]["pass"] is not True:
        return "oracle-check did not pass"
    if len(doc["results"]["checks"]) != expect["n_times"]:
        return "oracle-check skipped time points"
    return None


def _check_eof(rows: list[list[str]], expect: dict) -> str | None:
    grid = [(a, b) for a in _linspace(*expect["a"]) for b in _linspace(*expect["b"])]
    if rows[0] != ["a", "b", "eof"] or len(rows) - 1 != len(grid):
        return f"eof-surface gave {len(rows) - 1} rows for a {len(grid)}-point grid"
    for (a, b), row in zip(grid, rows[1:]):
        got_a, got_b, eof = map(float, row)
        if not (_close(got_a, a, 1e-8) and _close(got_b, b, 1e-8)):
            return f"eof-surface row ({got_a}, {got_b}) is off the grid"
        if not _close(eof, eof_closed_form(a, b), REL_TOL_EOF):
            return f"eof({a}, {b}) = {eof}, closed form {eof_closed_form(a, b)}"
    return None


def _check_curve(rows: list[list[str]], expect: dict) -> str | None:
    u, b, offset = expect["u"], expect["b"], expect["offset"]
    if rows[0] != ["t", "dx_separable", "dx_entangled"] or len(rows) - 1 != expect["t_steps"]:
        return "dispersion-curve has the wrong shape"
    alpha = (u * b) ** 4 / ((u * b) ** 4 - 1.0)
    for row in rows[1:]:
        t, dx_sep = float(row[0]), float(row[1])
        if not _close(dx_sep, math.sqrt(1.0 + 4.0 * u**4 * t * t) / (2.0 * u), REL_TOL_CURVE):
            return f"dx_separable({t}) = {dx_sep}"
        if t < offset:
            if row[2] != "":
                return f"dx_entangled({t}) given before the pair exists"
        elif not _close(float(row[2]), math.sqrt(alpha + 4.0 * u**4 * (t - offset) ** 2)
                        / (2.0 * u), REL_TOL_CURVE):
            return f"dx_entangled({t}) = {row[2]}"
    return None


_JSON_CHECKS = {"protocol": _check_protocol, "simon": _check_simon,
                "oracle-check": _check_oracle}
_CSV_CHECKS = {"eof-surface": _check_eof, "dispersion-curve": _check_curve}


def check(call: Call, path: str) -> str | None:
    """Why the output of ``call`` written to ``path`` is wrong, or None."""
    with open(path, newline="") as handle:
        if call.fmt == "csv":
            rows = list(csv.reader(handle))
            for row in rows[1:]:
                if any(cell != "" and not math.isfinite(float(cell)) for cell in row):
                    return f"non-finite cell in {row}"
            return _CSV_CHECKS[call.kind](rows, call.expect)
        doc = json.load(handle)
    bad = _nonfinite(doc)
    if bad:
        return f"non-finite value at {bad}"
    return _JSON_CHECKS[call.kind](doc, call.expect)
