"""The localent benchmark: three CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload mc-campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in a fresh interpreter (``worker.py``) that drives
``localent.cli.main(argv)`` with one closed-loop client, writing every call's
output through ``--out`` to a temporary file and checking it.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric by name
with its unit and sample count, and the provenance of the run.

The program is the checkout's own ``src/localent``: Python needs no build.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_INTERPRETERS = 7  # setup_s is the median over this many fresh interpreters
IMPORTTIME_INTERPRETERS = 3
P90_MIN_CALLS = 100  # a p90 needs ten samples beyond it
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The environment of every child: the checkout's source first on the
    path, and BLAS threads capped at nproc (numpy.fft is single-threaded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        value = env.get(var, "")
        env[var] = str(min(int(value), nproc()) if value.isdigit() and int(value) > 0
                       else nproc())
    return env


def git_sha() -> str:
    """The checkout's commit, read from .git directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    env = child_env()
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc(),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
    }


class Worker:
    """A worker interpreter; ``ready_s`` is the time from spawn to its ``ready``."""

    def __init__(self, *args: str) -> None:
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
        self.watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.ready_s = perf_counter() - start
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError("the worker stopped before it was ready")

    def finish(self) -> dict | None:
        """Wait for the worker; its JSON result, if it gave one."""
        try:
            lines = self.proc.stdout.read().splitlines()
            code = self.proc.wait()
        finally:
            self.watchdog.cancel()
        if code != 0:
            raise RuntimeError(f"the worker exited with code {code}")
        return json.loads(lines[-1]) if lines else None


def import_times() -> dict[str, float]:
    """setup.* metrics: cumulative import times from ``-X importtime``, median
    over fresh interpreters.  A package counts once, at its outermost import."""
    samples: dict[str, list[float]] = {"localent": [], "scipy": []}
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")
    for _ in range(IMPORTTIME_INTERPRETERS):
        stderr = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import localent.cli"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, check=True).stderr
        # A module's line follows those of the modules it imported, so read
        # backwards to meet every parent before its children.
        totals = dict.fromkeys(samples, 0.0)
        ancestors: list[tuple[int, str]] = []
        for match in reversed(pattern.findall(stderr)):
            cumulative_us, indent, name = int(match[0]), len(match[1]), match[2]
            while ancestors and ancestors[-1][0] >= indent:
                ancestors.pop()
            top = name.split(".")[0]
            if top in totals and not any(a.split(".")[0] == top for _, a in ancestors):
                totals[top] += cumulative_us * 1e-6
            ancestors.append((indent, name))
        for key, value in totals.items():
            samples[key].append(value)
    return {f"setup.import_{key}_s": statistics.median(values)
            for key, values in samples.items()}


def worker_args(args, mode: str, tmp: str) -> list[str]:
    out = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode, "--out-dir", tmp]
    return out + (["--size", "tiny"] if args.tiny else [])


def end_to_end(args, tmp: str) -> tuple[dict, dict]:
    reference_s = speed.reference_kernel()
    wall, scaled = [], []
    before = reference_s()
    for _ in range((1 if args.tiny else SETUP_INTERPRETERS) - 1):
        probe = Worker(*worker_args(args, "setup", tmp))
        probe.finish()
        wall.append(probe.ready_s)
        after = reference_s()
        scaled.append(speed.scaled(wall[-1], before, after))
        before = after
    worker = Worker(*worker_args(args, "measure", tmp))
    wall.append(worker.ready_s)
    scaled.append(speed.scaled(wall[-1], before, reference_s()))
    result = worker.finish()
    values = {
        "setup_s": statistics.median(scaled),
        "call_s_p50": result["call_s_p50"],
        "work_per_s": result["work_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    calls = result["calls"]
    p90 = (f"{result['call_s_p90']:.6g} s" if calls >= P90_MIN_CALLS
           else f"not reported, {calls} < {P90_MIN_CALLS} calls")
    notes = {
        "setup_s": f"median of {len(scaled)} fresh interpreters; "
                   f"unscaled wall {statistics.median(wall):.6g} s",
        "call_s_p50": f"{calls} calls in {result['cycles']} cycles, "
                      f"{result['elapsed_s']:.2f} s; call_s_p90 {p90}; "
                      f"unscaled wall p50 {result['wall_call_s_p50']:.6g} s",
        "work_per_s": f"this is {workloads.WORK_NAMES[args.workload]}, over {result['work']} "
                      f"in the timed calls; unscaled wall {result['wall_work_per_s']:.6g} 1/s",
        "peak_rss_mb": "ru_maxrss of the workload's interpreter",
    }
    return values, {"result": result, "notes": notes}


def per_layer(args, tmp: str) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    worker = Worker(*worker_args(args, "trace", tmp), "--spans", str(spans))
    result = worker.finish()
    values = {**result["metrics"], **import_times()}
    notes = {"trace.overhead_s": f"{result['traced_s']:.4g} s traced - "
                                 f"{result['untraced_s']:.4g} s untraced over {result['calls']} "
                                 f"calls, {result['spans']} spans written to {spans.name}"}
    return values, {"result": result, "notes": notes}


def run_workload(args) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        values, info = (per_layer if args.trace else end_to_end)(args, tmp)
    section = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in section}
    result = info["result"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = info["notes"].get(name)
        print(f"  {name:28s} {value:<14.6g} {unit:6s}" + (f"  ({note})" if note else ""))
    print(f"  {'error_rate':28s} {result['failed'] / result['attempted']:<14.6g} {'':6s}"
          f"  ({result['failed']} of {result['attempted']} calls failed)")
    for problem in result["problems"]:
        print(f"  failed: {problem}")
    print("provenance " + json.dumps(provenance()))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: small calls, one setup interpreter")
    args = parser.parse_args()
    if not (SRC / "localent" / "__init__.py").is_file():
        print(f"no localent source under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            summary = run_workload(args)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
