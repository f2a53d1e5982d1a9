"""One fresh interpreter for one workload: a single closed-loop client that
drives ``localent.cli.main(argv)`` in process, one call after another.

Prints ``ready`` once ``localent.cli`` is imported and the first cycle of
calls is built, and a JSON result as its last line.  ``run.py`` starts it;
see there for the arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Cycles in the traced pass.  The pass does a fixed amount of work, so its
# counts repeat exactly for a seed.
TRACE_CYCLES = {"mc-campaign": 1, "oracle-validate": 1, "closed-form-sweep": 24}


class Client:
    """Runs calls, checks their outputs and keeps the tallies."""

    def __init__(self, main, out_dir: str) -> None:
        self.main = main
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.problems: list[str] = []

    def run(self, call: workloads.Call) -> float:
        """Wall time of one call; failures are counted, never raised."""
        path = os.path.join(self.out_dir, f"{call.kind}.{call.fmt}")
        argv = [*call.argv, "--out", path]
        stderr = io.StringIO()
        problem = None
        self.attempted += 1
        with contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = self.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception:
                code = None
                problem = traceback.format_exc(limit=-3)
            elapsed = perf_counter() - start
        if problem is None and code != 0:
            problem = f"exit code {code}: {stderr.getvalue().strip()}"
        if problem is None:
            self.output_bytes += os.path.getsize(path)
            problem = workloads.check(call, path)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(call.argv)}: {problem}")
        return elapsed


def measure(client: Client, warm_up: list, args) -> dict:
    """Closed loop in whole cycles until ``seconds`` have passed; call times
    are scaled to reference speed (see speed.py)."""
    reference_s = speed.reference_kernel()
    for call in warm_up:
        client.run(call)  # checked and counted, not timed
    wall, scaled, work = [], [], 0
    start = perf_counter()
    index = 1
    before = reference_s()
    while perf_counter() - start < args.seconds:
        for call in workloads.cycle(args.workload, args.seed, index, args.size):
            wall.append(client.run(call))
            after = reference_s()
            scaled.append(speed.scaled(wall[-1], before, after))
            before = after
            work += call.work
        index += 1
    return {
        "calls": len(wall),
        "cycles": index - 1,
        "elapsed_s": perf_counter() - start,
        "call_s_p50": statistics.median(scaled),
        "call_s_p90": statistics.quantiles(scaled, n=10)[-1] if len(scaled) >= 2 else scaled[0],
        "work": work,
        "work_per_s": work / sum(scaled),
        "wall_call_s_p50": statistics.median(wall),
        "wall_work_per_s": work / sum(wall),
    }


def trace(client: Client, warm_up: list, args) -> dict:
    """The same fixed pass untraced, traced and untraced again; per-layer
    metrics of the traced pass."""
    import tracing

    for call in warm_up:
        client.run(call)
    calls = [call for index in range(1, 1 + TRACE_CYCLES[args.workload])
             for call in workloads.cycle(args.workload, args.seed, index, args.size)]
    untraced_s = sum(client.run(call) for call in calls)

    tracer = tracing.Tracer()
    tracer.install()
    untraced_main, client.main = client.main, tracer.wrap("cli", "main", client.main)
    bytes_before = client.output_bytes
    traced_s = sum(client.run(call) for call in calls)
    output_bytes = client.output_bytes - bytes_before
    tracer.uninstall()
    client.main = untraced_main
    # Untraced passes on both sides of the traced one, so that a drift in
    # machine speed cancels from the overhead.
    untraced_s = (untraced_s + sum(client.run(call) for call in calls)) / 2.0

    floors = {n: tracing.fft_round_trip_s(n) for n in set(tracer.evolve_grid_sizes)}
    metrics = tracer.layer_metrics(floors)
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if args.spans:
        tracer.write(args.spans)
    return {"calls": len(calls), "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": len(tracer.spans), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    import localent

    # Measure the checkout's own source, never an installed copy.
    if not Path(localent.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"localent imported from {localent.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from localent import cli

    warm_up = workloads.cycle(args.workload, args.seed, 0, args.size)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    client = Client(cli.main, args.out_dir)
    result = (measure if args.mode == "measure" else trace)(client, warm_up, args)
    result.update(
        attempted=client.attempted,
        failed=client.failed,
        problems=client.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
