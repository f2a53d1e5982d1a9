"""Batch command-line front end.

Subcommands emit analysis tables and protocol runs as CSV or JSON:
``eof-surface``, ``simon``, ``dispersion-curve``, ``protocol`` and
``oracle-check``.  All runs are deterministic given their flags and seed;
JSON payloads carry a config echo plus {seed, version} metadata, and
``protocol`` adds ``rng``, the label of its random-stream scheme.  CSV runs
echo the config to stderr.  Exit codes: 0 ok, 2 domain violation,
3 oracle-check tolerance failure (or grid error), 4 ill-conditioned fit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .covariance import (
    covariance_matrix,
    entanglement_of_formation,
    simon_invariant,
    simon_invariant_closed_form,
    standard_form,
)
from .errors import DomainError, FitError, GridError
from .oracle import evolve, initial_grid, momentum_marginal, numeric_covariance_matrix
from .oracle import marginal_sigma as grid_sigma
from .protocols import (
    RNG_SCHEME,
    HiddenScenario,
    crossing_times,
    predicted_dispersion_entangled,
    predicted_dispersion_separable,
    run_blind_batch,
    run_known_origin_batch,
    width_from_momentum_dispersion,
)
from .states import PairParams, momentum_dispersion, position_dispersion

DX_TOLERANCE = 1e-3  # relative, closed form vs quadrature
CM_TOLERANCE = 1e-4  # absolute, entrywise
NORM_TOLERANCE = 1e-10
DEFAULT_TIMES = (0.0, 0.5, 1.0)  # protocol and oracle-check measurement times
EXIT_CODES = {DomainError: 2, GridError: 3, FitError: 4}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.9g}"
    return str(value)


def _inf_str(value: float):
    """JSON has no infinity: echo it as the string "inf"."""
    return "inf" if math.isinf(value) else value


def _parse_b(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_times(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _emit(args, config: dict, results, csv_table=None, rng: str | None = None) -> None:
    if args.format == "json":
        metadata = {"seed": getattr(args, "seed", None), "version": __version__}
        if rng is not None:
            metadata["rng"] = rng
        payload = {"config": config, "results": results, "metadata": metadata}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        if csv_table is None:
            raise DomainError(f"command {args.command!r} has no CSV rendering")
        header, rows = csv_table
        lines = [",".join(header)]
        lines += [",".join(_fmt(cell) for cell in row) for row in rows]
        text = "\n".join(lines) + "\n"
        print(f"config: {json.dumps(config)}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_eof_surface(args) -> int:
    a_values = np.linspace(args.a_min, args.a_max, args.a_steps)
    b_values = np.linspace(args.b_min, args.b_max, args.b_steps)
    rows = []
    for a in a_values:
        for b in b_values:
            params = PairParams(a=float(a), b=float(b))
            rows.append((float(a), float(b), entanglement_of_formation(standard_form(params))))
    config = {
        "command": "eof-surface",
        "a_min": args.a_min, "a_max": args.a_max, "a_steps": args.a_steps,
        "b_min": args.b_min, "b_max": args.b_max, "b_steps": args.b_steps,
    }
    results = [{"a": r[0], "b": r[1], "eof": r[2]} for r in rows]
    _emit(args, config, results, csv_table=(["a", "b", "eof"], rows))
    return 0


def cmd_simon(args) -> int:
    params = PairParams(a=args.a, b=args.b)
    general = simon_invariant(covariance_matrix(params))
    closed = simon_invariant_closed_form(params)
    config = {"command": "simon", "a": args.a, "b": _inf_str(args.b)}
    results = {
        "I_general": general.invariant_I,
        "I_closed": closed,
        "separable": general.separable,
    }
    rows = [(general.invariant_I, closed, general.separable)]
    _emit(args, config, results, csv_table=(["I_general", "I_closed", "separable"], rows))
    return 0


def cmd_dispersion_curve(args) -> int:
    times = np.linspace(args.t_min, args.t_max, args.t_steps)
    dx_sep = predicted_dispersion_separable(args.u, times)
    # the entangled pair exists only from the offset on; NaN (empty cell) before
    offset = args.offset if args.offset > 0 else 0.0
    produced = times >= offset
    dx_ent = np.full_like(times, math.nan)
    dx_ent[produced] = predicted_dispersion_entangled(args.u, args.b, times[produced] - offset)
    rows = list(zip(times.tolist(), dx_sep.tolist(), dx_ent.tolist()))
    crossing = None
    if args.offset > 0:
        found = crossing_times(args.u, args.b, args.offset)
        crossing = {"lab": found.lab, "entangled_clock": found.entangled_clock}
    config = {
        "command": "dispersion-curve",
        "u": args.u, "b": _inf_str(args.b),
        "t_min": args.t_min, "t_max": args.t_max, "t_steps": args.t_steps,
        "offset": args.offset,
    }
    results = {
        "rows": [
            {"t": r[0], "dx_separable": r[1], "dx_entangled": None if math.isnan(r[2]) else r[2]}
            for r in rows
        ],
        "crossing": crossing,
    }
    if args.format == "csv" and crossing is not None:
        print(
            f"crossing: lab={crossing['lab']:.9g} "
            f"entangled_clock={crossing['entangled_clock']:.9g}",
            file=sys.stderr,
        )
    _emit(args, config, results, csv_table=(["t", "dx_separable", "dx_entangled"], rows))
    return 0


def _verdict_dict(classification: str, b_hat: float, confidence: float) -> dict:
    return {"classification": classification, "b_hat": _inf_str(b_hat), "confidence": confidence}


def cmd_protocol(args) -> int:
    if args.u is not None:
        a = width_from_momentum_dispersion(args.u, args.b)
    elif args.a is not None:
        a = args.a
    else:
        raise DomainError("provide the source width via --a or --u")
    scenario = HiddenScenario(params=PairParams(a=a, b=args.b, k_c=args.kc), t0=args.t0)
    times = args.times
    if not times:
        raise DomainError("provide at least one measurement time")
    run = {"n_samples": args.n_samples, "seed": args.seed, "trials": args.trials,
           "noiseless": args.noiseless}
    if args.mode == 1:
        batch = run_known_origin_batch(
            scenario, t_meas=times[0], tolerance_sigmas=args.threshold_sigmas, **run
        )
        columns = (batch.classification, batch.b_hat, batch.confidence, batch.u_hat,
                   batch.dx_hat, batch.stderr, batch.predicted_separable)
        trials = [
            {
                "verdict": _verdict_dict(c, b, conf),
                "u_hat": u_hat,
                "t_known": batch.t_known,
                "dx_hat": dx_hat,
                "stderr": stderr,
                "predicted_separable": predicted,
            }
            for c, b, conf, u_hat, dx_hat, stderr, predicted in zip(
                *(column.tolist() for column in columns)
            )
        ]
    else:
        batch = run_blind_batch(
            scenario, times=times, threshold_sigmas=args.threshold_sigmas, **run
        )
        columns = (batch.classification, batch.b_hat, batch.confidence, batch.u_hat,
                   batch.u_stderr, batch.alpha, batch.beta, batch.alpha_sigma,
                   batch.param_cov, batch.residual_rms, batch.dx_hat, batch.stderr)
        t_list = batch.times.tolist()
        trials = [
            {
                "verdict": _verdict_dict(c, b, conf),
                "u_hat": u_hat,
                "u_stderr": u_stderr,
                "fit": {
                    "alpha": alpha,
                    "beta": beta,
                    "alpha_sigma": alpha_sigma,
                    "param_cov": cov,
                    "residual_rms": rms,
                },
                "series": [
                    {"t": t, "dx_hat": d, "stderr": s, "n_samples": batch.n_samples}
                    for t, d, s in zip(t_list, dx_row, stderr_row)
                ],
            }
            for c, b, conf, u_hat, u_stderr, alpha, beta, alpha_sigma, cov, rms, dx_row,
            stderr_row in zip(*(column.tolist() for column in columns))
        ]
    counts = {"separable": 0, "entangled": 0, "inconclusive": 0}
    for entry in trials:
        counts[entry["verdict"]["classification"]] += 1
    config = {
        "command": "protocol",
        "mode": args.mode,
        "a": a, "b": _inf_str(args.b),
        "kc": args.kc, "t0": args.t0,
        "times": times, "n_samples": args.n_samples, "trials": args.trials,
        "threshold_sigmas": args.threshold_sigmas, "noiseless": args.noiseless,
        "seed": args.seed,
    }
    results = {"trials": trials, "summary": counts}
    csv_rows = None
    if args.mode == 2:
        header = ["trial", "t", "dx_hat", "stderr", "n_samples"]
        flat = [
            (i, p["t"], p["dx_hat"], p["stderr"], p["n_samples"])
            for i, entry in enumerate(trials)
            for p in entry["series"]
        ]
        csv_rows = (header, flat)
    _emit(args, config, results, csv_table=csv_rows, rng=RNG_SCHEME)
    return 0


def cmd_oracle_check(args) -> int:
    params = PairParams(a=args.a, b=args.b, k_c=args.kc)
    times = args.times
    t_max = max(times)
    grid0 = initial_grid(params, n=args.grid_n, extent=args.grid_L, t_max=t_max)
    checks = []
    ok = True
    for t in times:
        grid = evolve(grid0, float(t)) if t > 0 else grid0
        weights = np.abs(grid.amplitudes) ** 2
        axis = grid.axis
        dx_grid = grid_sigma(axis, weights.sum(axis=1))
        k_axis, k_density = momentum_marginal(grid)
        dp_grid = grid_sigma(k_axis, k_density) * params.constants.hbar
        dx_closed = position_dispersion(float(t), params)
        dp_closed = momentum_dispersion(params)
        rel_dx = abs(dx_grid - dx_closed) / dx_closed
        rel_dp = abs(dp_grid - dp_closed) / dp_closed
        norm_drift = abs(grid.norm() - 1.0)
        passed = rel_dx < DX_TOLERANCE and rel_dp < DX_TOLERANCE and norm_drift < NORM_TOLERANCE
        ok = ok and passed
        checks.append(
            {
                "t": float(t),
                "dx_closed": dx_closed, "dx_grid": dx_grid, "rel_dx": rel_dx,
                "dp_closed": dp_closed, "dp_grid": dp_grid, "rel_dp": rel_dp,
                "norm_drift": norm_drift,
                "pass": passed,
            }
        )
    cm_delta = float(
        np.abs(numeric_covariance_matrix(grid0).matrix - covariance_matrix(params).matrix).max()
    )
    ok = ok and cm_delta < CM_TOLERANCE
    config = {
        "command": "oracle-check",
        "a": args.a, "b": _inf_str(args.b), "kc": args.kc,
        "times": times, "grid_n": args.grid_n, "grid_L": args.grid_L,
    }
    results = {"checks": checks, "cm_max_abs_delta": cm_delta, "pass": ok}
    rows = [
        (c["t"], c["dx_closed"], c["dx_grid"], c["rel_dx"],
         c["dp_closed"], c["dp_grid"], c["rel_dp"], c["norm_drift"], c["pass"])
        for c in checks
    ]
    header = ["t", "dx_closed", "dx_grid", "rel_dx", "dp_closed", "dp_grid", "rel_dp",
              "norm_drift", "pass"]
    _emit(args, config, results, csv_table=(header, rows))
    return 0 if ok else 3


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localent",
        description="Entanglement detection in free Gaussian pairs: closed forms, "
        "covariance analysis, spectral-grid checks and measurement protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("eof-surface", help="entanglement of formation over an (a, b) grid")
    p.add_argument("--a-min", type=float, default=1.0)
    p.add_argument("--a-max", type=float, default=10.0)
    p.add_argument("--a-steps", type=int, default=10)
    p.add_argument("--b-min", type=float, default=1.0)
    p.add_argument("--b-max", type=float, default=50.0)
    p.add_argument("--b-steps", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_eof_surface, default_format="csv")

    p = sub.add_parser("simon", help="separability invariant, general and closed form")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=_parse_b, required=True, help="positive float or 'inf'")
    common(p)
    p.set_defaults(func=cmd_simon, default_format="json")

    p = sub.add_parser("dispersion-curve", help="separable vs entangled dispersion curves")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--b", type=_parse_b, required=True)
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--t-steps", type=int, default=101)
    p.add_argument(
        "--offset", type=float, default=0.0,
        help="produce the entangled pair this much later; also reports the curve crossing",
    )
    common(p)
    p.set_defaults(func=cmd_dispersion_curve, default_format="csv")

    p = sub.add_parser("protocol", help="run measurement protocol 1 or 2")
    p.add_argument("--mode", type=int, choices=(1, 2), required=True)
    p.add_argument("--a", type=float, default=None, help="source packet width")
    p.add_argument("--u", type=float, default=None, help="alternative: momentum dispersion")
    p.add_argument("--b", type=_parse_b, required=True)
    p.add_argument("--kc", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--times", type=_parse_times, default=DEFAULT_TIMES,
                   help="comma-separated measurement times (mode 1 uses the first)")
    p.add_argument("--n-samples", type=int, default=10000)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold-sigmas", type=float, default=3.0)
    p.add_argument("--noiseless", action="store_true")
    common(p)
    p.set_defaults(func=cmd_protocol, default_format="json")

    p = sub.add_parser("oracle-check", help="closed forms vs spectral-grid quadrature")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=_parse_b, required=True)
    p.add_argument("--kc", type=float, default=0.0)
    p.add_argument("--times", type=_parse_times, default=DEFAULT_TIMES)
    p.add_argument("--grid-n", type=int, default=512)
    p.add_argument("--grid-L", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_oracle_check, default_format="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
