"""Batch command-line front end.

Subcommands emit analysis tables and protocol runs as CSV or JSON:
``eof-surface``, ``simon``, ``dispersion-curve``, ``protocol`` and
``oracle-check``.  All runs are deterministic given their flags and seed;
JSON payloads carry a config echo plus {seed, version} metadata, and
``protocol`` adds ``rng``, the label of its random-stream scheme.  CSV runs
echo the config (every option but ``--format`` and ``--out``) to stderr.
Exit codes: 0 ok, 2 domain violation or a result that is not finite,
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
    ENTANGLED,
    INCONCLUSIVE,
    RNG_SCHEME,
    SEPARABLE,
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
EXIT_CODES = {DomainError: 2, ArithmeticError: 2, GridError: 3, FitError: 4}
OUT_OF_RANGE = "the input is outside the representable range: a result is not finite"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(OUT_OF_RANGE)
        return f"{value:.9g}"
    return str(value)


def _json(value, indent=None) -> str:
    try:
        return json.dumps(value, indent=indent, allow_nan=False)
    except ValueError:
        raise DomainError(OUT_OF_RANGE) from None


def _inf_str(value: float):
    """JSON has no infinity: echo it as the string "inf"."""
    return "inf" if math.isinf(value) else value


def _parse_b(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_times(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _grid(start: float, stop: float, steps: int) -> np.ndarray:
    if steps < 0:
        raise DomainError(f"step counts must be nonnegative, got {steps}")
    return np.linspace(start, stop, steps)


def _config(args, **resolved) -> dict:
    """The parsed options but the output routing, with ``resolved`` values."""
    config = {key: resolved.get(key, value) for key, value in vars(args).items()
              if key not in ("format", "out", "func")}
    if "b" in config:
        config["b"] = _inf_str(config["b"])
    return config


def _emit(args, config: dict, results, records, columns, rng: str | None = None) -> None:
    """JSON envelope, or the CSV table of the ``records`` dicts (None: no CSV)."""
    if args.format == "json":
        metadata = {"seed": getattr(args, "seed", None), "version": __version__}
        if rng is not None:
            metadata["rng"] = rng
        payload = {"config": config, "results": results, "metadata": metadata}
        text = _json(payload, indent=2) + "\n"
    else:
        if records is None:
            raise DomainError(f"command {args.command!r} has no CSV rendering")
        lines = [",".join(columns)]
        lines += [",".join(_fmt(record[c]) for c in columns) for record in records]
        text = "\n".join(lines) + "\n"
        print(f"config: {_json(config)}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_eof_surface(args) -> int:
    a_values = _grid(args.a_min, args.a_max, args.a_steps).tolist()
    b_values = _grid(args.b_min, args.b_max, args.b_steps).tolist()
    results = [
        {"a": a, "b": b, "eof": entanglement_of_formation(standard_form(PairParams(a=a, b=b)))}
        for a in a_values
        for b in b_values
    ]
    _emit(args, _config(args), results, results, ("a", "b", "eof"))
    return 0


def cmd_simon(args) -> int:
    params = PairParams(a=args.a, b=args.b)
    # the family's closed-form matrix is physical by construction (tested)
    general = simon_invariant(covariance_matrix(params), validate=False)
    results = {
        "I_general": general.invariant_I,
        "I_closed": simon_invariant_closed_form(params),
        "separable": general.separable,
    }
    _emit(args, _config(args), results, [results], ("I_general", "I_closed", "separable"))
    return 0


def cmd_dispersion_curve(args) -> int:
    times = _grid(args.t_min, args.t_max, args.t_steps)
    dx_sep = predicted_dispersion_separable(args.u, times)
    # the entangled pair exists only from the offset on; None (empty cell) before
    offset = args.offset if args.offset > 0 else 0.0
    dx_ent = predicted_dispersion_entangled(args.u, args.b, np.maximum(times - offset, 0.0))
    rows = [
        {"t": t, "dx_separable": sep, "dx_entangled": ent if t >= offset else None}
        for t, sep, ent in zip(times.tolist(), dx_sep.tolist(), dx_ent.tolist())
    ]
    crossing = None
    if args.offset > 0:
        found = crossing_times(args.u, args.b, args.offset)
        crossing = {"lab": found.lab, "entangled_clock": found.entangled_clock}
        if args.format == "csv":
            print(f"crossing: lab={found.lab:.9g} entangled_clock={found.entangled_clock:.9g}",
                  file=sys.stderr)
    results = {"rows": rows, "crossing": crossing}
    _emit(args, _config(args), results, rows, ("t", "dx_separable", "dx_entangled"))
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
    records = None  # mode 1 has no CSV rendering
    if args.mode == 1:
        batch = run_known_origin_batch(scenario, t_meas=times[0],
                                       tolerance_sigmas=args.threshold_sigmas, **run)
        columns = (batch.classification, batch.b_hat, batch.confidence, batch.u_hat,
                   batch.dx_hat, batch.stderr, batch.predicted_separable)
        trials = [
            {"verdict": _verdict_dict(c, b, conf), "u_hat": u_hat, "t_known": batch.t_known,
             "dx_hat": dx_hat, "stderr": stderr, "predicted_separable": predicted}
            for c, b, conf, u_hat, dx_hat, stderr, predicted in zip(
                *(column.tolist() for column in columns)
            )
        ]
    else:
        batch = run_blind_batch(scenario, times=times, threshold_sigmas=args.threshold_sigmas,
                                **run)
        columns = (batch.classification, batch.b_hat, batch.confidence, batch.u_hat,
                   batch.u_stderr, batch.alpha, batch.beta, batch.alpha_sigma,
                   batch.param_cov, batch.residual_rms, batch.dx_hat, batch.stderr)
        t_list = batch.times.tolist()
        trials = [
            {
                "verdict": _verdict_dict(c, b, conf),
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
        # a generator: only the CSV path walks it
        records = ({"trial": i, **point} for i, entry in enumerate(trials)
                   for point in entry["series"])
    summary = {label: int(np.count_nonzero(batch.classification == label))
               for label in (SEPARABLE, ENTANGLED, INCONCLUSIVE)}
    config = _config(args, a=a)
    del config["u"]  # echoed as the width it implies
    results = {"trials": trials, "summary": summary}
    _emit(args, config, results, records, ("trial", "t", "dx_hat", "stderr", "n_samples"),
          rng=RNG_SCHEME)
    return 0


def cmd_oracle_check(args) -> int:
    params = PairParams(a=args.a, b=args.b, k_c=args.kc)
    times = args.times
    if not times:
        raise DomainError("provide at least one measurement time")
    grid0 = initial_grid(params, n=args.grid_n, extent=args.grid_L, t_max=max(times))
    columns = ("t", "dx_closed", "dx_grid", "rel_dx", "dp_closed", "dp_grid", "rel_dp",
               "norm_drift", "pass")
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
        values = (float(t), dx_closed, dx_grid, rel_dx, dp_closed, dp_grid, rel_dp, norm_drift,
                  passed)
        checks.append(dict(zip(columns, values)))
    cm_delta = float(
        np.abs(numeric_covariance_matrix(grid0).matrix - covariance_matrix(params).matrix).max()
    )
    ok = ok and cm_delta < CM_TOLERANCE
    results = {"checks": checks, "cm_max_abs_delta": cm_delta, "pass": ok}
    _emit(args, _config(args), results, checks, columns)
    return 0 if ok else 3


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localent",
        description="Entanglement detection in free Gaussian pairs: closed forms, "
        "covariance analysis, spectral-grid checks and measurement protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format, func):
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(func=func)

    p = sub.add_parser("eof-surface", help="entanglement of formation over an (a, b) grid")
    p.add_argument("--a-min", type=float, default=1.0)
    p.add_argument("--a-max", type=float, default=10.0)
    p.add_argument("--a-steps", type=int, default=10)
    p.add_argument("--b-min", type=float, default=1.0)
    p.add_argument("--b-max", type=float, default=50.0)
    p.add_argument("--b-steps", type=int, default=50)
    common(p, "csv", cmd_eof_surface)

    p = sub.add_parser("simon", help="separability invariant, general and closed form")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=_parse_b, required=True, help="positive float or 'inf'")
    common(p, "json", cmd_simon)

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
    common(p, "csv", cmd_dispersion_curve)

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
    p.add_argument("--threshold-sigmas", type=float, default=3.0)
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    common(p, "json", cmd_protocol)

    p = sub.add_parser("oracle-check", help="closed forms vs spectral-grid quadrature")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=_parse_b, required=True)
    p.add_argument("--kc", type=float, default=0.0)
    p.add_argument("--times", type=_parse_times, default=DEFAULT_TIMES)
    p.add_argument("--grid-n", type=int, default=512)
    p.add_argument("--grid-L", type=float, default=None)
    common(p, "json", cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {OUT_OF_RANGE if isinstance(exc, ArithmeticError) else exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
