"""Batch command-line front end.

Subcommands emit analysis tables and protocol runs as CSV or JSON:
``eof-surface``, ``simon``, ``dispersion-curve``, ``protocol`` and
``oracle-check``.  All runs are deterministic given their flags and seed;
JSON payloads carry a config echo plus {seed, version} metadata, and
``protocol`` adds ``rng``, the label of its random-stream scheme.  CSV runs
echo the config (every option but ``--format`` and ``--out``) to stderr.
JSON text is written by this module's own encoder with the bytes of
``json.dumps(value, indent=2, allow_nan=False)``; ``protocol`` trials are
rendered column by column straight from the batch arrays.  Every command
hands its CSV table over as columns, and the table is written column by
column: each float column is checked once and formatted in one pass.
``eof-surface`` evaluates its whole grid as arrays.  The argument parser is
built once per process, on the first ``main`` call.
Exit codes: 0 ok, 2 domain violation, a result that is not finite or a
request that does not fit in memory, 3 oracle-check tolerance failure (or
grid error), 4 ill-conditioned fit.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .covariance import _eof, covariance_matrix, simon_invariant, simon_invariant_closed_form
from .errors import DomainError, FitError, GridError, require_memory
from .oracle import _check_bytes, _correlation_matrix, _evolve, _particle_one, initial_grid, moments
from .protocols import (
    ENTANGLED,
    INCONCLUSIVE,
    RNG_SCHEME,
    SEPARABLE,
    HiddenScenario,
    _batch_bytes,
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
EXIT_CODES = {DomainError: 2, ArithmeticError: 2, MemoryError: 2, GridError: 3, FitError: 4}
OUT_OF_RANGE = "the input is outside the representable range: a result is not finite"
# the error line of these exceptions, in place of their own text
_MESSAGES = {ArithmeticError: OUT_OF_RANGE, MemoryError: "the request does not fit in memory"}
# bytes that rendering one value of a protocol trial holds at its peak: its
# str object and the copies of its text that the writer joins (a traced run
# peaks at up to ~135 B a value in JSON and ~41 B in CSV beside the batch)
_VALUE_BYTES = {"json": 192, "csv": 64}


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


@dataclass(frozen=True)
class _Records:
    """A JSON array of ``count`` records of one shape.  ``skeleton`` is a
    record whose leaves that vary are 1-D arrays, one entry per record (a
    column); it is encoded once, as a template that each record's column
    texts fill."""

    skeleton: dict
    count: int


_SLOT = "\x00"  # a column leaf in a template; encoded strings escape it


def _dumps(value, indent: str | None = "  ", pad: str = "", slots: list | None = None) -> str:
    """``json.dumps(value, indent=len(indent), allow_nan=False)``, or the
    one-line form with ", " and ": " separators when ``indent`` is None.

    Also takes ``_Records``.  Keys must be strings.  A non-finite float
    raises DomainError.  ``pad`` is the indent of the value's own line, and
    ``slots`` collects the texts of the columns of a ``_Records`` skeleton.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(OUT_OF_RANGE)
        return float.__repr__(value)
    if isinstance(value, np.ndarray):  # a column of a _Records skeleton
        slots.append(_column_texts(value))
        return _SLOT
    inner = pad if indent is None else pad + indent
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(key)}: {_dumps(item, indent, inner, slots)}"
                 for key, item in value.items()]
    elif isinstance(value, _Records):
        brackets = "[]"
        items = _record_texts(value, indent, inner)
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_dumps(item, indent, inner, slots) for item in value]
    else:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    if indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _record_texts(records: _Records, indent: str | None, pad: str) -> list[str]:
    """One text per record: the skeleton's template filled row by row."""
    if not records.count:
        return []
    slots: list[list[str]] = []
    template = _dumps(records.skeleton, indent, pad, slots)
    template = template.replace("%", "%%").replace(_SLOT, "%s")
    rows = zip(*slots) if slots else [()] * records.count
    return [template % row for row in rows]


def _column_texts(column: np.ndarray) -> list[str]:
    """The JSON texts of a column: a float column is checked for non-finite
    entries once and written by ``float.__repr__`` as a whole."""
    if column.dtype.kind == "f":
        if not np.isfinite(column).all():
            raise DomainError(OUT_OF_RANGE)
        return list(map(float.__repr__, column.tolist()))
    return [_dumps(value, None) for value in column.tolist()]


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


def _csv_text(columns: dict) -> str:
    """The CSV table of equal-length ``columns``: a header, then a line per row.

    A float column is checked for non-finite entries once and written with
    ``%.9g``, as ``_fmt`` writes a float, and an int column with ``%d``.  The
    cells of any other column (bool, None, floats among None, or a list of
    ints that numpy holds as floats because their range spans int64 and
    uint64) take ``_fmt``'s text.  One %-format renders the whole table.
    """
    specs, cells = [], []
    for column in columns.values():
        values = np.asarray(column)
        if values.dtype.kind == "f" and not isinstance(column, np.ndarray):
            if not all(isinstance(cell, float) for cell in column):  # ints numpy made floats
                values = np.array(column, dtype=object)
        if values.dtype.kind == "f":
            if not np.isfinite(values).all():
                raise DomainError(OUT_OF_RANGE)
            specs.append("%.9g")
        elif values.dtype.kind in "iu":
            specs.append("%d")
        else:
            specs.append("%s")
            values = np.array([_fmt(value) for value in values.tolist()], dtype=object)
        cells.append(values)
    table = np.empty((len(cells[0]), len(cells)), dtype=object)
    for j, values in enumerate(cells):
        table[:, j] = values
    line = ",".join(specs) + "\n"
    return ",".join(columns) + "\n" + (line * len(table)) % tuple(table.ravel().tolist())


def _emit(args, config: dict, results, columns: dict | None, rng: str | None = None) -> None:
    """JSON envelope, or the CSV table of ``columns`` (None: JSON only, and
    the command has refused CSV before doing any work)."""
    if args.format == "json":
        metadata = {"seed": getattr(args, "seed", None), "version": __version__}
        if rng is not None:
            metadata["rng"] = rng
        payload = {"config": config, "results": results, "metadata": metadata}
        text = _dumps(payload) + "\n"
    else:
        text = _csv_text(columns)
        print(f"config: {_dumps(config, indent=None)}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------


def cmd_eof_surface(args) -> int:
    a_axis = _grid(args.a_min, args.a_max, args.a_steps)
    b_axis = _grid(args.b_min, args.b_max, args.b_steps)
    if a_axis.size and b_axis.size:
        # PairParams on the first pair it rejects in row-major order: a pair of
        # row 0 when some b is bad, else the first bad a's pair with b[0]
        bad_b = ~(b_axis > 0)
        row = 0 if bad_b.any() else np.argmax(~(a_axis > 0))
        PairParams(a=float(a_axis[row]), b=float(b_axis[np.argmax(bad_b)]))
    a, b = (axis.ravel() for axis in np.meshgrid(a_axis, b_axis, indexing="ij"))
    columns = {"a": a, "b": b, "eof": _eof(a, b)}  # a value that is not finite fails _emit
    _emit(args, _config(args), _Records(columns, a.size), columns)
    return 0


def cmd_simon(args) -> int:
    params = PairParams(a=args.a, b=args.b)
    results = {
        # the family's closed-form matrix is physical by construction (tested)
        "I_general": simon_invariant(covariance_matrix(params), validate=False),
        "I_closed": simon_invariant_closed_form(params),
        # nu < 1 at every finite b: also where I_general rounds to 0 and
        # where 1 - nu underflows to 0 (a/b < ~1e-162)
        "separable": math.isinf(params.b),
    }
    _emit(args, _config(args), results, {key: [value] for key, value in results.items()})
    return 0


def cmd_dispersion_curve(args) -> int:
    times = _grid(args.t_min, args.t_max, args.t_steps)
    if not math.isfinite(args.offset):
        raise DomainError(f"production offset --offset must be finite, got {args.offset}")
    dx_sep = predicted_dispersion_separable(args.u, times)
    # the entangled pair exists only from the offset on; None (empty cell) before
    offset = args.offset if args.offset > 0 else 0.0
    dx_ent = predicted_dispersion_entangled(args.u, args.b, np.maximum(times - offset, 0.0))
    dx_ent = dx_ent.astype(object)
    dx_ent[~(times >= offset)] = None
    crossing = None
    if args.offset > 0:
        found = crossing_times(args.u, args.b, args.offset)
        crossing = {"lab": found.lab, "entangled_clock": found.entangled_clock}
        if args.format == "csv":  # _fmt rejects a crossing that is not finite, as JSON does
            print(f"crossing: lab={_fmt(found.lab)} entangled_clock={_fmt(found.entangled_clock)}",
                  file=sys.stderr)
    columns = {"t": times, "dx_separable": dx_sep, "dx_entangled": dx_ent}
    results = {"rows": _Records(columns, times.size), "crossing": crossing}
    _emit(args, _config(args), results, columns)
    return 0


def _verdict_columns(batch) -> dict:
    b_hat = batch.b_hat.astype(object)
    b_hat[np.isinf(batch.b_hat)] = "inf"  # as _inf_str
    return {"classification": batch.classification, "b_hat": b_hat,
            "confidence": batch.confidence}


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
    # the batch, then its output: a JSON record has 8 values in mode 1 and
    # 13 + 4 a time in mode 2, and the CSV table 5 a time
    n_times = 1 if args.mode == 1 else len(times)
    if args.mode == 1:
        values = 8
    else:
        values = 13 + 4 * n_times if args.format == "json" else 5 * n_times
    require_memory(_batch_bytes(args.trials, n_times)
                   + args.trials * values * _VALUE_BYTES[args.format])
    run = {"n_samples": args.n_samples, "seed": args.seed, "trials": args.trials,
           "noiseless": args.noiseless}
    columns = None  # mode 1 has no CSV rendering
    if args.mode == 1:
        if args.format == "csv":  # refused before the batch runs, not after
            raise DomainError(f"command {args.command!r} has no CSV rendering")
        batch = run_known_origin_batch(scenario, t_meas=times[0],
                                       tolerance_sigmas=args.threshold_sigmas, **run)
        trial = {"verdict": _verdict_columns(batch), "u_hat": batch.u_hat,
                 "t_known": batch.t_known, "dx_hat": batch.dx_hat, "stderr": batch.stderr,
                 "predicted_separable": batch.predicted_separable}
    else:
        batch = run_blind_batch(scenario, times=times, threshold_sigmas=args.threshold_sigmas,
                                **run)
        cov = batch.param_cov
        t_list = batch.times.tolist()
        trial = {
            "verdict": _verdict_columns(batch),
            "u_hat": batch.u_hat,
            "u_stderr": batch.u_stderr,
            "fit": {"alpha": batch.alpha, "beta": batch.beta, "alpha_sigma": batch.alpha_sigma,
                    "param_cov": [[cov[:, i, j] for j in range(2)] for i in range(2)],
                    "residual_rms": batch.residual_rms},
            "series": [{"t": t, "dx_hat": batch.dx_hat[:, j], "stderr": batch.stderr[:, j],
                        "n_samples": batch.n_samples} for j, t in enumerate(t_list)],
        }
        trials, n_times = batch.dx_hat.shape
        columns = {"trial": np.repeat(np.arange(trials), n_times),
                   "t": np.tile(batch.times, trials), "dx_hat": batch.dx_hat.ravel(),
                   "stderr": batch.stderr.ravel(), "n_samples": [batch.n_samples] * trials * n_times}
    summary = {label: int(np.count_nonzero(batch.classification == label))
               for label in (SEPARABLE, ENTANGLED, INCONCLUSIVE)}
    config = _config(args, a=a)
    del config["u"]  # echoed as the width it implies
    # the trial skeleton's array leaves are the batch columns, one entry per trial
    results = {"trials": _Records(trial, batch.u_hat.size), "summary": summary}
    _emit(args, config, results, columns, rng=RNG_SCHEME)
    return 0


ORACLE_COLUMNS = ("t", "dx_closed", "dx_grid", "rel_dx", "dp_closed", "dp_grid", "rel_dp",
                  "norm_drift", "pass")


def _oracle_row(grid0, moments0, buffer, t: float) -> tuple:
    """Closed forms against quadrature of particle 1's moments at time t:
    those of ``grid0``, ``moments0``, at t = 0, else those of ``grid0``
    evolved into ``buffer``.  The evolved grid dies with this call, before
    the next row overwrites its buffer."""
    params = grid0.params
    if t > 0:
        grid = _evolve(grid0, t, buffer)
        mean_x1, var_x1, mean_k1, var_k1 = _particle_one(grid)
    else:
        grid = grid0
        mean_x1, var_x1 = moments0.mean_x1, moments0.var_x1
        mean_k1, var_k1 = moments0.mean_k1, moments0.var_k1
    dx_grid, dp_grid = math.sqrt(var_x1), math.sqrt(var_k1)
    dx_closed = position_dispersion(t, params)
    dp_closed = momentum_dispersion(params)
    rel_dx = abs(dx_grid - dx_closed) / dx_closed
    rel_dp = abs(dp_grid - dp_closed) / dp_closed
    norm_drift = abs(grid.norm() - 1.0)
    # a wrong sign or conjugation of the packet phase moves the centres to
    # -k_c t and -k_c, which no width, norm or centred moment can see
    drift = abs(mean_x1 - params.k_c * t)
    kick = abs(mean_k1 - params.k_c)
    passed = (rel_dx < DX_TOLERANCE and rel_dp < DX_TOLERANCE and norm_drift < NORM_TOLERANCE
              and drift < DX_TOLERANCE * dx_closed and kick < DX_TOLERANCE * dp_closed)
    return t, dx_closed, dx_grid, rel_dx, dp_closed, dp_grid, rel_dp, norm_drift, passed


def cmd_oracle_check(args) -> int:
    params = PairParams(a=args.a, b=args.b, k_c=args.kc)
    times = args.times
    if not times:
        raise DomainError("provide at least one measurement time")
    if not all(map(math.isfinite, times)):
        raise DomainError(f"measurement times must be finite, got {times}")
    grid0 = initial_grid(params, n=args.grid_n, extent=args.grid_L, t_max=max(times))
    require_memory(_check_bytes(grid0))
    moments0 = moments(grid0)
    # every evolved grid's factors, in turn
    buffer = np.empty((grid0.n, 2 * grid0.schmidt.size), dtype=complex)
    rows = [_oracle_row(grid0, moments0, buffer, float(t)) for t in times]
    checks = [dict(zip(ORACLE_COLUMNS, row)) for row in rows]
    cm_delta = float(
        np.abs(_correlation_matrix(moments0).matrix - covariance_matrix(params).matrix).max()
    )
    ok = all(check["pass"] for check in checks) and cm_delta < CM_TOLERANCE
    results = {"checks": checks, "cm_max_abs_delta": cm_delta, "pass": ok}
    _emit(args, _config(args), results, dict(zip(ORACLE_COLUMNS, zip(*rows))))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on first use and kept."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # overflowing intermediates end in a non-finite result, which exits 2
        # through _emit: numpy's warnings about them would only be noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except tuple(EXIT_CODES) as exc:
        kind = next(kind for kind in EXIT_CODES if isinstance(exc, kind))
        print(f"error: {_MESSAGES.get(kind, exc)}", file=sys.stderr)
        return EXIT_CODES[kind]


if __name__ == "__main__":
    sys.exit(main())
