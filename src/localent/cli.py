"""Batch command-line front end.

Subcommands emit analysis tables and protocol runs as CSV or JSON:
``eof-surface``, ``simon``, ``dispersion-curve``, ``protocol`` and
``oracle-check``.  All runs are deterministic given their flags and seed;
JSON payloads carry a config echo plus {seed, version} metadata, and
``protocol`` adds ``rng``, the label of its random-stream scheme.  CSV runs
echo the config (every option but ``--format`` and ``--out``) to stderr.
JSON text is written by this module's own encoder with the bytes of
``json.dumps(value, indent=2, allow_nan=False)``: it appends the text as
fragments to one list, and the whole document is rendered before any of it
is written.  The fragments are then joined, encoded and written
``_PIECE_FRAGMENTS`` at a time, so no text or bytes object of a whole large
document is ever built; a shorter document takes one join.  ``protocol`` trials
are rendered column by column straight from the batch arrays, each column
once, even where the record holds it at two leaves, and by the cheapest
exact path for its dtype; the float columns of a batch are checked for
non-finite entries and written by ``float.__repr__`` in one pass.  No
record is formatted on its own: the text of the record's shape is split at
its column leaves once, and the records are appended as one interleaving of
those literal pieces with the column texts.  Every command hands its CSV
table over as columns: each column is checked once, before any of the table
is written, and the table is then rendered and written ``_PIECE_FRAGMENTS``
rows at a time, each block by one %-format.
``eof-surface`` evaluates its whole grid as arrays.

``--out`` is rewritten in place: the file is opened without truncation,
written over, and then cut at the end of the new text.  Truncating a file
that holds data up front, as ``open(path, "w")`` does, can cost several
times the write itself on a filesystem that discards freed blocks, and a
campaign of small calls overwrites the same files again and again.  A
device such as ``/dev/null`` is written and not cut.

The argument parsers are built once per process, on the first ``main``
call.  A call that starts with a subcommand's name is parsed by that
subcommand's parser alone; anything else (no arguments, an unknown name,
``-h``) goes through the top-level parser.  A subcommand's argv whose
tokens are all its options in full, as ``--opt value`` or ``--opt=value``,
with values that their types and choices accept, is read straight off that
parser's option table: the namespace is argparse's, key order included, at
a fraction of argparse's cost.  Any other argv (an abbreviation, an unknown
option, ``-h``, a missing value or required option, a value refused) is
argparse's to parse, so help, usage and errors are its own.  A value of an
option with a type that begins with ``-``, such as ``--times -1,2``, is
read as ``--times=-1,2``, where argparse would take it for an option.  A
``--opt=value`` value is taken verbatim: ``--out=--`` names a file ``--``.

Exit codes: 0 ok, 2 domain violation, a result that is not finite, a
request that does not fit in memory or an ``--out`` that cannot be written,
3 oracle-check tolerance failure (or grid error), 4 ill-conditioned fit.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import stat
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .covariance import _eof, covariance_matrix, simon_invariant, simon_invariant_closed_form
from .errors import DomainError, FitError, GridError, require_memory
from .oracle import _check_bytes, _correlation_matrix, _schedule, initial_grid, moments
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


class _Unwritable(Exception):
    """The ``--out`` file cannot be opened or written."""


EXIT_CODES = {DomainError: 2, ArithmeticError: 2, MemoryError: 2, _Unwritable: 2, GridError: 3,
              FitError: 4}
OUT_OF_RANGE = "the input is outside the representable range: a result is not finite"
# the error line of these exceptions, in place of their own text
_MESSAGES = {ArithmeticError: OUT_OF_RANGE, MemoryError: "the request does not fit in memory"}
# bytes that rendering one value of a protocol trial holds at its peak: its
# str object, its share of the fragment list and of the output where that is
# kept in memory (the writer holds one piece of the text at a time).  The
# traced runs of the memory test, whose stdout is captured in memory, peak at
# 70-103 B a value in JSON, the least for noiseless runs, and 31-38 B in CSV
# beside the batch's charge; the whole charge is 1.19-1.46 times the traced
# peak in JSON and 1.40-1.45 times in CSV.  An oracle-check row's 9 values,
# with the columns they come from, take 82 B a value in JSON and 34 B in CSV
# (501 times at n = 256).
_VALUE_BYTES = {"json": 128, "csv": 64}
# fragments that the writer joins, encodes and writes at a time.  A protocol
# record's fragments are 32 B long on average and at most ~100 B, so a piece
# is ~16 KB and never past ~50 KB: well below glibc's 128 KiB mmap threshold,
# so each piece's str and bytes reuse the heap instead of faulting in pages.
_PIECE_FRAGMENTS = 512


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
    column); it is encoded once, and each record interleaves that text's
    literal pieces with its column texts."""

    skeleton: dict
    count: int


_SLOT = "\x00"  # a column leaf in a skeleton's text; encoded strings escape it


def _scalar(value) -> str | None:
    """The JSON text of a float, str, None, bool or int; None for any other
    value.  A non-finite float raises DomainError."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(OUT_OF_RANGE)
        return float.__repr__(value)
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
    return None


def _dumps(value, indent: str | None = "  ", end: str = "") -> str:
    """``json.dumps(value, indent=len(indent), allow_nan=False)``, or the
    one-line form with ", " and ": " separators when ``indent`` is None,
    followed by ``end``.

    Also takes ``_Records``.  Keys must be strings.  A non-finite float
    raises DomainError.  The text is the join of :func:`_fragments`.
    """
    return "".join(_fragments(value, indent, end))


def _fragments(value, indent: str | None = "  ", end: str = "") -> list[str]:
    """The text of ``_dumps(value, indent, end)`` as the list of fragments
    that :func:`_write` appends, not joined."""
    fragments: list[str] = []
    _write(value, indent, "", fragments, None)
    fragments.append(end)
    return fragments


def _write(value, indent: str | None, pad: str, out: list, columns: list | None) -> None:
    """Append the text of ``value`` (as ``_dumps`` writes it) to ``out`` as
    fragments, to be joined later.  ``pad`` is the indent of the value's own
    line, and ``columns`` collects the columns of a ``_Records`` skeleton.
    A scalar or column member of a container is written with its key and
    the bracket or separator before it as one fragment."""
    if not isinstance(value, (dict, list, tuple, _Records)):
        text = _scalar(value)
        if text is None:
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        out.append(text)
        return
    if not (value.count if isinstance(value, _Records) else value):
        out.append("{}" if isinstance(value, dict) else "[]")
        return
    inner = pad if indent is None else pad + indent
    if indent is None:
        opening, sep, closing = "", ", ", ""
    else:
        opening, sep, closing = f"\n{inner}", f",\n{inner}", f"\n{pad}"
    keyed = isinstance(value, dict)
    head = ("{" if keyed else "[") + opening
    if isinstance(value, _Records):
        out.append(head)
        _write_records(value, indent, inner, sep, out)
    else:
        for item in value.items() if keyed else value:
            if keyed:
                key, item = item
                head = f"{head}{encode_basestring_ascii(key)}: "
            if isinstance(item, np.ndarray):  # a column of a _Records skeleton
                columns.append(item)
                out.append(head + _SLOT)
            elif (text := _scalar(item)) is not None:
                out.append(head + text)
            else:
                out.append(head)
                _write(item, indent, inner, out, columns)
            head = sep
    out.append(closing + ("}" if keyed else "]"))


def _write_records(records: _Records, indent: str | None, pad: str, sep: str, out: list) -> None:
    """The records, each but the last followed by ``sep``, appended as one
    interleaving: the skeleton's text is split at its column leaves once,
    and each record is its literal pieces alternating with its column
    texts.  A column object that appears at several leaves is rendered
    once.  The float columns are checked for non-finite entries and written
    by ``float.__repr__`` in one pass over their concatenation."""
    fragments: list[str] = []
    columns: list[np.ndarray] = []
    _write(records.skeleton, indent, pad, fragments, columns)
    pieces = "".join(fragments).split(_SLOT)
    unique = {id(column): column for column in columns}
    floats = [column for column in unique.values() if column.dtype.kind == "f"]
    texts = {key: _column_texts(column) for key, column in unique.items()
             if column.dtype.kind != "f"}
    if floats:
        values = np.concatenate(floats)
        if not np.isfinite(values).all():
            raise DomainError(OUT_OF_RANGE)
        flat = map(float.__repr__, values.tolist())  # each column's texts, in turn
        texts.update((id(column), list(itertools.islice(flat, column.size))) for column in floats)
    last = pieces[-1]
    pieces[-1] = last + sep
    # piece, column, piece, ..., column, piece + sep: one record per zip step
    parts = [None] * (2 * len(pieces) - 1)
    parts[::2] = map(itertools.repeat, pieces, itertools.repeat(records.count))
    parts[1::2] = [texts[id(column)] for column in columns]
    out.extend(itertools.chain.from_iterable(zip(*parts)))
    out[-1] = last


def _column_texts(column: np.ndarray) -> list[str]:
    """The JSON texts of a column that is not a float column, each by the
    cheapest exact path: a string column by the string encoder, any other
    column entry by entry."""
    values = column.tolist()
    if column.dtype.kind == "U":
        return list(map(encode_basestring_ascii, values))
    return [text if (text := _scalar(value)) is not None else _dumps(value, None)
            for value in values]


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
    if "b" in config:  # JSON has no infinity: echo it as the string "inf"
        config["b"] = "inf" if math.isinf(config["b"]) else config["b"]
    return config


def _csv_pieces(columns: dict):
    """The CSV table of equal-length ``columns`` (a header, then a line per
    row) as an iterator of text pieces.

    A float column is checked for non-finite entries once and written with
    ``%.9g``, as ``_fmt`` writes a float, and an int column with ``%d``.  The
    cells of any other column (bool, None, floats among None, or a list of
    ints that numpy holds as floats because their range spans int64 and
    uint64) take ``_fmt``'s text.  Every check is made before this returns.
    Each piece is ``_PIECE_FRAGMENTS`` rows, rendered by one %-format as it
    is drawn, but the first, which holds the header too and is rendered at
    once.
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
    step = _PIECE_FRAGMENTS
    blocks = (table[i:i + step] for i in range(0, max(len(table), 1), step))
    texts = ((line * len(block)) % tuple(block.ravel().tolist()) for block in blocks)
    return itertools.chain([",".join(columns) + "\n" + next(texts)], texts)


def _emit(args, config: dict, results, columns: dict | None, rng: str | None = None) -> None:
    """JSON envelope, or the CSV table of ``columns`` (None: JSON only, and
    the command has refused CSV before doing any work), to ``--out`` or
    stdout.  Every value is checked first, so any DomainError comes before a
    byte is written.  The JSON text is rendered whole, and its fragments are
    then joined, encoded and written ``_PIECE_FRAGMENTS`` at a time; the CSV
    table is rendered and written ``_PIECE_FRAGMENTS`` rows at a time."""
    if args.format == "json":
        metadata = {"seed": getattr(args, "seed", None), "version": __version__}
        if rng is not None:
            metadata["rng"] = rng
        payload = {"config": config, "results": results, "metadata": metadata}
        fragments = _fragments(payload, end="\n")
        # the document is rendered: what is left is joining and writing it
        pieces = ("".join(fragments[i:i + _PIECE_FRAGMENTS])
                  for i in range(0, len(fragments), _PIECE_FRAGMENTS))
    else:
        pieces = _csv_pieces(columns)
        print(f"config: {_dumps(config, indent=None)}", file=sys.stderr)
    if args.out:
        try:
            _write_over(args.out, map(str.encode, pieces))
        except OSError as exc:
            raise _Unwritable(f"cannot write {args.out!r}: {exc.strerror or exc}") from exc
    else:
        for piece in pieces:
            sys.stdout.write(piece)


def _write_over(path: str, pieces) -> None:
    """Write the bytes ``pieces``, in turn, as the whole content of ``path``,
    created with mode 0o666 & ~umask where it does not exist.  A regular
    file is written over in place and then cut at the pieces' total length;
    a regular file whose write of any piece fails is cut to 0 bytes, so it
    never holds old and new text mixed."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)  # devices reject ftruncate
        try:
            size = 0
            for piece in pieces:
                view = memoryview(piece)
                while view:
                    view = view[os.write(fd, view):]
                size += len(piece)
            if regular:
                os.ftruncate(fd, size)
        except BaseException:  # any failure, a piece not joined too, leaves text mixed
            if regular:
                os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


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
    dx_ent = predicted_dispersion_entangled(args.u, args.b, np.maximum(times - args.offset, 0.0))
    dx_ent = dx_ent.astype(object)
    dx_ent[~(times >= args.offset)] = None
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
    b_hat[np.isinf(batch.b_hat)] = "inf"  # as _config echoes b
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
    columns = None  # JSON only: mode 1 has no CSV rendering
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
        off_diagonal = cov[:, 0, 1]  # bitwise equal to cov[:, 1, 0]: the fit builds it so
        t_list = batch.times.tolist()
        trial = {
            "verdict": _verdict_columns(batch),
            "u_hat": batch.u_hat,
            "u_stderr": batch.u_stderr,
            "fit": {"alpha": batch.alpha, "beta": batch.beta, "alpha_sigma": batch.alpha_sigma,
                    # one object at both off-diagonal leaves, rendered once
                    "param_cov": [[cov[:, 0, 0], off_diagonal],
                                  [off_diagonal, cov[:, 1, 1]]],
                    "residual_rms": batch.residual_rms},
            "series": [{"t": t, "dx_hat": batch.dx_hat[:, j], "stderr": batch.stderr[:, j],
                        "n_samples": batch.n_samples} for j, t in enumerate(t_list)],
        }
        if args.format == "csv":  # JSON renders the trial skeleton alone
            columns = {"trial": np.repeat(np.arange(args.trials), n_times),
                       "t": np.tile(batch.times, args.trials), "dx_hat": batch.dx_hat.ravel(),
                       "stderr": batch.stderr.ravel(),
                       "n_samples": [batch.n_samples] * batch.dx_hat.size}
    labels = batch.classification.tolist()
    summary = {label: labels.count(label) for label in (SEPARABLE, ENTANGLED, INCONCLUSIVE)}
    config = _config(args, a=a)
    del config["u"]  # echoed as the width it implies
    # the trial skeleton's array leaves are the batch columns, one entry per trial
    results = {"trials": _Records(trial, batch.u_hat.size), "summary": summary}
    _emit(args, config, results, columns, rng=RNG_SCHEME)
    return 0


ORACLE_COLUMNS = ("t", "dx_closed", "dx_grid", "rel_dx", "dp_closed", "dp_grid", "rel_dp",
                  "norm_drift", "pass")


def cmd_oracle_check(args) -> int:
    params = PairParams(a=args.a, b=args.b, k_c=args.kc)
    times = args.times
    if not times:
        raise DomainError("provide at least one measurement time")
    if not all(map(math.isfinite, times)):
        raise DomainError(f"measurement times must be finite, got {times}")
    grid0 = initial_grid(params, n=args.grid_n, extent=args.grid_L, t_max=max(times))
    t = np.array(times, dtype=float)
    # particle 1's moments and the norm at each time: those of grid0 at t = 0,
    # else of its evolution; no time past the first negative one is evolved,
    # since that time's DomainError ends the call unless an earlier one fails
    evolved = (t > 0) & (np.cumsum(t < 0) == 0)
    # the grid's arrays and the schedule's, then the output: 9 values a time
    require_memory(_check_bytes(grid0, int(evolved.sum()))
                   + len(times) * len(ORACLE_COLUMNS) * _VALUE_BYTES[args.format])
    moments0 = moments(grid0)
    rows = np.empty((t.size, 5))
    rows[:] = (grid0.norm(), moments0.mean_x1, moments0.var_x1, moments0.mean_k1,
               moments0.var_k1)
    rows[evolved] = _schedule(grid0, t[evolved])
    norm, mean_x1, var_x1, mean_k1, var_k1 = rows.T
    dx_grid, dp_grid = np.sqrt(var_x1), np.sqrt(var_k1)
    dx_closed = position_dispersion(t, params)
    dp_closed = momentum_dispersion(params)
    rel_dx = np.abs(dx_grid - dx_closed) / dx_closed
    rel_dp = np.abs(dp_grid - dp_closed) / dp_closed
    norm_drift = np.abs(norm - 1.0)
    # a wrong sign or conjugation of the packet phase moves the centres to
    # -k_c t and -k_c, which no width, norm or centred moment can see
    drift = np.abs(mean_x1 - params.k_c * t)
    kick = np.abs(mean_k1 - params.k_c)
    passed = ((rel_dx < DX_TOLERANCE) & (rel_dp < DX_TOLERANCE) & (norm_drift < NORM_TOLERANCE)
              & (drift < DX_TOLERANCE * dx_closed) & (kick < DX_TOLERANCE * dp_closed))
    columns = dict(zip(ORACLE_COLUMNS, (t, dx_closed, dx_grid, rel_dx, np.full(t.size, dp_closed),
                                        dp_grid, rel_dp, norm_drift, passed)))
    cm_delta = float(
        np.abs(_correlation_matrix(moments0).matrix - covariance_matrix(params).matrix).max()
    )
    ok = bool(passed.all()) and cm_delta < CM_TOLERANCE
    results = {"checks": _Records(columns, t.size), "cm_max_abs_delta": cm_delta, "pass": ok}
    _emit(args, _config(args), results, columns)
    return 0 if ok else 3


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localent",
        description="Entanglement detection in free Gaussian pairs: closed forms, "
        "covariance analysis, spectral-grid checks and measurement protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subcommand parser, for main's direct parse

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
    p.add_argument("--b", type=float, required=True, help="positive float or 'inf'")
    common(p, "json", cmd_simon)

    p = sub.add_parser("dispersion-curve", help="separable vs entangled dispersion curves")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
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
    p.add_argument("--b", type=float, required=True)
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
    p.add_argument("--b", type=float, required=True)
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


def _walk(parser: argparse.ArgumentParser, command: str, argv: list) -> argparse.Namespace | None:
    """``parser.parse_args(argv, Namespace(command=command))``, read off the
    parser's own option table, for an argv of its options in full, each
    given as ``--opt value`` or ``--opt=value`` (a flag alone) with a value
    that its type and choices accept; None for any other argv, which is
    argparse's to parse or to report.  A value given as a separate token
    that begins with ``-`` goes to the option's type, unless it is an option
    string, where argparse would take it for an option; an untyped option
    refuses it, as argparse does.  A ``--opt=value`` value is taken
    verbatim, so ``--out=--`` names a file ``--``, which argparse would
    drop."""
    table = parser._option_string_actions
    given = {}
    tokens = iter(argv)
    for token in tokens:
        name, eq, text = token.partition("=")
        action = table.get(name)
        if isinstance(action, argparse._StoreConstAction) and not eq:
            given[action.dest] = action.const
            continue
        if type(action) is not argparse._StoreAction or action.nargs is not None:
            return None  # unknown, abbreviated, -h, -- or an explicit flag value
        if not eq:  # only a separate token can be taken for an option
            text = next(tokens, None)
            if text is None or text in table or action.type is None and text.startswith("-"):
                return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse's to report
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    # the defaults in argparse's order: the command, the options, the parser's
    values = {"command": command}
    for action in parser._actions:
        if action.default is not argparse.SUPPRESS:  # -h has no value
            if action.dest not in given and (
                    action.required or action.type and isinstance(action.default, str)):
                return None
            values[action.dest] = action.default
    values.update({**parser._defaults, **values, **given})  # new keys, the parser's, go last
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, an unknown command or a leading option
        args = parser.parse_args(argv)
    else:  # the namespace the top-level parser would hand its subparser
        args = (_walk(command, argv[0], argv[1:])
                or command.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
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
