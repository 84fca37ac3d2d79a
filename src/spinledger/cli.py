"""Batch command line: run the models, emit machine-readable tables.

Six subcommands (ideal, measure, thermal, decohere, satellite, streak)
write CSV by default or JSON on request, each with a metadata header
echoing the full configuration, the package version, the PRNG identity,
and the active tolerances, so any output file can be reproduced
byte-for-byte by re-running its own header.

Exit codes: 0 success, 1 configuration error, 2 numerical-invariant
failure (a conservation audit tripping inside a run is a broken build,
never a result, and is surfaced loudly).
"""

from __future__ import annotations

import os

# One OpenBLAS thread, set before numpy loads; a value the caller set wins.
# OpenBLAS starts a worker per core on load, and an idle worker spins: on a
# 2-vCPU VM `import numpy` plus 0.3 s of sleep costs 0.23-0.32 s of CPU
# with the default pool and 0.13-0.19 s with one thread.  The commands'
# BLAS calls (batched 2x2 sector products, the streak fold's `np.dot`) are
# small; only the dense internal streak gains from a second thread, and
# there its wall time is 4-8% longer.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .angular import _check_spin, bloch_vector
from .apparatus import (
    _LABELS,
    _aligned_devices,
    _read_branches,
    _read_spin,
    _read_sweep,
    thermal_orientation_uncertainty,
)
from .config import NUMERICS
from .decoherence import EnvironmentConfig, _curve, _env_kets, overlap_decay_curve
from .experiments import PRNG_ID, lucky_streak_j2, satellite_run
from .ideal import classify_violation, ideal_forced_cross_terms
from .kernel import ConservationError

# The package's modules load before these.  Compiled from source (no
# bytecode cache), they then compile on the smaller heap, which keeps a
# run's peak RSS 0.2-0.4 MB lower than the usual order does.
import argparse
import functools
import gc
import itertools
import json
import locale  # noqa: F401  argparse's gettext loads it at every first parse; load it with the module
import math
import sys

# Everything the imports above made moves to the permanent generation, so
# a fresh run's first generation-1 collection no longer rescans those ~22k
# objects.  Only import-time cycles are exempt from collection; objects
# made later, by `main` or anything else, are collected as before.
gc.freeze()

__all__ = ["main"]

OUTDIR_ENV = "SPINLEDGER_OUTDIR"

# lines formatted and written per block of a streamed table
_CHUNK_ROWS = 1024

# header key of each NUMERICS field, in echo order; the first three keep
# the short names that headers carried before the other four were added
_TOLERANCE_KEYS = (
    ("state", "state_atol"),
    ("operator", "operator_atol"),
    ("conservation", "conservation_atol"),
    ("cross_term", "cross_term_tol"),
    ("audit", "audit_atol"),
    ("branch_weight_floor", "branch_weight_floor"),
    ("max_total_dim", "max_total_dim"),
)


def _fmt(x) -> str:
    """Fixed 17-significant-digit formatting for stable diffs."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _format_rows(rows: list):
    """Each row as its `_fmt` cells joined by commas.

    Rows with the same cell types share one %-template, so a long table
    is formatted in C rather than by a `_fmt` call per cell.  A row that
    is a `str` is a block: one or more lines already spelled and joined
    by "\n", without a final newline.  It passes through unchanged.
    """
    templates = {}
    for row in rows:
        if type(row) is str:
            yield row
            continue
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = ",".join("%.17g" if issubclass(t, float) else "%s" for t in types)
        yield templates[types] % tuple(row)


def _metadata(args, extra=None) -> dict:
    # echo a re-runnable command line: subcommand first, then flags
    flags = []
    for k, v in sorted(vars(args).items()):
        if k in ("func", "command", "output", "format") or v is None:
            continue
        if isinstance(v, list):
            v = ",".join(str(x) for x in v)
        flags.append(f"--{k.replace('_', '-')} {v}")
    meta = {
        "version": __version__,
        "prng": PRNG_ID,
        "tolerances": ",".join(
            f"{key}={getattr(NUMERICS, field)!r}" for key, field in _TOLERANCE_KEYS
        ),
        "config": " ".join([args.command] + flags),
    }
    if extra:
        meta.update(extra)
    return meta


def _blocks(rows):
    """The table's text a block at a time: lines joined by "\n", no final newline.

    Each block starts at a row.  A row that `_format_rows` passes on as a
    block of several lines is a block as it stands, not copied; a one-line
    row is joined with the next `_CHUNK_ROWS` - 1 rows.
    """
    texts = _format_rows(rows)
    for text in texts:
        yield text if "\n" in text else "\n".join([text, *itertools.islice(texts, _CHUNK_ROWS - 1)])


def _csv_chunks(meta: dict, columns: list[str], rows):
    """The CSV text: the header, then each block of `_blocks` as it stands and a newline."""
    yield ("".join(f"# {key} = {meta[key]}\n" for key in sorted(meta))
           + ",".join(columns) + "\n")
    for block in _blocks(rows):
        yield block
        yield "\n"


_json_string = json.JSONEncoder(ensure_ascii=True).encode


def _json_row(line: str) -> str:
    """One `_format_rows` line as a row of the indent-2 JSON table."""
    return "    [\n      " + ",\n      ".join(map(_json_string, line.split(","))) + "\n    ]"


def _json_chunks(meta: dict, columns: list[str], rows):
    """`json.dumps(payload, indent=2, sort_keys=True) + "\n"`, streamed.

    Sorted keys put "rows" last, so json.dumps spells "columns" and
    "metadata", and the rows follow in its layout a block of `_blocks` at
    a time, split into its lines for `_json_row`.
    """
    empty = json.dumps({"columns": columns, "metadata": meta, "rows": []},
                       indent=2, sort_keys=True)
    yield empty[:-len("[]\n}")]
    sep = "[\n"
    for block in _blocks(rows):
        yield sep + ",\n".join(map(_json_row, block.split("\n")))
        sep = ",\n"
    yield "[]\n}\n" if sep == "[\n" else "\n  ]\n}\n"


def _write_table(args, meta: dict, columns: list[str], rows) -> None:
    """Write a table to --output or stdout, CSV or JSON, streamed either way.

    rows may be any iterable, so a long table need never be held whole.
    Cells are numbers and labels, none of which holds a comma; a row may
    also carry a run of cells already spelled by `_format_rows`, joined by
    the same comma, so splitting a line on commas gives one cell per column.
    A row may also be a block of lines already spelled the same way, a
    `str` of lines joined by "\n" without a final newline.  CSV writes a
    block of `_CHUNK_ROWS` lines as it stands; JSON splits it into its
    lines, one JSON row each, in the bytes of
    `json.dumps(payload, indent=2, sort_keys=True)`.
    """
    chunks = (_json_chunks if args.format == "json" else _csv_chunks)(meta, columns, rows)
    if args.output:
        path = args.output
        outdir = os.environ.get(OUTDIR_ENV)
        if outdir and not os.path.isabs(path):
            path = os.path.join(outdir, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _spinor(args) -> tuple[complex, complex]:
    a = complex(args.a_re, args.a_im)
    b = complex(args.b_re, args.b_im)
    try:
        nrm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    except OverflowError:
        nrm = math.inf
    if not math.isfinite(nrm):
        raise ValueError(
            f"--a-re/--a-im/--b-re/--b-im must be finite with a finite norm, "
            f"got a = {a!r}, b = {b!r}"
        )
    if nrm < 1e-12:
        raise ValueError("spinor amplitudes are all zero")
    return a / nrm, b / nrm


def _cmd_ideal(args) -> None:
    a, b = _spinor(args)
    brackets = ideal_forced_cross_terms(a, b)

    # classifier demo on the same data: ideal account stores the
    # transverse books in the cross terms
    cross_contrib = a.conjugate() * b * brackets.cross()
    ideal_report = classify_violation(
        0.5 * bloch_vector(a, b).as_array(),
        [(a, brackets.diag_u), (b, brackets.diag_d)],
        cross_contrib,
        labels=["up", "dn"],
    )
    coeffs, present, means = _read_branches(a, b, _aligned_devices([args.L]))
    branches = [((coeff, j), label)
                for coeff, have, j, label in zip(coeffs, present, means, _LABELS) if have]
    # the input's <J> as the device reads it: a tilted device's <L> is not (0, 0, L)
    model_report = classify_violation(
        means[2],
        [bv for bv, _ in branches],
        np.zeros(3, dtype=complex),
        labels=[lbl for _, lbl in branches],
    )

    meta = _metadata(args, {
        "ideal_classification": ideal_report.kind.value,
        "apparatus_classification": model_report.kind.value,
    })
    rows = [
        ["x", brackets.cross_x.real, brackets.cross_x.imag, brackets.max_residual],
        ["y", brackets.cross_y.real, brackets.cross_y.imag, brackets.max_residual],
        ["z", brackets.cross_z.real, brackets.cross_z.imag, brackets.max_residual],
    ]
    _write_table(args, meta, ["component", "cross_re", "cross_im", "max_residual"], rows)


def _cmd_measure(args) -> None:
    rows = _read_sweep(args.L)
    meta = _metadata(args)
    _write_table(args, meta, [
        "L", "C", "D", "E", "F", "matching_residual_max",
        "bracket_jx_mag", "delta_L", "inv_delta_theta",
    ], rows)


def _cmd_thermal(args) -> None:
    thermal = thermal_orientation_uncertainty(args.I, args.T)
    meta = _metadata(args, {"note": thermal.note})
    rows = [[thermal.moment_of_inertia, thermal.temperature, thermal.ikt,
             thermal.delta_l, thermal.delta_theta]]
    _write_table(args, meta, ["I", "T", "IkT", "delta_L", "delta_theta"], rows)


def _cmd_decohere(args) -> None:
    device = _aligned_devices([args.L])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    # particle sigma_x = 2 Sx extended over the apparatus: couples the two
    # total-j manifolds, so its record-sector bracket is nonzero at n=0
    cross = complex(2 * _read_spin(inv_sqrt2, inv_sqrt2, device)[2][2, 0])
    curve = overlap_decay_curve(args.overlap, args.n_env)
    measured = [abs(c) for c in _curve(cross, _env_kets(EnvironmentConfig(args.n_env, args.overlap)))]
    baseline = measured[0]   # n = 0: the record not yet amplified
    rows = [[n_q, bound, m, baseline * bound, abs(m - baseline * bound)]
            for (n_q, bound), m in zip(curve, measured)]
    meta = _metadata(args, {"baseline_cross_term": _fmt(baseline)})
    _write_table(args, meta, [
        "n_env", "bound", "measured_cross_mag", "predicted_cross_mag", "deviation",
    ], rows)


def _satellite_lines(run, outcome_cells: np.ndarray, audit_cell: str):
    """The satellite table, each `_CHUNK_ROWS` block of `run.blocks` spelled by one `%` call.

    A block's cells fill an (m, 2 + c) object array: the step, the
    outcome's pre-spelled cells looked up by the block's outcomes in the
    two-entry `outcome_cells` (dn, up), and the c ledger columns that vary
    within the block.  A ledger column whose 64-bit patterns are all equal
    in the block (both y columns of a real spinor) is spelled once, into
    the block's row template.  One row template, repeated m times, spells
    the block with the `%.17g` of `_format_rows`, and the block goes to the
    writer as one `str` of m lines.
    """
    audit = "," + audit_cell.replace("%", "%%")
    stop = 0
    for up, ideal, full in run.blocks(_CHUNK_ROWS):
        start, stop = stop, stop + len(up)
        row, varying = "%d,%s", []
        for column in (*ideal.T, *full.T):
            bits = column.view(np.uint64)
            if (bits != bits[0]).any():
                row += ",%.17g"
                varying.append(column)
            else:
                row += ",%.17g" % column[0]
        cells = np.empty((len(up), 2 + len(varying)), dtype=object)
        cells[:, 0] = np.arange(start + 1, stop + 1)
        cells[:, 1] = outcome_cells[up.astype(np.intp)]
        for j, column in enumerate(varying, 2):
            cells[:, j] = column
        yield "\n".join([row + audit] * len(cells)) % tuple(cells.ravel().tolist())


def _cmd_satellite(args) -> None:
    a, b = _spinor(args)
    run = satellite_run(args.n, args.L, a, b, args.seed)
    meta = _metadata(args, {"seed": str(args.seed), **{
        k: v for k, v in run.metadata.items() if k not in ("prng", "seed")
    }})
    info = run.branch_info
    # the outcome's label, weight and <J>, in the (dn, up) order that
    # `outcome_up` indexes, and the audit, spelled once
    outcome_cells = np.array(list(_format_rows(
        [label, info[label]["weight"], *info[label]["j"].tolist()] for label in ("dn", "up"))),
        dtype=object)
    audit_cell = next(_format_rows([[run.audit_deviation]]))
    rows = _satellite_lines(run, outcome_cells, audit_cell)
    _write_table(args, meta, [
        "step", "outcome", "branch_weight",
        "branch_jx", "branch_jy", "branch_jz",
        "ideal_x", "ideal_y", "ideal_z",
        "full_x", "full_y", "full_z",
        "audit_deviation",
    ], rows)


def _cmd_streak(args) -> None:
    report = lucky_streak_j2(args.n, args.L, args.mode, K=args.K, seed=args.seed)
    meta = _metadata(args, {
        "pattern": report.pattern,
        "j2_band": f"{_fmt(report.j2_band[0])}..{_fmt(report.j2_band[1])}",
        **{k: str(v) for k, v in report.metadata.items() if k != "prng"},
    })
    rows = []
    for k in range(len(report.postselected_j2)):
        ledger = (report.combined_jz_ledger[k]
                  if report.combined_jz_ledger is not None else "")
        weight = report.step_weights[k - 1] if k >= 1 else ""
        rows.append([k, report.postselected_j2[k], report.postselected_jz[k],
                     ledger, weight])
    _write_table(args, meta, [
        "k", "postselected_j2", "postselected_jz", "combined_jz_ledger",
        "step_weight",
    ], rows)


def _parse_l(value: str) -> list[float]:
    try:
        return [_check_spin(float(part), 0.5, "L") for part in value.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_spinor(p) -> None:
    p.add_argument("--a-re", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--a-im", type=float, default=0.0)
    p.add_argument("--b-re", type=float, default=1.0 / math.sqrt(2.0))
    p.add_argument("--b-im", type=float, default=0.0)


def _ideal_args(p) -> None:
    _add_spinor(p)
    p.add_argument("--L", type=float, default=4.0, help="apparatus spin for the demo")


def _measure_args(p) -> None:
    p.add_argument("--L", type=_parse_l, default=[1.0],
                   help="apparatus spin, or comma list for a sweep")


def _thermal_args(p) -> None:
    p.add_argument("--I", type=float, default=0.01, help="moment of inertia, kg m^2")
    p.add_argument("--T", type=float, default=300.0, help="temperature, K")


def _decohere_args(p) -> None:
    p.add_argument("--L", type=float, default=2.0)
    p.add_argument("--overlap", type=float, default=0.8,
                   help="per-qubit conditional overlap in [0, 1)")
    p.add_argument("--n-env", type=int, default=8, help="max environment qubits")


def _satellite_args(p) -> None:
    p.add_argument("--n", type=int, default=100, help="number of particles")
    p.add_argument("--L", type=float, default=8.0)
    _add_spinor(p)
    p.add_argument("--seed", type=int, default=0)


def _streak_args(p) -> None:
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--L", type=float, default=4.0)
    p.add_argument("--mode", choices=["external", "internal"], default="external")
    p.add_argument("--K", type=float, default=None, help="source spin (internal mode)")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the header for provenance; the post-selected "
                        "analysis is deterministic")


# each subcommand: its help line, its own arguments and what it runs
_COMMANDS = {
    "ideal": ("forced ideal cross terms plus classifier demo", _ideal_args, _cmd_ideal),
    "measure": ("apparatus model: amplitudes, matching residuals, scaling", _measure_args, _cmd_measure),
    "thermal": ("SI orientation-uncertainty estimate", _thermal_args, _cmd_thermal),
    "decohere": ("cross-term suppression under record amplification", _decohere_args, _cmd_decohere),
    "satellite": ("repeated measurements with dual ledgers", _satellite_args, _cmd_satellite),
    "streak": ("post-selected J^2 growth, external vs internal source", _streak_args, _cmd_streak),
}


@functools.cache
def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI parser for one subcommand, built once per process: `parse_args` leaves it unchanged.

    Every subcommand is registered with its name and help, but only
    `command`'s arguments are added: a run parses one subcommand, and
    building all six parsers' arguments would cost it 1-2 ms.
    """
    parser = argparse.ArgumentParser(
        prog="spinledger",
        description="Angular-momentum bookkeeping for quantum spin measurement",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, run) in _COMMANDS.items():
        p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter, help=text,
                           add_help=name == command)
        if name == command:
            add_arguments(p)
            p.add_argument("--output", help="output path (default: stdout); relative "
                           f"paths resolve under ${OUTDIR_ENV} when set")
            p.add_argument("--format", choices=["csv", "json"], default="csv")
            p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the first token that is not an option names the subcommand
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep config errors at 1
        return 1 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except ConservationError as exc:
        print(f"spinledger: conservation audit failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"spinledger: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
