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

import argparse
import functools
import gc
import itertools
import json
import locale  # noqa: F401  argparse's gettext loads it at every first parse; load it with the module
import math
import os
import sys

import numpy as np

from . import __version__
from .angular import _check_spin, angular_spread, bloch_vector
from .apparatus import (
    _j_means,
    _matching_brackets,
    _matching_residuals,
    build_measurement_unitary,
    decompose_branches,
    extract_error_amplitudes,
    premeasure,
    thermal_orientation_uncertainty,
)
from .config import NUMERICS, NumericsConfig
from .decoherence import EnvironmentConfig, amplify_record, cross_term_curve, overlap_decay_curve
from .experiments import PRNG_ID, lucky_streak_j2, satellite_run
from .ideal import classify_violation, ideal_forced_cross_terms
from .kernel import ConservationError

# Everything the imports above made moves to the permanent generation, so
# a fresh run's first generation-1 collection no longer rescans those ~22k
# objects.  Only import-time cycles are exempt from collection; objects
# made later, by `main` or anything else, are collected as before.
gc.freeze()

__all__ = ["main"]

OUTDIR_ENV = "SPINLEDGER_OUTDIR"

# rows formatted and written per chunk of a streamed table
_CHUNK_ROWS = 4096

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
    if isinstance(x, float):
        return format(x, ".17g")
    if isinstance(x, complex):
        return f"{format(x.real, '.17g')}{'+' if x.imag >= 0 else '-'}{format(abs(x.imag), '.17g')}j"
    return str(x)


def _format_rows(rows: list):
    """Each row as its `_fmt` cells joined by commas.

    Rows with the same cell types share one %-template, so a long table
    is formatted in C rather than by a `_fmt` call per cell.  A row with
    a complex cell, which %-formatting cannot spell like `_fmt`, goes
    cell by cell.  A row that is a `str` is a whole line already spelled
    and passes through unchanged.
    """
    templates = {}
    for row in rows:
        if type(row) is str:
            yield row
            continue
        types = tuple(map(type, row))
        if types not in templates:
            spell = ("%.17g" if issubclass(t, float) else "%s" for t in types)
            templates[types] = (None if any(issubclass(t, complex) for t in types)
                                else ",".join(spell))
        template = templates[types]
        yield ",".join(map(_fmt, row)) if template is None else template % tuple(row)


def _metadata(args, extra=None) -> dict:
    # echo a re-runnable command line: subcommand first, then flags
    flags = []
    for k, v in sorted(vars(args).items()):
        if k in ("func", "command", "output", "format", "jobs") or v is None:
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


def _csv_chunks(meta: dict, columns: list[str], rows):
    """The CSV text: the header, then the formatted rows `_CHUNK_ROWS` at a time."""
    yield ("".join(f"# {key} = {meta[key]}\n" for key in sorted(meta))
           + ",".join(columns) + "\n")
    lines = _format_rows(rows)
    while chunk := list(itertools.islice(lines, _CHUNK_ROWS)):
        chunk.append("")
        yield "\n".join(chunk)


_json_string = json.JSONEncoder(ensure_ascii=True).encode


def _json_row(line: str) -> str:
    """One `_format_rows` line as a row of the indent-2 JSON table."""
    return "    [\n      " + ",\n      ".join(map(_json_string, line.split(","))) + "\n    ]"


def _json_chunks(meta: dict, columns: list[str], rows):
    """`json.dumps(payload, indent=2, sort_keys=True) + "\n"`, streamed.

    Sorted keys put "rows" last, so json.dumps spells "columns" and
    "metadata", and the rows follow in its layout a chunk at a time.
    """
    empty = json.dumps({"columns": columns, "metadata": meta, "rows": []},
                       indent=2, sort_keys=True)
    yield empty[:-len("[]\n}")]
    sep = "[\n"
    lines = _format_rows(rows)
    while chunk := list(itertools.islice(lines, _CHUNK_ROWS)):
        yield sep + ",\n".join(map(_json_row, chunk))
        sep = ",\n"
    yield "[]\n}\n" if sep == "[\n" else "\n  ]\n}\n"


def _write_table(args, meta: dict, columns: list[str], rows) -> None:
    """Write a table to --output or stdout, CSV or JSON, streamed either way.

    rows may be any iterable, so a long table need never be held whole.
    Cells are numbers and labels, none of which holds a comma; a row may
    also carry a run of cells already spelled by `_format_rows`, joined by
    the same comma, so splitting a line on commas gives one cell per column.
    A row may also be a whole line already spelled the same way, a `str`
    without its newline, which `_format_rows` passes on as it stands.
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
    u_s = bloch_vector(a, b).as_array()
    initial = 0.5 * u_s

    # classifier demo on the same data: ideal account stores the
    # transverse books in the cross terms
    cross_contrib = a.conjugate() * b * brackets.cross()
    ideal_report = classify_violation(
        initial,
        [(a, brackets.diag_u), (b, brackets.diag_d)],
        cross_contrib,
        labels=["up", "dn"],
    )
    sys_model = build_measurement_unitary(args.L)
    final = premeasure(a, b, sys_model)
    decomp = decompose_branches(final, sys_model)
    branches = []
    for coeff, state, label in decomp.branches:
        branches.append(((coeff, _j_means(sys_model, state.amplitudes)), label))
    init_j = initial + np.array([0.0, 0.0, float(sys_model.L)])
    model_report = classify_violation(
        init_j,
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


def _measure_row(L: float, numerics: NumericsConfig = NUMERICS) -> list:
    # a spawned worker starts from the default tolerances: adopt the parent's
    vars(NUMERICS).update(vars(numerics))
    sys_model = build_measurement_unitary(L)
    amps = extract_error_amplitudes(sys_model)
    terms = _matching_brackets(sys_model, amps)
    residuals = _matching_residuals(sys_model, amps, terms)
    spread = angular_spread(sys_model.apparatus_state, sys_model.spin_app)
    # the first term's brackets are <u|J|u_err>
    mag = abs(terms[0][1][0])
    return [
        L, amps.C, amps.D, amps.E, amps.F,
        float(np.max(np.abs(residuals))),
        mag, spread.delta_l, 1.0 / spread.delta_theta,
    ]


def _cmd_measure(args) -> None:
    l_values = args.L
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    workers = min(args.jobs, os.cpu_count() or 1, len(l_values))
    if workers > 1:
        # imported here: a serial run, every other command, never pays for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(functools.partial(_measure_row, numerics=NUMERICS), l_values))
    else:
        rows = [_measure_row(L) for L in l_values]
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


def _flip_particle(v: np.ndarray) -> np.ndarray:
    """(sigma_x (x) 1) v over particle (x) apparatus: swap the particle halves, O(L)."""
    return v.reshape(2, -1)[::-1].reshape(-1)


def _cmd_decohere(args) -> None:
    sys_model = build_measurement_unitary(args.L)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    final = premeasure(inv_sqrt2, inv_sqrt2, sys_model)
    # particle sigma_x extended over the apparatus: couples the two
    # total-j manifolds, so its record-sector bracket is nonzero at n=0
    probe = _flip_particle
    curve = overlap_decay_curve(args.overlap, args.n_env)
    env = EnvironmentConfig(args.n_env, args.overlap)
    amplified = amplify_record(final, sys_model, env)
    measured = [abs(cross) for cross in cross_term_curve(amplified, probe, sys_model, env)]
    baseline = measured[0]   # n = 0: the record not yet amplified
    rows = [[n_q, bound, m, baseline * bound, abs(m - baseline * bound)]
            for (n_q, bound), m in zip(curve, measured)]
    meta = _metadata(args, {"baseline_cross_term": _fmt(baseline)})
    _write_table(args, meta, [
        "n_env", "bound", "measured_cross_mag", "predicted_cross_mag", "deviation",
    ], rows)


def _satellite_lines(run, outcome_cells: np.ndarray, audit_cell: str):
    """Satellite table lines, each `_CHUNK_ROWS` block spelled by one `%` call.

    A block's cells fill an (m, 8) object array: the step, the outcome's
    pre-spelled cells looked up by `outcome_up` in the two-entry
    `outcome_cells` (dn, up), and the six ledger floats.  One row template,
    repeated m times, spells them all with the `%.17g` of `_format_rows`.
    """
    row = "%d,%s" + ",%.17g" * 6 + "," + audit_cell.replace("%", "%%")
    block = np.empty((min(_CHUNK_ROWS, run.n_particles), 8), dtype=object)
    for start in range(0, run.n_particles, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, run.n_particles)
        cells = block[:stop - start]
        cells[:, 0] = np.arange(start + 1, stop + 1)
        cells[:, 1] = outcome_cells[run.outcome_up[start:stop].astype(np.intp)]
        cells[:, 2:5] = run.ideal_ledger[start:stop]
        cells[:, 5:] = run.full_ledger[start:stop]
        yield from ("\n".join([row] * len(cells)) % tuple(cells.ravel().tolist())).split("\n")


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spinledger",
        description="Angular-momentum bookkeeping for quantum spin measurement",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    def add_common(p):
        p.add_argument("--output", help="output path (default: stdout); relative "
                       f"paths resolve under ${OUTDIR_ENV} when set")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    def add_spinor(p):
        p.add_argument("--a-re", type=float, default=1.0 / math.sqrt(2.0))
        p.add_argument("--a-im", type=float, default=0.0)
        p.add_argument("--b-re", type=float, default=1.0 / math.sqrt(2.0))
        p.add_argument("--b-im", type=float, default=0.0)

    p = sub.add_parser("ideal", formatter_class=fmt, help="forced ideal cross terms plus classifier demo")
    add_spinor(p)
    p.add_argument("--L", type=float, default=4.0, help="apparatus spin for the demo")
    add_common(p)
    p.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("measure", formatter_class=fmt, help="apparatus model: amplitudes, matching residuals, scaling")
    p.add_argument("--L", type=_parse_l, default=[1.0],
                   help="apparatus spin, or comma list for a sweep")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    add_common(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("thermal", formatter_class=fmt, help="SI orientation-uncertainty estimate")
    p.add_argument("--I", type=float, default=0.01, help="moment of inertia, kg m^2")
    p.add_argument("--T", type=float, default=300.0, help="temperature, K")
    add_common(p)
    p.set_defaults(func=_cmd_thermal)

    p = sub.add_parser("decohere", formatter_class=fmt, help="cross-term suppression under record amplification")
    p.add_argument("--L", type=float, default=2.0)
    p.add_argument("--overlap", type=float, default=0.8,
                   help="per-qubit conditional overlap in [0, 1)")
    p.add_argument("--n-env", type=int, default=8, help="max environment qubits")
    add_common(p)
    p.set_defaults(func=_cmd_decohere)

    p = sub.add_parser("satellite", formatter_class=fmt, help="repeated measurements with dual ledgers")
    p.add_argument("--n", type=int, default=100, help="number of particles")
    p.add_argument("--L", type=float, default=8.0)
    add_spinor(p)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_satellite)

    p = sub.add_parser("streak", formatter_class=fmt, help="post-selected J^2 growth, external vs internal source")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--L", type=float, default=4.0)
    p.add_argument("--mode", choices=["external", "internal"], default="external")
    p.add_argument("--K", type=float, default=None, help="source spin (internal mode)")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the header for provenance; the post-selected "
                        "analysis is deterministic")
    add_common(p)
    p.set_defaults(func=_cmd_streak)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
