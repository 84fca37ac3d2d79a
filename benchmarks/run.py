"""spinledger benchmark: CLI workloads end to end, and per-layer spans.

Run from the repository root::

    python3 benchmarks/run.py                          # all workloads, untraced
    python3 benchmarks/run.py --workload device-large --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --trace 1  # per-layer spans

Each repetition starts a fresh interpreter (``child.py``) that imports the
package from ``src/`` and runs the workload's CLI commands one after the
other, writing CSV files that this script then checks.  Repetitions are
closed-loop and sequential, one process at a time, for ``--seconds``; the
reported figures are medians over repetitions.  BLAS threading is left
at the library default and recorded.

Untraced (``--trace 0``) runs report the end-to-end metrics: ``run_s``
(first CLI call to the end of the last), ``setup_s`` (process launch to
``import spinledger.cli`` returning), ``peak_rss_mb`` and ``cpu_s`` (the
child's high-water RSS and user+system CPU time).  Traced runs alternate
untraced and traced repetitions and report the per-layer metrics plus
``trace.overhead_s`` (traced minus untraced run_s).  Failed operations
(non-zero exit code or a failed output check) are the JSON ``failed``
count over ``attempted``.  The last line of stdout is that JSON object;
lines before it, starting with ``#``, give quartiles, sample counts and
the environment record.  Exit code 1 means the benchmark could not run
(missing sources, a crashed child, or a workload refused by the memory
guard) and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 120

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}

# Layer functions timed in traced runs, and which of total seconds (s),
# self seconds (self_s) and call count (calls) each reports.
TIMED = {
    "apparatus.build_measurement_unitary": ("s", "self_s", "calls"),
    "apparatus.manifold_projectors": ("s",),
    "apparatus.premeasure": ("s", "calls"),
    "apparatus.decompose_branches": ("s", "calls"),
    "apparatus.extract_error_amplitudes": ("s", "calls"),
    "apparatus.verify_matching_equations": ("s", "calls"),
    "kernel.commutator_norm": ("s", "calls"),
    "kernel.apply": ("s", "calls"),
    "kernel.expectation": ("s", "calls"),
    "kernel.bracket": ("s", "calls"),
    "kernel.expm_hermitian": ("s", "calls"),
    "angular.spin_operators": ("s", "calls"),
    "angular.coherent_spin_state": ("s", "calls"),
    "angular.angular_spread": ("s", "calls"),
    "experiments.lucky_streak_j2": ("s",),
    "experiments.prepare_internal_source": ("s",),
    "experiments.satellite_run": ("s",),
    "decoherence.amplify_record": ("s", "calls"),
    "decoherence.macroscopic_cross_term": ("s", "calls"),
    "ideal.ideal_forced_cross_terms": ("s",),
    "ideal.classify_violation": ("s",),
    "cli.main": ("s", "self_s"),
}
_FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count"}

PER_LAYER = {
    **{f"{name}.{field}": _FIELD_UNITS[field] for name, fields in TIMED.items() for field in fields},
    "apparatus.dense_bytes": "B",
    "apparatus.build_L_exponent": "1",
    "kernel.audit_flops": "count",
    "experiments.streak_tensor_bytes": "B",
    "experiments.streak_slot_fraction": "1",
    "experiments.streak_growth_per_n": "1",
    "experiments.satellite_step_us": "us",
    "decoherence.env_bytes": "B",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# --------------------------------------------------------------------------
# memory guard and environment record
# --------------------------------------------------------------------------

def available_memory_bytes() -> int:
    """MemAvailable, lowered to the cgroup's remaining allowance if one is set."""
    avail = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) * 1024
    if avail is None:
        raise BenchError("cannot read MemAvailable from /proc/meminfo")
    cg = Path("/sys/fs/cgroup")
    try:
        limit = (cg / "memory.max").read_text().strip()
        if limit != "max":
            avail = min(avail, int(limit) - int((cg / "memory.current").read_text()))
    except (OSError, ValueError):
        pass
    return avail


def guard(name: str, cmds: list[list[str]], available: int) -> None:
    """Refuse, before anything is allocated, a workload that would not fit."""
    need = workloads.estimated_peak_bytes(cmds)
    if need > available:
        fp = ", ".join(f"{k}={v / 2**20:.0f} MB" for k, v in workloads.footprint(cmds).items())
        raise BenchError(
            f"workload {name} refused: estimated peak {need / 2**20:.0f} MB exceeds the "
            f"{available / 2**20:.0f} MB available ({fp})"
        )


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "mem_available_mb": round(available_memory_bytes() / 2**20),
    }


# --------------------------------------------------------------------------
# one repetition
# --------------------------------------------------------------------------

def launch(cmds: list[list[str]], probes: list[list[str]], trace: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spec = {"commands": cmds, "probes": probes, "trace": trace, "launched": time.monotonic()}
    try:
        proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"repetition exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if any(result["codes"]):
        sys.stderr.write(proc.stderr)
    return result


def score(cmds: list[list[str]], codes: list[int], outputs: list[Path]) -> tuple[int, list[str]]:
    """Failed operations (exit code or output check) and their reasons."""
    failed = 0
    reasons = []
    for argv, code, path in zip(cmds, codes, outputs):
        if code != 0:
            errors = [f"{argv[0]}: exit code {code}"]
        else:
            try:
                errors = workloads.check(argv, path.read_text(encoding="utf-8"))
            except OSError as exc:
                errors = [f"{argv[0]}: no output ({exc})"]
        failed += bool(errors)
        reasons += errors
    return failed, reasons


# --------------------------------------------------------------------------
# per-layer metrics from one traced repetition
# --------------------------------------------------------------------------

def _loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log t over log L, averaging repeats of one L; 0 if < 2 L."""
    by_l: dict[float, list[float]] = {}
    for L, t in points:
        by_l.setdefault(L, []).append(t)
    if len(by_l) < 2:
        return 0.0
    xs = [math.log(L) for L in by_l]
    ys = [math.log(statistics.fmean(ts)) for ts in by_l.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(trace: list[list], cmds: list[list[str]], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (main commands, then probes)."""
    top = [i for i, s in enumerate(trace) if s[3] < 0]
    main = trace[:top[len(cmds)]] if len(top) > len(cmds) else trace
    summary = spans.summarize(main)
    out = {}
    for name, fields in TIMED.items():
        entry = summary.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for field in fields:
            out[f"{name}.{field}"] = entry[field]
    out.update(workloads.footprint(cmds))

    builds = [(s[4], s[2] - s[1]) for s in main if s[0] == "apparatus.build_measurement_unitary"]
    out["apparatus.build_L_exponent"] = _loglog_slope(builds)
    # three [U, J_k] audits, each two complex matmuls of side d at 8 d^3 flops
    out["kernel.audit_flops"] = sum(3 * 2 * 8 * (4 * round(2 * L + 1)) ** 3 for L, _ in builds)

    streaks = [argv for argv in cmds
               if argv[0] == "streak" and workloads.flags(argv).get("mode") == "internal"]
    out["experiments.streak_slot_fraction"] = (
        1.0 / round(2 * float(workloads.flags(streaks[0]).get("L", "4")) + 1) if streaks else 0.0)
    streak_t = {s[4]: s[2] - s[1] for s in trace if s[0] == "experiments.lucky_streak_j2"}
    n = int(workloads.flags(streaks[0])["n"]) if streaks else 0
    out["experiments.streak_growth_per_n"] = (
        streak_t[n] / streak_t[n - 1] if n in streak_t and n - 1 in streak_t else 0.0)

    sats = [argv for argv in cmds if argv[0] == "satellite"]
    out["experiments.satellite_step_us"] = (
        1e6 * out["experiments.satellite_run.s"] / sum(int(workloads.flags(a)["n"]) for a in sats)
        if sats else 0.0)
    out["cli.bytes_written"] = bytes_written
    return out


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat one workload for ``seconds``; return medians, counts and samples."""
    cmds = workloads.commands(name, seed)
    probes = workloads.probes(name) if trace else []
    guard(name, cmds + probes, available_memory_bytes())
    scratch = Path(tempfile.mkdtemp(prefix=".scratch-", dir=BENCH_DIR))
    try:
        outputs = [scratch / f"out{i}.csv" for i in range(len(cmds) + len(probes))]
        all_cmds = [argv + ["--output", str(p)] for argv, p in zip(cmds + probes, outputs)]
        plain, traced, layer_samples = [], [], []
        attempted = failed = 0
        reasons: list[str] = []
        deadline = time.monotonic() + seconds
        # The first repetition only warms up: it is checked and counted, not
        # timed, because on this kind of shared host it runs up to 1.9x slower.
        warmup = True
        # Wall time of each repetition, launch to checked output.  A new one
        # starts only if a typical repetition still ends by the deadline, so
        # a run lasts --seconds rather than up to one repetition more.
        rep_walls: list[float] = []
        while (warmup or not plain or (trace and not traced)
               or time.monotonic() + statistics.median(rep_walls) <= deadline):
            started = time.monotonic()
            with_trace = trace and not warmup and len(plain) > len(traced)
            for path in outputs:
                path.unlink(missing_ok=True)
            rep = launch(all_cmds[:len(cmds)], all_cmds[len(cmds):] if with_trace else [],
                         with_trace)
            n_ran = len(rep["codes"])
            bad, why = score(cmds + probes[:n_ran - len(cmds)], rep["codes"], outputs[:n_ran])
            attempted += n_ran
            failed += bad
            reasons += why
            if not warmup:
                (traced if with_trace else plain).append(rep)
            warmup = False
            if with_trace:
                written = sum(p.stat().st_size for p in outputs[:len(cmds)] if p.exists())
                layer_samples.append(layer_metrics(rep["spans"], cmds, written))
            rep_walls.append(time.monotonic() - started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    samples = {k: [r[k] for r in plain] for k in END_TO_END}
    result = {"attempted": attempted, "failed": failed, "reasons": reasons,
              "e2e": samples, "reps": len(plain)}
    if trace:
        layers = {k: [s[k] for s in layer_samples] for k in layer_samples[0]}
        layers["trace.overhead_s"] = [
            statistics.median(r["run_s"] for r in traced) - statistics.median(samples["run_s"])]
        result["layers"] = layers
        result["traced_reps"] = len(traced)
    return result


def _report(name: str, res: dict, trace: bool, prefix: str) -> dict:
    """Print one workload's table to stdout; return its metrics for the JSON line."""
    print(f"# workload {name}: {res['reps']} untraced repetitions"
          + (f", {res['traced_reps']} traced" if trace else "")
          + f"; ops_failed {res['failed']}/{res['attempted']}")
    for reason in res["reasons"][:10]:
        print(f"#   FAILED {reason}")
    table, units = (res["layers"], PER_LAYER) if trace else (res["e2e"], END_TO_END)
    metrics = {}
    print(f"# {'metric':<44} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for key, unit in units.items():
        q1, med, q3 = quartiles(table[key])
        print(f"# {key:<44} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(table[key]):>3}  {unit}")
        metrics[prefix + key] = {"value": med, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WHY])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    try:
        if not (SRC / "spinledger" / "cli.py").is_file():
            raise BenchError(f"no spinledger sources under {SRC}")
        env = environment(args.seed)
        results = {name: run_workload(name, args.seed, args.seconds, trace) for name in names}
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update(_report(name, res, trace, prefix))
        env.setdefault("samples", {})[name] = {"untraced": res["reps"],
                                               "traced": res.get("traced_reps", 0)}
    print("# env " + json.dumps(env, sort_keys=True))
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
