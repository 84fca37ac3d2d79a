"""Benchmark workloads: fixed CLI command lists, their dense footprints, and output checks.

Each workload is a list of ``spinledger`` CLI argument lists.  Outputs go
to CSV files (the CLI's default format) and every file is checked against
closed forms or exact invariants of the model; a miss is a failed
operation, like a non-zero exit code.
"""

from __future__ import annotations

import csv
import io
import math

# Why each workload exists, and which layer it loads.
WHY = {
    "device-large": "dense apparatus build at L=64..160 (grows as L^3); the apparatus layer's heavy path",
    "streak-internal": "dense (2K)*4^n internal lucky-streak tensor at n=8, K=16; tiny apparatus",
    "small-many": "64 small devices, a 40k-step satellite, a 2^17 environment and ideal: per-call overhead",
}


def _l_list(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def commands(name: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one workload; the seed sets only ``satellite --seed``."""
    if name == "device-large":
        return [["measure", "--L", "64,96,128,160"]]
    if name == "streak-internal":
        return [["streak", "--mode", "internal", "--n", "8", "--K", "16", "--L", "4"]]
    if name == "small-many":
        return [
            ["measure", "--L", _l_list(k / 2 for k in range(1, 65))],
            ["satellite", "--n", "40000", "--L", "8", "--seed", str(seed)],
            ["decohere", "--L", "0.5", "--overlap", "0.8", "--n-env", "17"],
            ["ideal"],
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")


def probes(name: str) -> list[list[str]]:
    """Extra commands run only when tracing, for scaling records.

    streak-internal repeats its streak one particle shorter, so the traced
    run can report the time growth per added particle.
    """
    if name == "streak-internal":
        return [["streak", "--mode", "internal", "--n", "7", "--K", "16", "--L", "4"]]
    return []


# --------------------------------------------------------------------------
# dense footprints, computed from the inputs alone
# --------------------------------------------------------------------------

COMPLEX_BYTES = 16


def flags(argv: list[str]) -> dict[str, str]:
    """``--key value`` pairs of one argument list (subcommand excluded)."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def dense_bytes(L: float) -> int:
    """Bytes of the dense matrices one ``build_measurement_unitary(L)`` keeps.

    Two projectors and three J components over particle (x) apparatus
    (side 2(2L+1)), plus the unitary and three J components over the full
    composite with the record (side 4(2L+1)).
    """
    d_pa = 2 * round(2 * L + 1)
    return COMPLEX_BYTES * (5 * d_pa ** 2 + 4 * (2 * d_pa) ** 2)


def streak_tensor_bytes(n: int, K: float, L: float) -> int:
    """Largest intermediate of the dense internal streak: 16*2K*4(2L+1)*4^(n-1)."""
    return COMPLEX_BYTES * round(2 * K) * 4 * round(2 * L + 1) * 4 ** (n - 1)


def env_bytes(L: float, n_env: int) -> int:
    """The amplified state: particle (x) apparatus (x) record (x) 2^n_env."""
    return COMPLEX_BYTES * 4 * round(2 * L + 1) * 2 ** n_env


# CLI defaults the footprints need when a flag is absent.
_DEFAULT_L = {"measure": "1", "ideal": "4", "decohere": "2", "satellite": "8", "streak": "4"}


def command_l_values(argv: list[str]) -> list[float]:
    if argv[0] not in _DEFAULT_L:
        return []
    return [float(x) for x in flags(argv).get("L", _DEFAULT_L[argv[0]]).split(",")]


def footprint(cmds: list[list[str]]) -> dict[str, int]:
    """Largest dense footprint per layer over a list of commands."""
    fp = {"apparatus.dense_bytes": 0, "experiments.streak_tensor_bytes": 0,
          "decoherence.env_bytes": 0}
    for argv in cmds:
        f = flags(argv)
        for L in command_l_values(argv):
            fp["apparatus.dense_bytes"] = max(fp["apparatus.dense_bytes"], dense_bytes(L))
        if argv[0] == "streak" and f.get("mode") == "internal":
            size = streak_tensor_bytes(int(f.get("n", "6")), float(f["K"]), float(f.get("L", "4")))
            fp["experiments.streak_tensor_bytes"] = max(fp["experiments.streak_tensor_bytes"], size)
        if argv[0] == "decohere":
            size = env_bytes(float(f.get("L", "2")), int(f.get("n-env", "8")))
            fp["decoherence.env_bytes"] = max(fp["decoherence.env_bytes"], size)
    return fp


# Peak resident memory of a child, bounded from the largest footprint:
# measured peaks are 1.9x (device-large) and 1.7x (streak-internal) the
# footprint, on top of ~60 MB for the interpreter and numpy.
PEAK_FACTOR = 3
PEAK_BASE_BYTES = 128 * 2 ** 20


def estimated_peak_bytes(cmds: list[list[str]]) -> int:
    return PEAK_BASE_BYTES + PEAK_FACTOR * max(footprint(cmds).values())


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Split a CLI CSV file into its ``# key = value`` header and its rows."""
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(io.StringIO("\n".join(body))))


def _tolerance(meta: dict[str, str], name: str) -> float:
    fields = dict(part.split("=") for part in meta["tolerances"].split(","))
    return float(fields[name])


def _close(x: float, target: float, rel: float = 1e-9) -> bool:
    return abs(x - target) <= rel * max(1.0, abs(target))


def _check_measure(argv, meta, rows) -> list[str]:
    l_values = command_l_values(argv)
    if [float(r["L"]) for r in rows] != l_values:
        return [f"measure: rows for L={[r['L'] for r in rows]}, asked {l_values}"]
    atol = _tolerance(meta, "conservation")
    errors = []
    for r in rows:
        L = float(r["L"])
        want = {
            "C": 1.0,
            "D": 0.0,
            "E": math.sqrt(2 * L / (2 * L + 1)),
            "F": 1.0 / math.sqrt(2 * L + 1),
            "bracket_jx_mag": math.sqrt(2 * L + 1) / 2,
            "delta_L": math.sqrt(L / 2),
        }
        for col, target in want.items():
            if not _close(float(r[col]), target):
                errors.append(f"measure L={L:g}: {col} = {r[col]}, closed form {target!r}")
        if not float(r["matching_residual_max"]) <= atol:
            errors.append(f"measure L={L:g}: matching residual {r['matching_residual_max']} > {atol:g}")
    return errors


def _check_satellite(argv, meta, rows) -> list[str]:
    n = int(flags(argv).get("n", "100"))
    if len(rows) != n:
        return [f"satellite: {len(rows)} rows, asked {n}"]
    atol = _tolerance(meta, "conservation")
    errors = []
    for k, r in enumerate(rows, start=1):
        # +x input: the idealized books lose exactly 1/2 of Jx per particle
        if int(r["step"]) != k or not _close(float(r["ideal_x"]), -k / 2):
            errors.append(f"satellite step {r['step']}: ideal_x = {r['ideal_x']}, want {-k / 2}")
        if not float(r["audit_deviation"]) <= atol:
            errors.append(f"satellite step {k}: audit deviation {r['audit_deviation']} > {atol:g}")
    return errors[:5]


def _check_decohere(argv, meta, rows) -> list[str]:
    f = flags(argv)
    o = float(f.get("overlap", "0.8"))
    n_env = int(f.get("n-env", "8"))
    if [int(r["n_env"]) for r in rows] != list(range(n_env + 1)):
        return [f"decohere: rows for n_env={[r['n_env'] for r in rows]}, asked 0..{n_env}"]
    baseline = float(meta["baseline_cross_term"])
    atol = _tolerance(meta, "conservation")
    errors = []
    for r in rows:
        n = int(r["n_env"])
        predicted = baseline * o ** n
        if not _close(float(r["bound"]), o ** n, rel=1e-12):
            errors.append(f"decohere n={n}: bound {r['bound']}, o^n = {o ** n!r}")
        if not _close(float(r["predicted_cross_mag"]), predicted, rel=1e-12):
            errors.append(f"decohere n={n}: predicted {r['predicted_cross_mag']}, baseline*o^n = {predicted!r}")
        deviation = abs(float(r["measured_cross_mag"]) - predicted)
        if not (deviation <= atol and float(r["deviation"]) <= atol):
            errors.append(f"decohere n={n}: measured {r['measured_cross_mag']} is {deviation:.3e} "
                          f"from baseline*o^n (column says {r['deviation']}), gate {atol:g}")
    return errors


def _check_streak(argv, meta, rows) -> list[str]:
    n = int(flags(argv).get("n", "6"))
    if len(rows) != n + 1:
        return [f"streak: {len(rows)} rows, asked {n + 1}"]
    ledger = [float(r["combined_jz_ledger"]) for r in rows]
    drift = max(abs(x - ledger[0]) for x in ledger)
    atol = _tolerance(meta, "conservation")
    if not drift <= atol:
        return [f"streak: combined Jz ledger drifts by {drift:.3e} > {atol:g}"]
    return []


def _check_ideal(argv, meta, rows) -> list[str]:
    want = {"x": (0.5, 0.0), "y": (0.0, -0.5), "z": (0.0, 0.0)}
    got = {r["component"]: (float(r["cross_re"]), float(r["cross_im"])) for r in rows}
    if set(got) != set(want):
        return [f"ideal: components {sorted(got)}, want x, y, z"]
    atol = _tolerance(meta, "state")
    return [f"ideal: <u|J{c}|d> = {got[c]}, want {w}" for c, w in want.items()
            if max(abs(got[c][0] - w[0]), abs(got[c][1] - w[1])) > atol]


_CHECKS = {
    "measure": _check_measure,
    "satellite": _check_satellite,
    "decohere": _check_decohere,
    "streak": _check_streak,
    "ideal": _check_ideal,
}


def check(argv: list[str], text: str) -> list[str]:
    """Errors found in one command's CSV output; empty when it is correct."""
    try:
        meta, rows = parse_csv(text)
        return _CHECKS[argv[0]](argv, meta, rows)
    except (KeyError, ValueError) as exc:
        return [f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})"]
