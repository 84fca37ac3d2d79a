import argparse
import concurrent.futures
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinledger import NUMERICS, cli
from spinledger.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    meta = {}
    lines = [ln for ln in text.splitlines() if ln]
    data_lines = []
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(" = ")
            meta[key] = value
        else:
            data_lines.append(ln)
    header = data_lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in data_lines[1:]]
    return meta, rows


def test_thermal_reference_row(capsys):
    code, out, _ = run_cli(["thermal", "--I", "0.01", "--T", "300"], capsys)
    assert code == 0
    meta, rows = parse_csv(out)
    assert float(rows[0]["delta_L"]) == pytest.approx(6.4359148533833e-12, rel=1e-10)
    assert float(rows[0]["IkT"]) == pytest.approx(4.1421e-23, rel=1e-10)
    assert "order-of-magnitude" in meta["note"]


@pytest.mark.parametrize("argv", [
    ["thermal", "--I", "nan"],
    ["thermal", "--T", "inf"],
    ["thermal", "--I", "1e308", "--T", "1e308"],   # I k T overflows
    ["thermal", "--I", "1e-300", "--T", "1e-300"],  # I k T underflows to 0
    ["ideal", "--a-re", "1e200"],
    ["satellite", "--n", "3", "--L", "2", "--a-re", "1e200", "--b-re", "1e200"],
    ["ideal", "--b-im", "nan"],
], ids=["thermal-I-nan", "thermal-T-inf", "thermal-IkT-overflow", "thermal-IkT-underflow",
        "ideal-a-1e200", "satellite-a-b-1e200", "ideal-b-nan"])
def test_non_finite_inputs_exit_one_with_one_line(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("spinledger: ")
    if argv[0] != "thermal":
        assert "--a-re/--a-im/--b-re/--b-im" in err


def test_measure_l1(capsys):
    code, out, _ = run_cli(["measure", "--L", "1"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["F"]) == pytest.approx(0.5773502691896257, rel=1e-12)
    assert float(rows[0]["matching_residual_max"]) <= 1e-10


def test_measure_sweep_jobs_deterministic(tmp_path, capsys):
    paths = []
    for jobs in ("1", "2"):
        path = tmp_path / f"sweep-{jobs}.csv"
        code = main(["measure", "--L", "1,2,3,4", "--jobs", jobs,
                     "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        paths.append(path)
    a, b = (p.read_bytes() for p in paths)
    assert a == b


def test_ideal_subcommand(capsys):
    code, out, _ = run_cli(["ideal"], capsys)
    assert code == 0
    meta, rows = parse_csv(out)
    assert meta["ideal_classification"] == "TypeII"
    assert meta["apparatus_classification"] == "TypeI"
    by_comp = {r["component"]: r for r in rows}
    assert float(by_comp["x"]["cross_re"]) == pytest.approx(0.5)
    assert float(by_comp["y"]["cross_im"]) == pytest.approx(-0.5)
    assert float(by_comp["z"]["cross_re"]) == 0.0


def test_decohere_tracks_bound(capsys):
    code, out, _ = run_cli(["decohere", "--overlap", "0.8", "--n-env", "6"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 7
    for row in rows:
        assert float(row["deviation"]) <= 1e-10
    assert float(rows[4]["bound"]) == pytest.approx(0.8 ** 4, rel=1e-12)


def test_row_templates_spell_every_cell_like_fmt():
    rng = np.random.default_rng(5)
    floats = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, 1e300, math.inf, -math.inf,
              math.nan, 0.1, *rng.standard_normal(20).tolist(),
              *(rng.standard_normal(20) * 10.0 ** rng.integers(-30, 30, 20)).tolist()]
    rows = [[k, "up", x, np.float64(x), True, np.int64(-k), ""] for k, x in enumerate(floats)]
    rows += [[1.5, complex(x, -x), "dn"] for x in floats[:4]]
    rows += [[], [3], ["a", 2.0]]
    assert list(cli._format_rows(rows)) == [",".join(cli._fmt(v) for v in row) for row in rows]


def test_satellite_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code = main(["satellite", "--n", "20", "--L", "4", "--seed", "7",
                     "--output", str(path)])
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != b""


def test_satellite_streams_the_same_bytes_in_any_chunk_size(monkeypatch, tmp_path, capsys):
    argv = ["satellite", "--n", "23", "--L", "3.5", "--seed", "3"]
    whole = run_cli(argv, capsys)[1]
    for chunk in (1, 4, 22, 23):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        path = tmp_path / f"sat-{chunk}.csv"
        assert main([*argv, "--output", str(path)]) == 0
        assert run_cli(argv, capsys)[1] == whole
        assert path.read_text(encoding="utf-8") == whole
    assert len(parse_csv(whole)[1]) == 23


def test_satellite_json_has_one_cell_per_column(capsys):
    # the outcome and audit cells are spelled once and joined into each
    # row; the JSON rows must still split into one cell per column
    argv = ["satellite", "--n", "50", "--L", "2"]
    payload = json.loads(run_cli([*argv, "--format", "json"], capsys)[1])
    _, rows = parse_csv(run_cli(argv, capsys)[1])
    assert len(payload["columns"]) == 13
    assert payload["rows"] == [[row[c] for c in payload["columns"]] for row in rows]


def test_streak_external_and_internal(capsys):
    code, out, _ = run_cli(["streak", "--n", "4", "--L", "2",
                            "--mode", "external"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 5
    assert float(rows[-1]["postselected_j2"]) > float(rows[1]["postselected_j2"])

    code, out, _ = run_cli(["streak", "--n", "2", "--L", "2", "--mode",
                            "internal", "--K", "4"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    ledgers = [float(r["combined_jz_ledger"]) for r in rows]
    assert max(abs(v - ledgers[0]) for v in ledgers) <= 1e-10


def test_json_format(capsys):
    code, out, _ = run_cli(["thermal", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["version"]
    assert payload["metadata"]["prng"] == "numpy.random.PCG64"
    assert payload["columns"][0] == "I"
    assert len(payload["rows"]) == 1


@pytest.mark.parametrize("chunk", [1, 4, 4096])
@pytest.mark.parametrize("n_rows", [0, 1, 9])
def test_json_table_streams_the_bytes_of_one_json_dumps(n_rows, chunk, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    meta = {"version": "0.1.0", "note": 'a "quote", a \\ and non-ASCII \u00e9 \u2192'}
    columns = ["k", "x", "z", "label"]
    rows = [[k, k / 7, complex(k, -k / 3), f'r\u00e9"{k}'] for k in range(n_rows)]
    path = tmp_path / "table.json"
    cli._write_table(argparse.Namespace(format="json", output=str(path)), meta, columns, rows)
    payload = {"metadata": meta, "columns": columns,
               "rows": [line.split(",") for line in cli._format_rows(rows)]}
    assert len(payload["rows"]) == n_rows
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 1


def test_config_error_names_field(capsys):
    code, _, err = run_cli(["thermal", "--T", "-5"], capsys)
    assert code == 1
    assert "temperature" in err


def test_internal_streak_config_error(capsys):
    code, _, err = run_cli(["streak", "--mode", "internal", "--n", "4",
                            "--L", "2"], capsys)
    assert code == 1
    assert "source spin" in err


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPINLEDGER_OUTDIR", str(tmp_path))
    code = main(["thermal", "--output", "t.csv"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "t.csv").exists()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the CLI's process pool for an in-process map; collect max_workers.

    The CLI imports the pool from concurrent.futures only when a sweep runs
    in parallel, so the patch goes where that import looks it up.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_measure_jobs_below_one_rejected(jobs, pool_sizes, capsys):
    code, out, err = run_cli(["measure", "--L", "1,2", "--jobs", jobs], capsys)
    assert code == 1
    assert "--jobs" in err
    assert out == ""
    assert pool_sizes == []


@pytest.mark.parametrize("cpus,l_values,expected", [
    (2, "1,2,3", [2]),   # capped by the cores
    (8, "1,2,3", [3]),   # capped by the sweep length
    (8, "2", []),        # one L value runs serially
    (None, "1,2", []),   # unknown core count counts as one
])
def test_measure_jobs_capped(cpus, l_values, expected, pool_sizes, tmp_path,
                             monkeypatch, capsys):
    serial = tmp_path / "serial.csv"
    assert main(["measure", "--L", l_values, "--output", str(serial)]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    pooled = tmp_path / "pooled.csv"
    assert main(["measure", "--L", l_values, "--jobs", "100000",
                 "--output", str(pooled)]) == 0
    capsys.readouterr()
    assert pool_sizes == expected
    assert pooled.read_bytes() == serial.read_bytes()


def test_header_echoes_every_tolerance(monkeypatch, capsys):
    code, out, _ = run_cli(["thermal"], capsys)
    assert code == 0
    meta, _ = parse_csv(out)
    assert meta["tolerances"] == (
        "state=1e-12,operator=1e-10,conservation=1e-10,cross_term=1e-08,"
        "audit=1e-08,branch_weight_floor=1e-14,max_total_dim=1048576"
    )
    monkeypatch.setattr(NUMERICS, "cross_term_tol", 3e-9)
    monkeypatch.setattr(NUMERICS, "audit_atol", 2.5e-9)
    monkeypatch.setattr(NUMERICS, "branch_weight_floor", 1.2345678901e-15)
    monkeypatch.setattr(NUMERICS, "max_total_dim", 2**18)
    code, out, _ = run_cli(["thermal"], capsys)
    assert code == 0
    meta, _ = parse_csv(out)
    assert meta["tolerances"] == (
        "state=1e-12,operator=1e-10,conservation=1e-10,cross_term=3e-09,"
        "audit=2.5e-09,branch_weight_floor=1.2345678901e-15,max_total_dim=262144"
    )


def test_measure_workers_use_the_parents_tolerances(monkeypatch, tmp_path, capsys):
    # a spawned worker imports a fresh NUMERICS; the gate set here must
    # reach it, so the pooled run fails exactly as the serial run does
    monkeypatch.setattr(NUMERICS, "operator_atol", 1e-30)
    serial = main(["measure", "--L", "1,2", "--output", str(tmp_path / "s.csv")])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    pooled = main(["measure", "--L", "1,2", "--jobs", "2",
                   "--output", str(tmp_path / "p.csv")])
    capsys.readouterr()
    assert serial != 0
    assert pooled == serial


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # a serial run never needs the pool; its import is paid only by --jobs > 1
    code = ("import sys, spinledger.cli; "
            "print('concurrent.futures.process' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    # a parse leaves the parser as it was: defaults come back on the next call
    first = run_cli(["satellite", "--n", "3", "--L", "2", "--seed", "4"], capsys)[1]
    assert run_cli(["satellite", "--n", "5", "--a-re", "1", "--b-re", "0"], capsys)[0] == 0
    assert run_cli(["satellite", "--n", "3", "--L", "2", "--seed", "4"], capsys)[1] == first
    meta, _ = parse_csv(run_cli(["satellite", "--n", "2"], capsys)[1])
    assert meta["config"].split() == ["satellite", "--L", "8.0", "--a-im", "0.0",
                                      "--a-re", "0.7071067811865475", "--b-im", "0.0",
                                      "--b-re", "0.7071067811865475", "--n", "2", "--seed", "0"]


def test_cli_import_freezes_import_time_objects():
    # `import spinledger.cli` moves its import-time objects to the permanent
    # generation once; the collector itself stays on
    import gc

    import spinledger.cli  # noqa: F401

    assert gc.get_freeze_count() > 0
    assert gc.isenabled()
