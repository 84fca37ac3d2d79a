import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinledger import NUMERICS, build_measurement_unitary, cli, experiments
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


def test_satellite_refuses_a_negative_seed_before_opening_the_output(tmp_path, capsys):
    path = tmp_path / "f.csv"
    code, out, err = run_cli(["satellite", "--n", "3", "--L", "2", "--seed", "-1",
                              "--output", str(path)], capsys)
    assert code == 1 and out == ""
    assert "seed=-1" in err
    assert not path.exists()


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


def fresh_python(code: str, **env: str) -> str:
    """Stdout of `python -c code` in a fresh interpreter on this checkout's package.

    OPENBLAS_NUM_THREADS is passed only when given here: importing the
    CLI into this test process has set it in os.environ.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, check=True).stdout.strip()


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # a sweep is read serially: neither the CLI nor anything it imports
    # loads a process pool, even once a sweep of several groups has run
    code = ("import sys; from spinledger import apparatus, cli; "
            "apparatus._SECTOR_CHUNK = 3; cli.main(['measure', '--L', '1,2']); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    assert fresh_python(code).splitlines()[-1] == "[]"


def test_a_satellite_run_leaves_numpy_random_unloaded(tmp_path):
    # the outcomes come from spinledger._pcg64, which draws numpy's PCG64 bits itself
    code = ("import sys; from spinledger import cli; "
            "code = cli.main(['satellite', '--n', '40000', '--L', '8', '--seed', '1', "
            f"'--output', {str(tmp_path / 'sat.csv')!r}]); "
            "print(code, 'numpy.random' in sys.modules)")
    assert fresh_python(code) == "0 False"


# the thread count the loaded OpenBLAS reports after `import spinledger.cli`,
# asked through its get_num_threads symbol; "none" when no OpenBLAS is loaded
BLAS_THREADS = """
import ctypes
import spinledger.cli

with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})


def threads():
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return "none"


print(threads())
"""


@pytest.mark.parametrize("caller,expected", [(None, "1"), ("2", "2")])
def test_cli_runs_openblas_on_one_thread_unless_the_caller_sets_it(caller, expected):
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS")
    out = fresh_python(BLAS_THREADS, **({} if caller is None else {"OPENBLAS_NUM_THREADS": caller}))
    if out == "none":
        pytest.skip("numpy loaded no OpenBLAS")
    assert out == expected


def test_importing_the_library_leaves_numpy_and_the_blas_environment_alone():
    # the public names are resolved on first access; only the CLI sets the BLAS pool
    code = ("import os, sys, spinledger as sl; "
            "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ); "
            "from spinledger import NUMERICS, build_measurement_unitary; "
            "print(sl.premeasure.__module__, sl.decoherence.__name__, NUMERICS.state_atol, "
            "build_measurement_unitary(1).spin_app.j, hasattr(sl, 'manifold_projectors')); "
            "print('OPENBLAS_NUM_THREADS' in os.environ)")
    assert fresh_python(code).splitlines() == [
        "False False",
        "spinledger.apparatus spinledger.decoherence 1e-12 1.0 False",
        "False",
    ]


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser("satellite") is cli.build_parser("satellite")
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


def test_ideal_audits_a_tilted_device_against_its_own_input(monkeypatch, capsys):
    # a tilted device's <L> is not (0, 0, L): the model's books balance
    # against the input <J> that the device reads
    monkeypatch.setattr(cli, "_aligned_devices",
                        lambda ls: build_measurement_unitary(ls[0], tilt=0.4).stack)
    code, out, err = run_cli(["ideal", "--L", "4"], capsys)
    assert code == 0 and err == ""
    assert parse_csv(out)[0]["apparatus_classification"] == "TypeI"


def test_streak_n_is_refused_before_the_device_is_built(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(NUMERICS, "max_total_dim", 64)
    build = experiments._aligned_devices
    built = []
    monkeypatch.setattr(experiments, "_aligned_devices",
                        lambda ls: built.extend(ls) or build(ls))
    path = tmp_path / "streak.csv"
    code, out, err = run_cli(["streak", "--n", "65", "--output", str(path)], capsys)
    assert code == 1 and out == "" and not path.exists() and built == []
    assert "n = 65 measurements exceeds the configured maximum total dimension 64" in err
    with pytest.raises(ValueError, match="n = 65 measurements exceeds"):
        experiments.lucky_streak_j2(65, 4, "external")
    assert built == []
    code, _, _ = run_cli(["streak", "--n", "64", "--output", str(path)], capsys)
    assert code == 0 and built == [4.0]
    assert len(parse_csv(path.read_text())[1]) == 65
