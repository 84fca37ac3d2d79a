"""Tests of the benchmark itself: run with ``python -m pytest benchmarks``."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

from spinledger import build_measurement_unitary  # noqa: E402
from spinledger.cli import main as cli_main  # noqa: E402


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WHY)


def test_self_time_is_span_minus_children_on_synthetic_trace():
    trace = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 6.5, 0, None],
        ["a", 7.0, 9.0, 0, None],  # a reached again from inside a
    ]
    assert spans.self_times(trace) == pytest.approx([10 - 3 - 1.5 - 2, 3 - 1, 1, 1.5, 2])
    summary = spans.summarize(trace)
    assert summary["a"] == pytest.approx({"s": 10.0, "self_s": 3.5 + 2, "calls": 2})
    assert summary["b"] == pytest.approx({"s": 3.0, "self_s": 2.0, "calls": 1})


def test_self_time_counts_overlapping_children_once():
    trace = [["p", 0.0, 10.0, -1, None], ["x", 2.0, 6.0, 0, None], ["y", 4.0, 12.0, 0, None]]
    assert spans.self_times(trace)[0] == pytest.approx(10 - 8)


SMALL = [
    ["measure", "--L", "0.5,1,2"],
    ["satellite", "--n", "50", "--L", "2", "--seed", "7"],
    ["decohere", "--L", "0.5", "--overlap", "0.8", "--n-env", "4"],
    ["ideal"],
    ["streak", "--mode", "internal", "--n", "2", "--K", "2", "--L", "1"],
]



def _bump_last_ledger(text):
    lines = text.splitlines()
    fields = lines[-1].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    return "\n".join(lines[:-1] + [",".join(fields)]) + "\n"


# one checked value per command, replaced by a wrong one
CORRUPTIONS = {
    "measure": lambda t: t.replace("0.57735026918962573", "0.5773", 1),
    "satellite": lambda t: t.replace(",-25.000000000000004,", ",-24.5,", 1),
    "decohere": lambda t: t.replace(",0.36950417228136062,", ",0.37,", 1),
    "ideal": lambda t: t.replace("x,0.5,", "x,0.49,", 1),
    "streak": _bump_last_ledger,
}


@pytest.fixture()
def small_outputs(tmp_path):
    paths = [tmp_path / f"out{i}.csv" for i in range(len(SMALL))]
    codes = [cli_main(argv + ["--output", str(p)]) for argv, p in zip(SMALL, paths)]
    return codes, paths


def test_small_outputs_pass_their_checks(small_outputs):
    codes, paths = small_outputs
    assert codes == [0] * len(SMALL)
    assert run.score(SMALL, codes, paths) == (0, [])


@pytest.mark.parametrize("index", range(len(SMALL)))
def test_corrupted_output_counts_as_failed(small_outputs, index):
    codes, paths = small_outputs
    text = paths[index].read_text()
    corrupted = CORRUPTIONS[SMALL[index][0]](text)
    assert corrupted != text
    paths[index].write_text(corrupted)
    failed, reasons = run.score(SMALL, codes, paths)
    assert failed == 1 and reasons and reasons[0].startswith(SMALL[index][0])


def test_nonzero_exit_code_counts_as_failed(small_outputs):
    codes, paths = small_outputs
    codes = list(codes)
    codes[1] = 2
    assert run.score(SMALL, codes, paths) == (1, ["satellite: exit code 2"])


def test_dense_bytes_matches_the_arrays_a_build_keeps():
    sys_model = build_measurement_unitary(2.5)
    ops = [sys_model.proj_plus, sys_model.proj_minus, sys_model.u_meas,
           *sys_model.j_pa, *sys_model.j_total]
    assert workloads.dense_bytes(2.5) == sum(op.entries.nbytes for op in ops)


def test_memory_guard_refuses_oversized_workload_before_launching(monkeypatch):
    huge = [["streak", "--mode", "internal", "--n", "20", "--K", "32", "--L", "4"]]
    assert workloads.footprint(huge)["experiments.streak_tensor_bytes"] > 2**40

    def no_launch(*args, **kwargs):
        raise AssertionError("a child was launched for a refused workload")

    monkeypatch.setattr(workloads, "commands", lambda name, seed: huge)
    monkeypatch.setattr(run, "launch", no_launch)
    with pytest.raises(run.BenchError, match="refused"):
        run.run_workload("streak-internal", 0, 1.0, False)


def test_memory_guard_admits_the_defined_workloads():
    for name in workloads.WHY:
        cmds = workloads.commands(name, 0) + workloads.probes(name)
        assert workloads.estimated_peak_bytes(cmds) < 2 * 2**30


def test_traced_child_reports_layer_spans(tmp_path):
    cmds = [["measure", "--L", "1,2"]]
    argv = [cmds[0] + ["--output", str(tmp_path / "m.csv")]]
    rep = run.launch(argv, [], True)
    assert rep["codes"] == [0]
    metrics = run.layer_metrics(rep["spans"], cmds, 0)
    assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert metrics["apparatus.build_measurement_unitary.calls"] == 2
    assert metrics["kernel.commutator_norm.calls"] == 6
    assert metrics["apparatus.extract_error_amplitudes.calls"] == 2 * 2  # direct + via matching
    assert metrics["kernel.audit_flops"] == 48 * (12 ** 3 + 20 ** 3)
    assert 0 < metrics["apparatus.build_measurement_unitary.self_s"] \
        < metrics["apparatus.build_measurement_unitary.s"] < metrics["cli.main.s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch-*"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "small-many",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
