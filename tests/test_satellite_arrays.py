"""The block-replayed satellite run against the per-step loop it replaced.

`SatelliteRun.blocks` draws a block's outcomes with one `rng.random(m)`
and builds both ledgers with `np.cumsum`, carrying the last row into the
next block; the run's arrays are one whole-run block.  The oracle here is
the original loop: one `rng.random()` per particle and one ledger
addition per step.  Arrays and blocks of any size must agree with it bit
for bit.  The loop takes each branch's <J> and the input's from the
per-sector loop `test_j_oracle.oracle_sector_bracket`, which the
package's sector reader (`apparatus._read_branches`) must match bit for
bit, with the kron per-component `oracle_j_means` as a second reference
within 1e-14.  The 40000-step CSV and 100000-step JSON pins moved when
the satellite's <J> came to be read in the sector layout: sums in sector
order replaced a BLAS `vdot`, which moved the branch columns by at most
1.2e-16 relative and the full ledger by the n-step sum of that.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import spinledger as sl
import spinledger.experiments as ex
from spinledger.cli import main
from test_j_oracle import oracle_j_means, oracle_sector_bracket

PLUS_X = (0.7071067811865476, 0.7071067811865475)
TILTED = (math.cos(0.3), math.sin(0.3) * complex(math.cos(0.7), math.sin(0.7)))
UP = (1.0, 0.0)   # the dn sector is empty and listed as omitted


def oracle_means(sys, v):
    """<J> of kron-layout amplitudes by the per-sector loop, checked against the kron oracle."""
    j = np.array([x.real for x in oracle_sector_bracket(sys, v, v)])
    assert np.max(np.abs(j - oracle_j_means(sys, v))) <= 1e-14 * max(1.0, np.max(np.abs(j)))
    return j


def loop_satellite(n, L, a, b, seed, signed_zero=False):
    """Branch info and per-step records from the original step loop.

    With signed_zero, each branch <J> carries -0.0 where it has +0.0.
    """
    sys = sl.build_measurement_unitary(L)
    u_s = sl.bloch_vector(a, b).as_array()
    decomp = sl.decompose_branches(sl.premeasure(a, b, sys), sys)
    initial = np.kron(np.array([a, b], dtype=np.complex128), sys.apparatus_state.amplitudes)
    initial_j = oracle_means(sys, initial)
    info = {}
    for coeff, state, label in decomp.branches:
        j = oracle_means(sys, state.amplitudes)
        info[label] = {"weight": coeff ** 2, "j": np.where(j == 0.0, -0.0, j) if signed_zero else j}
    for label in decomp.omitted:
        info[label] = {"weight": 0.0, "j": initial_j.copy()}
    final_j = sum(v["weight"] * v["j"] for v in info.values())
    audit = float(np.max(np.abs(final_j - initial_j)))

    w_up = info["up"]["weight"]
    rng = np.random.Generator(np.random.PCG64(seed))
    ideal = np.zeros(3)
    full = np.zeros(3)
    steps = []
    for k in range(1, n + 1):
        outcome = "up" if rng.random() < w_up else "dn"
        sign = +0.5 if outcome == "up" else -0.5
        ideal = ideal + (np.array([0.0, 0.0, sign]) - 0.5 * u_s)
        full = full + (info[outcome]["j"] - initial_j)
        steps.append(ex.SatelliteStep(
            step=k,
            outcome=outcome,
            branch_weight=info[outcome]["weight"],
            per_branch_j=tuple(info[outcome]["j"]),
            ideal_ledger_j=tuple(ideal),
            full_ledger_j=tuple(full),
            audit_deviation=audit,
        ))
    return info, tuple(steps)


@pytest.mark.parametrize("spinor", [PLUS_X, TILTED, UP], ids=["plus_x", "tilted", "up"])
@pytest.mark.parametrize("n", [1, 64, 5000])
@pytest.mark.parametrize("seed", [0, 1, 42, 2024])
def test_arrays_match_the_step_loop_bit_for_bit(seed, n, spinor):
    info, steps = loop_satellite(n, 3.5, *spinor, seed)
    run = sl.satellite_run(n, 3.5, *spinor, seed)
    assert run.outcome_up.tolist() == [s.outcome == "up" for s in steps]
    for field, ledger in (("ideal_ledger_j", run.ideal_ledger),
                          ("full_ledger_j", run.full_ledger)):
        want = np.array([getattr(s, field) for s in steps])
        assert ledger.shape == (n, 3)
        assert ledger.tobytes() == want.tobytes()
    assert run.trajectory == steps
    assert run.branch_info.keys() == info.keys()
    for label, v in info.items():
        assert run.branch_info[label]["weight"] == v["weight"]
        assert run.branch_info[label]["j"].tobytes() == v["j"].tobytes()


def signed_zero_branches(read):
    """`_read_branches` with -0.0 in each branch <J> where it has +0.0; the input's <J> kept."""
    def signed(a, b, sys):
        coeffs, present, means = read(a, b, sys)
        means[:2] = np.where(means[:2] == 0.0, -0.0, means[:2])
        return coeffs, present, means
    return signed


def test_leading_negative_zero_step_matches_the_loop(monkeypatch):
    # the loop's ledgers start from +0.0, so a -0.0 first step must print
    # as 0, not -0: give every branch a -0.0 where the initial <J> has +0.0
    monkeypatch.setattr(ex, "_read_branches", signed_zero_branches(ex._read_branches))
    for seed in (0, 1):
        _, steps = loop_satellite(64, 8, *PLUS_X, seed, signed_zero=True)
        run = sl.satellite_run(64, 8, *PLUS_X, seed)
        assert np.signbit(run.branch_info["up"]["j"][1])
        want = np.array([s.full_ledger_j for s in steps])
        assert np.signbit(want[:, 1]).sum() == 0
        assert run.full_ledger.tobytes() == want.tobytes()


def test_run_arrays_are_read_only():
    run = sl.satellite_run(8, 2, *PLUS_X, seed=0)
    for arr in (run.outcome_up, run.ideal_ledger, run.full_ledger):
        assert not arr.flags.writeable


def test_oversize_run_refused_before_it_allocates(monkeypatch, capsys):
    monkeypatch.setattr(sl.NUMERICS, "max_total_dim", 64)
    assert sl.satellite_run(64, 2, *PLUS_X, seed=0).full_ledger.shape == (64, 3)

    def no_build(L):
        raise AssertionError("device built for a refused run")

    monkeypatch.setattr(ex, "_aligned_devices", no_build)
    with pytest.raises(ValueError, match="exceeds the configured maximum total dimension 64"):
        sl.satellite_run(65, 2, *PLUS_X, seed=0)
    assert main(["satellite", "--n", "65", "--L", "2"]) == 1
    assert "exceeds the configured maximum total dimension 64" in capsys.readouterr().err


def test_satellite_csv_is_pinned(tmp_path, capsys):
    # sha256 of this command's CSV as written by the step loop, its <J>
    # read in the sector layout (0761d10d... with a kron-layout vdot)
    path = tmp_path / "sat.csv"
    assert main(["satellite", "--n", "40000", "--L", "8", "--seed", "1",
                 "--output", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "edc648868b8c78f704ac3c5db0a7d14adc51bbdf09539d1ce56bbc4701904f60")


def test_satellite_table_streams_in_bounded_memory(tmp_path, capsys):
    # the rows are built, formatted and written a chunk at a time; holding
    # the whole 200000-step table as lists, row tuples and one text
    # peaked at 181 MiB of Python allocations, streaming at about 14 MiB
    path = tmp_path / "sat.csv"
    tracemalloc.start()
    try:
        code = main(["satellite", "--n", "200000", "--L", "8", "--seed", "1",
                     "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 32 * 2 ** 20
    lines = path.read_bytes().splitlines()
    assert lines[-1].startswith(b"200000,") and lines[-200001].startswith(b"step,")


def test_satellite_json_streams_in_bounded_memory(tmp_path, capsys):
    # one json.dumps of the whole 100000-step payload peaked at 216 MiB of
    # Python allocations; rows streamed a chunk at a time peak near 8 MiB,
    # and the bytes are those the single dump wrote, its <J> read in the
    # sector layout (a07b87ef... with a kron-layout vdot)
    path = tmp_path / "sat.json"
    tracemalloc.start()
    try:
        code = main(["satellite", "--n", "100000", "--L", "8", "--seed", "1",
                     "--format", "json", "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 32 * 2 ** 20
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9322bb28d1aa50a9c5ec0d3054866bc0673c8596b133c1b177af9857c9109272")


def signed_zero_run(monkeypatch, n, seed):
    """A run whose branch <J> carry -0.0 where the initial <J> has +0.0."""
    monkeypatch.setattr(ex, "_read_branches", signed_zero_branches(ex._read_branches))
    run = sl.satellite_run(n, 8, *PLUS_X, seed)
    monkeypatch.undo()
    return run


@pytest.mark.parametrize("spinor", [PLUS_X, TILTED, UP, "signed_zero"],
                         ids=["plus_x", "tilted", "up", "signed_zero"])
@pytest.mark.parametrize("n", [1, 64, 4100, 5000])
@pytest.mark.parametrize("size", [1, 7, 1024, 4096])
def test_blocks_concatenate_to_the_arrays_bit_for_bit(size, n, spinor, monkeypatch):
    if spinor == "signed_zero":
        run = signed_zero_run(monkeypatch, n, seed=1)
    else:
        run = sl.satellite_run(n, 3.5, *spinor, seed=7)
    blocks = list(run.blocks(size))
    assert [len(up) for up, _, _ in blocks] == [min(size, n - s) for s in range(0, n, size)]
    for k, arr in enumerate((run.outcome_up, run.ideal_ledger, run.full_ledger)):
        joined = np.concatenate([block[k] for block in blocks])
        assert joined.dtype == arr.dtype and joined.shape == arr.shape
        assert joined.tobytes() == arr.tobytes()
    if spinor == "signed_zero":
        assert not np.signbit(run.full_ledger[0]).any()


@pytest.mark.parametrize("seed", [-1, -0.5])
def test_a_negative_seed_is_refused_before_the_shot_is_built(seed, monkeypatch):
    def no_build(L):
        raise AssertionError("the shot was built")

    monkeypatch.setattr(ex, "_aligned_devices", no_build)
    with pytest.raises(ValueError, match=f"seed={seed}"):
        sl.satellite_run(10, 2, *PLUS_X, seed)


@pytest.mark.parametrize("size", [0, -3])
def test_blocks_refuse_a_size_below_one(size):
    run = sl.satellite_run(10, 2, *PLUS_X, seed=0)
    with pytest.raises(ValueError, match=f"size={size}"):
        next(run.blocks(size))


def test_blocks_are_fresh_arrays():
    # writing into a block the caller holds changes neither the next block
    # nor the run's arrays
    run = sl.satellite_run(100, 3.5, *TILTED, seed=3)
    blocks = []
    for up, ideal, full in run.blocks(7):
        blocks.append((up.copy(), ideal.copy(), full.copy()))
        up[:] = True
        ideal[:] = np.nan
        full[:] = np.nan
    for k, arr in enumerate((run.outcome_up, run.ideal_ledger, run.full_ledger)):
        assert np.concatenate([block[k] for block in blocks]).tobytes() == arr.tobytes()


def test_run_arrays_are_built_once_on_first_read():
    run = sl.satellite_run(64, 2, *PLUS_X, seed=0)
    assert "_arrays" not in vars(run)
    assert run.full_ledger is run.full_ledger
    assert run.outcome_up is run.outcome_up


def satellite_peak(n, path):
    """Peak Python allocations of one `satellite --n n` CLI run."""
    tracemalloc.start()
    try:
        code = main(["satellite", "--n", str(n), "--L", "8", "--seed", "1",
                     "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_satellite_cli_memory_is_flat_in_n(tmp_path, capsys):
    # the CLI draws, accumulates and spells the run one block at a time and
    # never reads the whole-run arrays, so ten times the particles may not
    # raise its peak; whole-run arrays would add about 50 bytes per step
    satellite_peak(1, tmp_path / "warm.csv")
    small = satellite_peak(20_000, tmp_path / "small.csv")
    large = satellite_peak(200_000, tmp_path / "large.csv")
    capsys.readouterr()
    assert large <= small + 2 ** 20
    assert (tmp_path / "large.csv").read_bytes().count(b"\n") > 200_000
