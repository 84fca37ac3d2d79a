"""The internal lucky streak against a dense-tensor oracle.

`lucky_streak_j2(..., "internal")` carries source-space moment matrices
through the streak.  The oracle here evolves the full conditioned state
instead, one 4-wide axis per registered particle, which is exact but
grows as 4^n; it is only run for n <= 6.
"""

import csv
import math

import numpy as np
import pytest

import emission_oracle
from dense_oracle import spin_matrices
import spinledger as sl
import spinledger.experiments as ex
from spinledger.cli import main as cli_main


def _apply_axis(t, op, axis):
    return np.moveaxis(np.tensordot(op, t, axes=([1], [axis])), 0, axis)


def _total_j2(t, k_mats, s_slot):
    total = 0.0
    for k_op, slot_op in zip(k_mats, s_slot):
        acc = _apply_axis(t, k_op, 0)
        for axis in range(1, t.ndim):
            acc = acc + _apply_axis(t, slot_op, axis)
        total += float(np.real(np.vdot(acc, acc)))
    return total


def _total_jz(t, kz, slot_jz):
    val = np.vdot(t, _apply_axis(t, kz, 0))
    for axis in range(1, t.ndim):
        val += np.vdot(t, _apply_axis(t, slot_jz, axis))
    return float(np.real(val))


def dense_streak(n, L, K, pattern):
    """(j2, jz, ledger) series and step weights from the full conditioned state."""
    sys = sl.build_measurement_unitary(L)
    d_app = sys.dims[1]
    shot_map = np.stack([sl.premeasure(1.0, 0.0, sys).amplitudes,
                         sl.premeasure(0.0, 1.0, sys).amplitudes], axis=1)
    slot_idx = [0, 1, d_app, d_app + 1]
    jz_slot = np.diag([0.5 + sys.L, sys.L - 0.5, sys.L - 0.5, sys.L - 1.5]).astype(complex)
    s_slot = [np.kron(op, np.eye(2)) for op in spin_matrices(sys.spin_half)[:3]]

    t = sl.prepare_internal_source(K, margin=n).amplitudes.copy()
    shape = [t.size]
    k_cur = float(K)

    def moments():
        tt = t.reshape(shape)
        k_mats = spin_matrices(sl.spin_operators(k_cur))[:3]
        kz = k_mats[2]
        return (_total_j2(tt, k_mats, s_slot), _total_jz(tt, kz, s_slot[2]),
                _total_jz(tt, kz, jz_slot) - (tt.ndim - 1) * sys.L)

    series = [moments()]
    weights = []
    for ch in pattern:
        d_new = round(2 * k_cur)
        v3 = emission_oracle.emission_matrix(k_cur).reshape(d_new, 2, shape[0])
        t = np.tensordot(v3, t.reshape(shape), axes=([2], [0]))
        t = np.moveaxis(np.tensordot(shot_map, t, axes=([1], [1])), 0, 1)
        t = t.reshape([d_new, 2 * d_app, 2] + shape[1:])[:, :, 0 if ch == "u" else 1]
        t = t[:, slot_idx]
        w = float(np.real(np.vdot(t, t)))
        t = np.moveaxis(t / math.sqrt(w), 1, -1)
        shape = [d_new] + shape[1:] + [4]
        k_cur -= 0.5
        weights.append(w)
        series.append(moments())
    return series, weights


def _cases():
    for n in range(1, 7):
        patterns = {"u" * n}
        patterns.update(p for p in ("ud", "du", "dd", "udud") if len(p) == n)
        for K in sorted({n, 2 * n, 8}):
            if K >= n:
                for pattern in sorted(patterns):
                    yield n, K, pattern


@pytest.mark.parametrize("L", [0.5, 2, 4])
@pytest.mark.parametrize("n,K,pattern", list(_cases()))
def test_internal_streak_matches_dense_oracle(n, K, pattern, L):
    report = sl.lucky_streak_j2(n, L, "internal", K=K, pattern=pattern)
    series, weights = dense_streak(n, L, K, pattern)
    got = zip(report.postselected_j2, report.postselected_jz, report.combined_jz_ledger)
    for k, (mine, ref) in enumerate(zip(got, series)):
        for name, a, b in zip(("j2", "jz", "ledger"), mine, ref):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (k, name, a, b)
    assert len(report.step_weights) == len(weights) == n
    assert np.max(np.abs(np.subtract(report.step_weights, weights))) <= 1e-14


def _fake_shot(app_level_of_down, record_of_down):
    """A `_read_shot` that sends |up> to (up, |L,L>, rec 0) and |down> to (down, |L,L-level>, rec).

    Its rows are the kron rows (particle, apparatus level) of particle (x) apparatus.
    """
    def fake(sys):
        d_app = sys.dims[1]
        shots = np.zeros((2, 2 * d_app, 2), dtype=complex)   # record, row, input
        shots[0, 0, 0] = 1.0
        shots[record_of_down, d_app + app_level_of_down, 1] = 1.0
        slot = [0, 1, d_app, d_app + 1]
        return shots, shots[:, slot].copy(), np.add.outer(sys.spin_half.m, sys.spin_app.m[:2]).ravel()
    return fake


def test_slot_leakage_audit_still_raises(monkeypatch, capsys):
    # the down component lands on |L,L-2>, outside the slot subspace
    monkeypatch.setattr(ex, "_read_shot", _fake_shot(2, 0))
    with pytest.raises(sl.ConservationError, match="leaked out of the slot subspace"):
        sl.lucky_streak_j2(2, 2, "internal", K=4, pattern="uu")
    assert cli_main(["streak", "--mode", "internal", "--n", "2", "--K", "4", "--L", "2"]) == 2
    err = capsys.readouterr().err
    assert "leaked out of the slot subspace by 5.000e-01" in err and "Traceback" not in err


def test_vanishing_weight_audit_still_raises(monkeypatch):
    # both particle states register "up", so a "d" has no weight at all
    monkeypatch.setattr(ex, "_read_shot", _fake_shot(0, 0))
    weights = sl.lucky_streak_j2(2, 2, "internal", K=4, pattern="uu").step_weights
    assert weights == pytest.approx((1.0, 1.0), abs=1e-14)
    with pytest.raises(sl.ConservationError, match="vanishing weight at step 1"):
        sl.lucky_streak_j2(2, 2, "internal", K=4, pattern="ud")


def test_ledger_audit_raises_on_a_drifting_ledger(monkeypatch, capsys):
    # every slot's Jz one too high: the combined ledger gains one per shot
    read_shot = ex._read_shot

    def fake(sys):
        shots, slots, jz = read_shot(sys)
        return shots, slots, jz + 1.0

    monkeypatch.setattr(ex, "_read_shot", fake)
    with pytest.raises(sl.ConservationError, match=r"ledger drifted by 1\.000e\+00 at step 1$"):
        sl.lucky_streak_j2(3, 4, "internal", K=4, pattern="udu")
    assert cli_main(["streak", "--mode", "internal", "--n", "2", "--K", "4", "--L", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("spinledger: conservation audit failed: combined Jz ledger "
                                 "drifted by 1.000e+00 at step 1\n")


def test_streak_n10_k32_runs_and_keeps_the_ledger(tmp_path, capsys):
    # the dense (2K) 4^n tensor of this call was OOM-killed
    path = tmp_path / "streak.csv"
    code = cli_main(["streak", "--mode", "internal", "--n", "10", "--K", "32",
                     "--L", "4", "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    rows = list(csv.DictReader(ln for ln in path.read_text().splitlines()
                               if ln and not ln.startswith("#")))
    assert len(rows) == 11
    ledger = [float(r["combined_jz_ledger"]) for r in rows]
    assert max(abs(v - ledger[0]) for v in ledger) <= sl.NUMERICS.conservation_atol


def test_sequential_emissions_refuses_before_allocating(monkeypatch):
    src = sl.coherent_spin_state(4, sl.DEFAULT_SOURCE_TILT, 0.0)
    monkeypatch.setattr(sl.NUMERICS, "max_total_dim", 64)
    # (2K+1-n) 2^n = 5 * 16 = 80 > 64
    with pytest.raises(ValueError, match="exceeds the configured maximum total dimension 64"):
        emission_oracle.sequential_emissions(src, 4, 4)
    assert emission_oracle.sequential_emissions(src, 4, 3).dims == (6, 2, 2, 2)  # 48 <= 64
