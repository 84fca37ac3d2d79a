"""Every numerical-invariant audit raises ConservationError, and the CLI exits 2.

Each test trips one audit and checks its message; where a CLI command
reaches the audit, `cli.main` returns 2 with a one-line message and no
traceback.  The weight-sum and orthogonality audits read kets that no
command can build (premeasure's records are normalized and orthogonal),
so they are tripped in the library only.  The slot-leak audit's test is
in test_streak_moments.py.
"""

import numpy as np
import pytest

import spinledger as sl
from spinledger import apparatus, ideal
from spinledger.cli import main as cli_main

R = 2 ** -0.5


def _exits_two(argv, capsys, message):
    code = cli_main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert "Traceback" not in out.err
    assert out.err.startswith("spinledger: conservation audit failed:") and message in out.err


def test_idempotence_audit(monkeypatch, capsys):
    monkeypatch.setattr(sl.NUMERICS, "state_atol", 0.0)
    with pytest.raises(sl.ConservationError, match=r"projector not idempotent: .* \(L = 3.5\)"):
        sl.build_measurement_unitary(3.5)
    _exits_two(["measure", "--L", "3.5"], capsys, "projector not idempotent")


def test_weight_sum_audit():
    sys_m = sl.build_measurement_unitary(2)
    kets = apparatus._premeasure_stack([(R, R)], sys_m.stack)[:, :2]
    with pytest.raises(sl.ConservationError, match=r"branch weights sum to 4\.0.* \(L = 2\)"):
        apparatus._split_records(2 * kets, sys_m.stack)


def test_orthogonality_audit():
    # the same ket under both records: weights 1/2 each, overlap 1
    sys_m = sl.build_measurement_unitary(2)
    amps = np.zeros(sys_m.dims, dtype=complex)
    amps[0, 0, :] = R
    final = sl.StateVector(sys_m.dims, amps.reshape(-1))
    with pytest.raises(sl.ConservationError, match=r"record sectors not orthogonal: 1\.000e\+00"):
        sl.decompose_branches(final, sys_m)


def test_reconstruction_audit(capsys):
    # the down record's weight, 1e-16 E^2, is below the weight floor, so it
    # is dropped; its amplitude, 1e-8 E, is above conservation_atol.  The
    # floor and this gate disagree on what a negligible record is, which
    # lets a valid input reach the gate from the CLI
    sys_m = sl.build_measurement_unitary(4)
    final = sl.premeasure(1.0, 1e-8, sys_m)
    with pytest.raises(sl.ConservationError, match=r"branch reconstruction failed \(L = 4\)"):
        sl.decompose_branches(final, sys_m)
    _exits_two(["ideal", "--a-re", "1", "--b-re", "1e-8"], capsys, "branch reconstruction failed")


def test_forced_bracket_audit(monkeypatch, capsys):
    monkeypatch.setattr(ideal, "_FORCED_CROSS", 1.1 * ideal._FORCED_CROSS)
    with pytest.raises(sl.ConservationError, match=r"forced-bracket audit failed: residual 5\.000e-02"):
        sl.ideal_forced_cross_terms(R, R)
    _exits_two(["ideal"], capsys, "forced-bracket audit failed")
