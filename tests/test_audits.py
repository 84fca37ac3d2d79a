"""Every numerical-invariant audit raises ConservationError, and the CLI exits 2.

Each test trips one audit and checks its message; where a CLI command
reaches the audit, `cli.main` returns 2 with a one-line message and no
traceback.  The weight-sum and orthogonality audits read kets that no
command can build (premeasure's records are normalized and orthogonal),
so they are tripped in the library only.  The slot-leak audit's test is
in test_streak_moments.py.  A record under the weight floor trips none.
"""

import cmath
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinledger as sl
from spinledger import angular, apparatus, ideal
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


def test_spin_self_check_audit(monkeypatch, capsys):
    # the bands of a checked spin are wrong only if their algebra is broken
    real = angular._raising
    monkeypatch.setattr(angular, "_raising", lambda j, m: real(j, m) * (1.0 + 1e-6))
    with pytest.raises(sl.ConservationError, match=r"spin algebra failed self-check at j=3\.5"):
        sl.spin_operators(3.5)
    _exits_two(["measure", "--L", "3.5"], capsys, "spin algebra failed self-check at j=3.5")


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


def test_reconstruction_audit():
    # records scaled by 1e7: each branch state is still normalized, but the
    # kets rebuilt from coefficient and state miss them by ~1e-9, which
    # trips this gate before the weight sum's
    sys_m = sl.build_measurement_unitary(2)
    kets = apparatus._premeasure_stack([(R, R)], sys_m.stack)[:, :2]
    with pytest.raises(sl.ConservationError, match=r"branch reconstruction failed \(L = 2\)"):
        apparatus._split_records(1e7 * kets, sys_m.stack)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(b_exp=math.log10(3e-8), phase_a=0.0, phase_b=0.0, L=4.0)
@given(b_exp=st.floats(-160.0, 0.0), phase_a=st.floats(0.0, 2 * math.pi),
       phase_b=st.floats(0.0, 2 * math.pi), L=st.sampled_from([0.5, 1.0, 4.5, 1000.0, 131071.5]))
def test_a_negligible_record_passes_every_audit(b_exp, phase_a, phase_b, L):
    # a record under the weight floor is dropped and no audit reads it, so
    # |b| from 1e-160 to 1 runs: 1e-9 to 1e-7 exited 2 when the
    # reconstruction gate read the dropped record's amplitudes
    a, b = cmath.rect(1.0, phase_a), cmath.rect(10.0 ** b_exp, phase_b)
    spinor = [f"--a-re={a.real!r}", f"--a-im={a.imag!r}", f"--b-re={b.real!r}", f"--b-im={b.imag!r}"]
    common = [f"--L={L!r}", *spinor, "--output", os.devnull]
    assert cli_main(["ideal", *common]) == 0
    assert cli_main(["satellite", "--n", "3", *common]) == 0


def test_forced_bracket_audit(monkeypatch, capsys):
    monkeypatch.setattr(ideal, "_FORCED_CROSS", 1.1 * ideal._FORCED_CROSS)
    with pytest.raises(sl.ConservationError, match=r"forced-bracket audit failed: residual 5\.000e-02"):
        sl.ideal_forced_cross_terms(R, R)
    _exits_two(["ideal"], capsys, "forced-bracket audit failed")
