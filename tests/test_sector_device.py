"""The Clebsch-Gordan sector device against its dense oracles.

A build stores P+ and P- as (2L+2, 2, 2) sector blocks and the apparatus
spin as its two ladder bands; premeasure, the audits, the brackets and
the spread run on those in O(L).  The oracle is dense: `dense_oracle`
builds U, J and P+- from S.L and the dense spin matrices, never from the
blocks.
"""

import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger import angular, apparatus, kernel
from spinledger.cli import main as cli_main

L_VALUES = [0.5, 1, 2.5, 7, 40, 150]


def _spinors(seed):
    rng = np.random.default_rng(seed)
    out = [(1.0, 0.0), (0.0, 1.0)]
    for _ in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        out.append(tuple(v / np.linalg.norm(v)))
    return out


@pytest.fixture(scope="module", params=[(L, tilt) for L in L_VALUES for tilt in (0.0, 0.4)],
                ids=lambda p: f"L{p[0]:g}-tilt{p[1]:g}")
def device(request):
    L, tilt = request.param
    return sl.build_measurement_unitary(L, tilt=tilt)


def test_premeasure_matches_dense_unitary(device):
    u = dense_oracle.u_meas(device)
    for a, b in _spinors(round(4 * device.L)):
        dense = u @ np.kron(np.kron([a, b], device.apparatus_state.amplitudes), [1, 0])
        assert np.max(np.abs(sl.premeasure(a, b, device).amplitudes - dense)) <= 1e-12


def test_structured_j_matches_dense_j_pa(device):
    rng = np.random.default_rng(round(4 * device.L))
    v = rng.normal(size=device.pa_dim) + 1j * rng.normal(size=device.pa_dim)
    for k, jk in enumerate(dense_oracle.j_pa(device)):
        assert np.max(np.abs(apparatus._j_matvecs(device, v)[k] - jk @ v)) <= 1e-12


def test_brackets_and_means_match_dense(device):
    amps = sl.extract_error_amplitudes(device)
    j_pa = dense_oracle.j_pa(device)
    pairs = [(amps.u, amps.u_err), (amps.d, amps.d_err)]
    for bra, ket in pairs:
        if bra is None or ket is None:
            continue
        for k, jk in enumerate(j_pa):
            got = apparatus._j_brackets(device, bra.amplitudes, ket.amplitudes)[k]
            assert abs(got - np.vdot(bra.amplitudes, jk @ ket.amplitudes)) <= 1e-12
        dense_means = [np.vdot(bra.amplitudes, jk @ bra.amplitudes).real for jk in j_pa]
        assert np.max(np.abs(apparatus._j_means(device, bra.amplitudes) - dense_means)) <= 1e-12


def test_angular_spread_matches_dense_jx_squared(device):
    psi = device.apparatus_state
    v = psi.amplitudes
    jx, _, jz, _, _ = dense_oracle.spin_matrices(device.spin_app)
    var = np.vdot(v, dense_oracle.check_hermitian(jx @ jx) @ v).real - np.vdot(v, jx @ v).real ** 2
    delta_l = math.sqrt(max(var, 0.0))
    spread = sl.angular_spread(psi, device.spin_app)
    assert spread.delta_l == pytest.approx(delta_l, abs=1e-12 * max(1.0, delta_l))
    theta = delta_l / np.vdot(v, jz @ v).real
    assert spread.delta_theta == pytest.approx(theta, abs=1e-12 * max(1.0, theta))
    assert sl.angular_spread(psi, sl.spin_operators(device.L)) == spread


@pytest.mark.parametrize("L", L_VALUES)
def test_sector_blocks_match_the_s_dot_l_projectors(L):
    s_dot_l = dense_oracle.s_dot_l(L)
    plus = (s_dot_l + (L + 1) / 2 * np.eye(s_dot_l.shape[0])) / (L + 0.5)
    sys_m = sl.build_measurement_unitary(L)
    assert np.max(np.abs(dense_oracle.dense_blocks(sys_m.plus_blocks) - plus)) <= 1e-12
    assert np.max(np.abs(dense_oracle.dense_blocks(sys_m.minus_blocks)
                         - (np.eye(plus.shape[0]) - plus))) <= 1e-12


def test_no_build_uses_a_dense_audit_or_a_dense_spin_l(monkeypatch):
    # a spin has no dense form to build (test_src_keeps_one_device_representation)
    assert not any(hasattr(angular.SpinOperators, name) for name in DENSE_SPIN_ATTRIBUTES)

    def no_commutator(*args):
        raise AssertionError("a build called commutator_norm")

    assert not hasattr(kernel, "commutator_norm") and not hasattr(apparatus, "commutator_norm")
    monkeypatch.setattr(dense_oracle, "commutator_norm", no_commutator)
    for tilt in (0.0, 0.4):
        sys_m = sl.build_measurement_unitary(40, tilt=tilt)
        sl.extract_error_amplitudes(sys_m)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sl.extract_error_amplitudes(sl.build_measurement_unitary(1e5, tilt=0.4)),
                 id="tilted-build-1e5"),
    pytest.param(lambda: sl.prepare_internal_source(1000, 10), id="internal-source-1000"),
])
def test_build_and_source_diagonalize_nothing(monkeypatch, call):
    def no_dense(*args, **kwargs):
        raise AssertionError("a dense diagonalization was called")

    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    assert not hasattr(kernel, "expm_hermitian") and not hasattr(apparatus, "expm_hermitian")
    monkeypatch.setattr(dense_oracle, "expm_hermitian", no_dense)
    call()


REMOVED_NAMES = ("manifold_projectors", "measurement_unitary_from_interaction", "expm_hermitian",
                 "commutator_norm", "_dense_blocks", "_s_dot_l",
                 "Operator", "identity", "basis_state", "random_state", "kron", "apply",
                 "expectation", "bracket")
DENSE_ATTRIBUTES = ("proj_plus", "proj_minus", "j_pa", "u_meas", "j_total")
DENSE_SPIN_ATTRIBUTES = ("jx", "jy", "jz", "jplus", "jminus")


def test_src_keeps_one_device_representation():
    # the dense device and the dense operators live in the test oracle
    for module in (sl, apparatus, kernel):
        for name in REMOVED_NAMES:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ())
    for tilt in (0.0, 0.4):
        sys_m = sl.build_measurement_unitary(3, tilt=tilt)
        for name in DENSE_ATTRIBUTES:
            assert not hasattr(sys_m, name), (tilt, name)
        for name in DENSE_SPIN_ATTRIBUTES:
            assert not hasattr(sys_m.spin_app, name), (tilt, name)
            assert not hasattr(sys_m.spin_half, name), (tilt, name)
    for path in Path(sl.__file__).parent.glob("*.py"):
        assert not re.search(r"\bOperator\b", path.read_text()), path.name


def _rows(path):
    return list(csv.DictReader(ln for ln in path.read_text().splitlines()
                               if ln and not ln.startswith("#")))


def test_measure_macroscopic_sweep_matches_closed_forms(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code = cli_main(["measure", "--L", "1,10,100,1000,10000,100000", "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    rows = _rows(path)
    assert [float(r["L"]) for r in rows] == [1, 10, 100, 1000, 10000, 100000]
    for r in rows:
        L = float(r["L"])
        want = {
            "F": 1 / math.sqrt(2 * L + 1),
            "E": math.sqrt(2 * L / (2 * L + 1)),
            "bracket_jx_mag": math.sqrt(2 * L + 1) / 2,
            "delta_L": math.sqrt(L / 2),
        }
        for col, target in want.items():
            assert float(r[col]) == pytest.approx(target, rel=1e-12), (L, col)
        assert float(r["C"]) == 1.0 and float(r["D"]) == 0.0
        assert float(r["matching_residual_max"]) <= sl.NUMERICS.conservation_atol


def test_oversize_device_is_refused_before_it_allocates(monkeypatch, capsys):
    def no_alloc(*args):
        raise AssertionError("refused build allocated its device")

    monkeypatch.setattr(apparatus, "spin_operators", no_alloc)
    monkeypatch.setattr(apparatus, "_sector_projectors", no_alloc)
    # 4 (2L+1) = 8000004 > 2^20
    with pytest.raises(ValueError, match="exceeds the configured maximum total dimension 1048576"):
        sl.build_measurement_unitary(1e6)
    assert cli_main(["measure", "--L", "1000000"]) == 1
    assert "maximum total dimension" in capsys.readouterr().err


def test_size_guard_follows_the_configured_maximum(monkeypatch, capsys):
    monkeypatch.setattr(sl.NUMERICS, "max_total_dim", 64)
    assert sl.build_measurement_unitary(7.5).dims == (2, 16, 2)   # 4 x 16 = 64
    with pytest.raises(ValueError, match="4 x 17 = 68 exceeds the configured maximum total "
                                         "dimension 64"):
        sl.build_measurement_unitary(8)
    assert cli_main(["measure", "--L", "7.5,8"]) == 1
    assert "68 exceeds" in capsys.readouterr().err
