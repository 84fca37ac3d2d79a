import math

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger.cli import _flip_particle, main


# ---------------------------------------------------------------- dense oracle
# The amplified state as one pa_dim * 2 * 2^n amplitude vector, and the
# cross term read from it: the implementation that the factored path
# replaced, kept to check it at small n.

def _dense_conditional_kets(env):
    ket_up = np.array([1.0, 0.0], dtype=np.complex128)
    chi = math.acos(env.copy_fidelity)
    ket_dn = np.array([math.cos(chi), math.sin(chi)], dtype=np.complex128)
    e_up = np.ones(1, dtype=np.complex128)
    e_dn = np.ones(1, dtype=np.complex128)
    for _ in range(env.n_qubits):
        e_up = np.kron(e_up, ket_up)
        e_dn = np.kron(e_dn, ket_dn)
    return e_up, e_dn


def dense_amplify_record(state, sys, env):
    if state.dims[:3] != sys.dims:
        raise ValueError(f"state dims {state.dims} do not match system {sys.dims}")
    if len(state.dims) != 3:
        raise ValueError("state already carries an environment register")
    total = state.dim * 2 ** env.n_qubits
    if total > sl.NUMERICS.max_total_dim:
        raise ValueError(
            f"amplification refused: total dimension {total} exceeds the "
            f"configured maximum {sl.NUMERICS.max_total_dim}"
        )
    if env.n_qubits == 0:
        return state
    e_up, e_dn = _dense_conditional_kets(env)
    t = state.amplitudes.reshape(sys.pa_dim, 2)
    out = np.zeros((sys.pa_dim, 2, 2 ** env.n_qubits), dtype=np.complex128)
    out[:, 0, :] = t[:, 0:1] * e_up[None, :]
    out[:, 1, :] = t[:, 1:2] * e_dn[None, :]
    dims = sys.dims + (2,) * env.n_qubits
    return sl.StateVector(dims, out.reshape(-1))


def dense_cross_term(state, a, sys, env):
    assert state.dims == sys.dims + (2,) * env.n_qubits
    t = state.amplitudes.reshape(sys.pa_dim, 2, 2 ** env.n_qubits)
    up, dn = (t[:, r, :] / math.sqrt(np.real(np.vdot(t[:, r, :], t[:, r, :])))
              for r in range(2))
    return complex(np.vdot(up, a @ dn))


@pytest.fixture(scope="module")
def premeasured():
    sys_m = sl.build_measurement_unitary(2)
    r = 1 / np.sqrt(2)
    return sys_m, sl.premeasure(r, r, sys_m)


def particle_sigma_x(sys_m):
    # couples the two total-j manifolds, so its record-sector bracket is
    # nonzero before any amplification
    return dense_oracle.check_hermitian(
        np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(sys_m.dims[1])))


def test_zero_qubits_is_identity(premeasured):
    sys_m, final = premeasured
    out = sl.amplify_record(final, sys_m, sl.EnvironmentConfig(0, 0.5))
    assert out is final


def test_orthogonal_copies_kill_cross_terms(premeasured):
    sys_m, final = premeasured
    env = sl.EnvironmentConfig(1, 0.0)
    amplified = sl.amplify_record(final, sys_m, env)
    cross = sl.macroscopic_cross_term(amplified, particle_sigma_x(sys_m).__matmul__, sys_m, env)
    assert abs(cross) <= 1e-14


def test_geometric_suppression(premeasured):
    sys_m, final = premeasured
    probe = particle_sigma_x(sys_m).__matmul__
    baseline = sl.macroscopic_cross_term(final, probe, sys_m,
                                         sl.EnvironmentConfig(0, 0.8))
    assert abs(baseline) > 0.1
    for n in (1, 2, 4, 8):
        env = sl.EnvironmentConfig(n, 0.8)
        amplified = sl.amplify_record(final, sys_m, env)
        cross = sl.macroscopic_cross_term(amplified, probe, sys_m, env)
        assert abs(cross) == pytest.approx(abs(baseline) * 0.8 ** n, abs=1e-10)


def test_env_overlap_factor(premeasured):
    sys_m, final = premeasured
    probe = particle_sigma_x(sys_m).__matmul__
    baseline = sl.macroscopic_cross_term(final, probe, sys_m,
                                         sl.EnvironmentConfig(0, 0.9))
    env = sl.EnvironmentConfig(10, 0.9)
    amplified = sl.amplify_record(final, sys_m, env)
    cross = sl.macroscopic_cross_term(amplified, probe, sys_m, env)
    assert abs(cross) / abs(baseline) == pytest.approx(0.9 ** 10, abs=1e-12)


def test_conservation_untouched_by_amplification(premeasured):
    sys_m, final = premeasured
    env = sl.EnvironmentConfig(6, 0.7)
    amplified = dense_amplify_record(final, sys_m, env)
    n_env = 2 ** env.n_qubits
    for jk in dense_oracle.j_total(sys_m):
        big = dense_oracle.check_hermitian(np.kron(jk, np.eye(n_env)))
        before = np.vdot(final.amplitudes, jk @ final.amplitudes).real
        after = np.vdot(amplified.amplitudes, big @ amplified.amplitudes).real
        assert abs(after - before) <= 1e-12


def test_branch_weights_invariant_under_amplification(premeasured):
    sys_m, final = premeasured
    env = sl.EnvironmentConfig(5, 0.6)
    amplified = dense_amplify_record(final, sys_m, env)
    t0 = final.amplitudes.reshape(sys_m.pa_dim, 2)
    t1 = amplified.amplitudes.reshape(sys_m.pa_dim, 2, -1)
    for r in range(2):
        w0 = np.real(np.vdot(t0[:, r], t0[:, r]))
        w1 = np.real(np.vdot(t1[:, r], t1[:, r]))
        assert abs(w1 - w0) <= 1e-12


def test_j_cross_terms_zero_even_without_environment(premeasured):
    # J preserves the total-j manifolds that label the record sectors
    sys_m, final = premeasured
    env = sl.EnvironmentConfig(0, 0.8)
    for jk in dense_oracle.j_pa(sys_m):
        cross = sl.macroscopic_cross_term(final, jk.__matmul__, sys_m, env)
        assert abs(cross) <= 1e-12


def test_adversarial_coupler_sees_full_suppression(premeasured):
    # an operator tailored to connect the two record sectors: |up><dn|
    # between the branch states plus its adjoint
    sys_m, final = premeasured
    decomp = sl.decompose_branches(final, sys_m)
    states = {lbl: s for _, s, lbl in decomp.branches}
    outer = np.outer(states["up"].amplitudes, states["dn"].amplitudes.conj())
    probe = dense_oracle.check_hermitian(outer + outer.conj().T).__matmul__
    baseline = sl.macroscopic_cross_term(final, probe, sys_m,
                                         sl.EnvironmentConfig(0, 0.5))
    assert abs(baseline) == pytest.approx(1.0, abs=1e-12)
    env = sl.EnvironmentConfig(4, 0.5)
    amplified = sl.amplify_record(final, sys_m, env)
    cross = sl.macroscopic_cross_term(amplified, probe, sys_m, env)
    assert abs(cross) == pytest.approx(0.5 ** 4, abs=1e-12)


def test_decay_curve_values():
    assert sl.overlap_decay_curve(0.5, 3) == [(0, 1.0), (1, 0.5), (2, 0.25), (3, 0.125)]
    curve = dict(sl.overlap_decay_curve(0.99, 100))
    assert curve[100] == pytest.approx(0.99 ** 100, abs=1e-15)
    assert curve[100] == pytest.approx(0.3660323412732292, abs=1e-12)


def test_decay_curve_rejects_bad_overlap():
    with pytest.raises(ValueError, match="overlap"):
        sl.overlap_decay_curve(1.0, 5)
    with pytest.raises(ValueError, match="overlap"):
        sl.overlap_decay_curve(-0.1, 5)


def test_environment_config_validation():
    with pytest.raises(ValueError, match="n_qubits"):
        sl.EnvironmentConfig(-1, 0.5)
    with pytest.raises(ValueError, match="copy_fidelity"):
        sl.EnvironmentConfig(2, 1.5)


def test_amplification_dimension_cap():
    sys_m = sl.build_measurement_unitary(8)
    r = 1 / np.sqrt(2)
    final = sl.premeasure(r, r, sys_m)
    with pytest.raises(ValueError, match="exceeds"):
        dense_amplify_record(final, sys_m, sl.EnvironmentConfig(20, 0.5))


def test_empty_branch_rejected():
    sys_m = sl.build_measurement_unitary(2)
    final = sl.premeasure(1.0, 0.0, sys_m)  # dn sector empty
    env = sl.EnvironmentConfig(0, 0.5)
    with pytest.raises(ValueError, match="empty"):
        sl.macroscopic_cross_term(final, particle_sigma_x(sys_m).__matmul__, sys_m, env)


# ---------------------------------------------------------------- factored path

def _probes(sys_m, final):
    sigma_x = particle_sigma_x(sys_m)
    decomp = sl.decompose_branches(final, sys_m)
    states = {lbl: st for _, st, lbl in decomp.branches}
    outer = np.outer(states["up"].amplitudes, states["dn"].amplitudes.conj())
    coupler = dense_oracle.check_hermitian(outer + outer.conj().T)
    return [("sigma_x", sigma_x.__matmul__, sigma_x), ("swap", _flip_particle, sigma_x),
            ("coupler", coupler.__matmul__, coupler),
            *((f"J{k}", jk.__matmul__, jk) for k, jk in zip("xyz", dense_oracle.j_pa(sys_m)))]


@pytest.mark.parametrize("o", [0.0, 0.5, 0.8, 0.99])
@pytest.mark.parametrize("L", [0.5, 2, 3.5])
def test_factored_cross_term_matches_dense_oracle(L, o):
    sys_m = sl.build_measurement_unitary(L)
    r = 1 / np.sqrt(2)
    final = sl.premeasure(r, r, sys_m)
    probes = _probes(sys_m, final)
    for n in range(11):
        env = sl.EnvironmentConfig(n, o)
        factored = sl.amplify_record(final, sys_m, env)
        dense = dense_amplify_record(final, sys_m, env)
        assert factored.dims == dense.dims
        for name, probe, dense_probe in probes:
            got = sl.macroscopic_cross_term(factored, probe, sys_m, env)
            want = dense_cross_term(dense, dense_probe, sys_m, env)
            assert abs(got - want) <= 1e-13, (name, n)


def test_factored_state_holds_no_exponential_array(premeasured):
    sys_m, final = premeasured
    amplified = sl.amplify_record(final, sys_m, sl.EnvironmentConfig(40, 0.8))
    assert amplified.premeasured is final
    assert amplified.env_kets.shape == (2, 40, 2)
    assert not amplified.env_kets.flags.writeable
    assert len(amplified.dims) == 43


def test_cross_term_multiplies_each_qubit_overlap(premeasured):
    # distinct kets per qubit: the factor is the product of the n overlaps,
    # not a power of one of them
    sys_m, final = premeasured
    probe = particle_sigma_x(sys_m).__matmul__
    baseline = sl.macroscopic_cross_term(final, probe, sys_m, sl.EnvironmentConfig(0, 0.5))
    angles = np.array([0.1, 0.7, 1.3])
    kets = np.zeros((2, 3, 2), dtype=np.complex128)
    kets[0, :, 0] = 1.0
    kets[1, :, 0] = np.cos(angles)
    kets[1, :, 1] = np.sin(angles) * 1j
    amplified = sl.AmplifiedRecord(final, kets)
    cross = sl.macroscopic_cross_term(amplified, probe, sys_m, sl.EnvironmentConfig(3, 0.5))
    assert cross == pytest.approx(baseline * np.prod(np.cos(angles)), abs=1e-15)


def test_factored_kets_refused_before_allocating(premeasured, monkeypatch):
    sys_m, final = premeasured
    monkeypatch.setattr(sl.NUMERICS, "max_total_dim", 64)
    # 2 branches x 17 qubits x 2 amplitudes = 68 > 64
    with pytest.raises(ValueError, match="exceed the configured maximum 64"):
        sl.amplify_record(final, sys_m, sl.EnvironmentConfig(17, 0.8))
    assert sl.amplify_record(final, sys_m, sl.EnvironmentConfig(16, 0.8)).env_kets.size == 64


def test_cli_refuses_oversize_factor_kets(monkeypatch, capsys):
    monkeypatch.setattr(sl.NUMERICS, "max_total_dim", 64)
    assert main(["decohere", "--L", "2", "--n-env", "17"]) == 1
    assert "exceed the configured maximum 64" in capsys.readouterr().err


def _decohere_rows(args, capsys):
    code = main(["decohere", *args])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    baseline = float(next(ln for ln in lines if ln.startswith("# baseline_cross_term"))
                     .partition(" = ")[2])
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    assert body[0] == ["n_env", "bound", "measured_cross_mag",
                       "predicted_cross_mag", "deviation"]
    return baseline, [[float(x) for x in row] for row in body[1:]]


def test_decohere_at_macroscopic_size(capsys):
    baseline, rows = _decohere_rows(["--L", "10000", "--n-env", "1000"], capsys)
    assert len(rows) == 1001
    for n, (n_env, _, measured, _, _) in enumerate(rows):
        assert n_env == n
        assert abs(measured - baseline * 0.8 ** n) <= sl.NUMERICS.conservation_atol


@pytest.mark.parametrize("args", [["--L", "100", "--n-env", "17"],
                                  ["--L", "8", "--n-env", "40"]])
def test_decohere_beyond_the_dense_limit(args, capsys):
    _, rows = _decohere_rows(args, capsys)
    assert len(rows) == int(args[-1]) + 1
    assert all(row[4] <= sl.NUMERICS.conservation_atol for row in rows)


# ------------------------------------------------------------- the whole curve

def per_row_cross_term(final, kets, probe, sys_m):
    """The cross term of one row as each row took it before: decompose the
    premeasured state, bracket, times np.prod of the row's n overlaps."""
    decomp = sl.decompose_branches(final, sys_m)
    (_, up, _), (_, dn, _) = decomp.branches
    cross = complex(np.vdot(up.amplitudes, probe(dn.amplitudes)))
    if kets.shape[1]:
        cross *= complex(np.prod(np.sum(kets[0].conj() * kets[1], axis=1)))
    return cross


@pytest.mark.parametrize("o", [0.0, 0.5, 0.8, 0.999])
@pytest.mark.parametrize("L", [0.5, 3, 100])
def test_curve_equals_the_per_row_cross_terms_bit_for_bit(L, o):
    sys_m = sl.build_measurement_unitary(L)
    r = 1 / np.sqrt(2)
    final = sl.premeasure(r, r, sys_m)
    env = sl.EnvironmentConfig(200, o)
    amplified = sl.amplify_record(final, sys_m, env)
    curve = sl.cross_term_curve(amplified, _flip_particle, sys_m, env)
    assert len(curve) == 201
    for n, cross in enumerate(curve):
        want = per_row_cross_term(final, amplified.env_kets[:, :n], _flip_particle, sys_m)
        assert (cross.real, cross.imag) == (want.real, want.imag), n
    assert sl.macroscopic_cross_term(amplified, _flip_particle, sys_m, env) == curve[-1]


def test_curve_multiplies_distinct_overlaps_in_order(premeasured):
    sys_m, final = premeasured
    rng = np.random.default_rng(3)
    kets = rng.standard_normal((2, 300, 2)) + 1j * rng.standard_normal((2, 300, 2))
    kets /= np.linalg.norm(kets, axis=2, keepdims=True)
    curve = sl.cross_term_curve(sl.AmplifiedRecord(final, kets), _flip_particle, sys_m,
                                sl.EnvironmentConfig(300, 0.5))
    for n, cross in enumerate(curve):
        assert cross == per_row_cross_term(final, kets[:, :n], _flip_particle, sys_m), n


def test_decohere_decomposes_once_per_table(monkeypatch, capsys):
    calls = []
    decompose = sl.decoherence.decompose_branches

    def counting(*args):
        calls.append(1)
        return decompose(*args)

    monkeypatch.setattr(sl.decoherence, "decompose_branches", counting)
    assert main(["decohere", "--L", "50", "--n-env", "300"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
