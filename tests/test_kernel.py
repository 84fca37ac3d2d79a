import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
import spinledger as sl

STATE_ATOL = 1e-12
OP_ATOL = 1e-10


def pauli():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    return sx, sy, sz


# ---------------------------------------------------------------- containers

def test_state_requires_normalization():
    with pytest.raises(ValueError, match="not normalized"):
        sl.StateVector((2,), np.array([1.0, 1.0]))


def test_state_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        sl.StateVector((2,), np.array([np.nan, 0.0]))


def test_state_dims_must_match_length():
    with pytest.raises(ValueError, match="does not match dims"):
        sl.StateVector((2, 2), np.array([1.0, 0.0]))


def test_state_is_immutable():
    psi = sl.StateVector((2,), [1.0, 0.0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


# ---------------------------------------------------------------- oracle checks and kron layout

def test_operator_flag_checks():
    # the oracle's Hermitian and unitary checks, at the state and operator tolerances
    sx, _, _ = pauli()
    assert dense_oracle.check_unitary(dense_oracle.check_hermitian(sx)) is sx
    with pytest.raises(ValueError, match="not Hermitian"):
        dense_oracle.check_hermitian(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="not unitary"):
        dense_oracle.check_unitary(np.array([[1, 0], [0, 2]]))


def test_kron_eigenbasis_case():
    # sigma_z (x) 1 on |up,down> has eigenvalue +1: the left factor is the slow index
    _, _, sz = pauli()
    psi = sl.StateVector((2, 2), np.kron([1.0, 0.0], [0.0, 1.0]))
    assert psi.tensor()[0, 1] == 1.0
    op = np.kron(sz, np.eye(2))
    assert np.vdot(psi.amplitudes, op @ psi.amplitudes) == pytest.approx(1.0, abs=STATE_ATOL)


# ---------------------------------------------------------------- spin matrices

def test_kron_spin_half_spin_one_spectrum_symmetric():
    # brute-force eigendecomposition oracle: Jx of spin-1/2 (x) spin-1 is
    # Hermitian with a spectrum symmetric about zero
    half = dense_oracle.spin_matrices(sl.spin_operators(0.5))
    one = dense_oracle.spin_matrices(sl.spin_operators(1))
    total = dense_oracle.check_hermitian(np.kron(half[0], np.eye(3)) + np.kron(np.eye(2), one[0]))
    evals = np.linalg.eigvalsh(total)
    assert np.allclose(np.sort(evals), -np.sort(-evals)[::-1], atol=1e-12)
    assert np.allclose(np.sort(evals), np.sort(-evals), atol=1e-12)


UP, DN = np.array([1.0, 0.0]), np.array([0.0, 1.0])


def test_expectation_eigenstate():
    _, _, sz, _, _ = dense_oracle.spin_matrices(sl.spin_operators(0.5))
    assert np.vdot(UP, sz @ UP) == pytest.approx(0.5, abs=STATE_ATOL)


def test_expectation_plus_x():
    sx, _, sz, _, _ = dense_oracle.spin_matrices(sl.spin_operators(0.5))
    plus_x = np.array([1, 1]) / np.sqrt(2)
    assert abs(np.vdot(plus_x, sz @ plus_x)) <= STATE_ATOL
    # matches the Bloch formula at a = b = 1/sqrt(2): u_x/2 = 1/2
    u = sl.bloch_vector(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert np.vdot(plus_x, sx @ plus_x).real == pytest.approx(u.ux / 2, abs=STATE_ATOL)


def test_bracket_ladder_elements():
    sx, sy, sz, sp, sm = dense_oracle.spin_matrices(sl.spin_operators(0.5))
    assert np.vdot(UP, sx @ DN) == pytest.approx(0.5, abs=STATE_ATOL)
    assert abs(np.vdot(UP, sz @ DN)) <= STATE_ATOL
    # cross-check Sy against the ladder combination (J+ - J-)/2i
    sy_alt = dense_oracle.check_hermitian((sp - sm) / 2j)
    assert np.vdot(UP, sy @ DN) == pytest.approx(-0.5j, abs=STATE_ATOL)
    assert np.vdot(UP, sy_alt @ DN) == pytest.approx(-0.5j, abs=STATE_ATOL)


# ---------------------------------------------------------------- expm

def test_expm_zero_time_is_identity():
    sx = dense_oracle.spin_matrices(sl.spin_operators(0.5))[0]
    u = dense_oracle.expm_hermitian(sx, 0.0)
    assert np.max(np.abs(u - np.eye(2))) <= 1e-14


def test_expm_half_pi_sigma_x():
    # closed form: cos(pi/2) 1 - i sin(pi/2) sigma_x maps |up> to -i|down>
    sx, _, _ = pauli()
    u = dense_oracle.expm_hermitian(sx, np.pi / 2)
    out = u @ np.array([1.0, 0.0])
    assert np.allclose(out, [0.0, -1.0j], atol=STATE_ATOL)


def test_expm_requires_hermitian_flag():
    with pytest.raises(ValueError, match="Hermitian"):
        dense_oracle.expm_hermitian(np.array([[0, 1], [0, 0]]), 1.0)


def test_expm_unitarity_and_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = h + h.conj().T
        t = rng.uniform(-5, 5)
        u = dense_oracle.expm_hermitian(h, t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) <= OP_ATOL
        back = dense_oracle.expm_hermitian(h, -t)
        assert np.max(np.abs(u @ back - np.eye(6))) <= OP_ATOL


# ---------------------------------------------------------------- commutators

def test_commutator_norm_self_is_zero():
    sz = dense_oracle.spin_matrices(sl.spin_operators(0.5))[2]
    assert dense_oracle.commutator_norm(sz, sz) == 0.0


def test_commutator_norm_sx_sy():
    # [Sx, Sy] = i Sz whose largest entry is 1/2
    sx, sy = dense_oracle.spin_matrices(sl.spin_operators(0.5))[:2]
    assert dense_oracle.commutator_norm(sx, sy) == pytest.approx(0.5, abs=STATE_ATOL)


# ---------------------------------------------------------------- properties

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    u = dense_oracle.expm_hermitian(h + h.conj().T, rng.uniform(-3, 3))
    psi = rng.normal(size=5) + 1j * rng.normal(size=5)
    out = u @ (psi / np.linalg.norm(psi))
    assert abs(np.linalg.norm(out) - 1.0) <= STATE_ATOL


# ---------------------------------------------------------------- partial trace

def test_partial_trace_product_state():
    psi = sl.StateVector((2, 3), np.eye(6)[5])
    rho = sl.partial_trace(psi, keep=[0])
    assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-14)


def test_partial_trace_bell_state():
    bell = sl.StateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    rho = sl.partial_trace(bell, keep=[1])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)
