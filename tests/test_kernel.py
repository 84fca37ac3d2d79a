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
    psi = sl.basis_state((2,), (0,))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_operator_flag_checks():
    sx, _, _ = pauli()
    sl.Operator(sx, hermitian=True, unitary=True)  # fine
    with pytest.raises(ValueError, match="hermitian flag"):
        sl.Operator(np.array([[0, 1], [0, 0]]), hermitian=True)
    with pytest.raises(ValueError, match="unitary flag"):
        sl.Operator(np.array([[1, 0], [0, 2]]), unitary=True)


# ---------------------------------------------------------------- kron

def test_kron_identities():
    assert np.array_equal(
        sl.kron(sl.identity(2), sl.identity(3)).entries, np.eye(6)
    )


def test_kron_eigenbasis_case():
    # sigma_z (x) 1 on |up,down> has eigenvalue +1
    _, _, sz = pauli()
    op = sl.kron(sl.Operator(sz, hermitian=True), sl.identity(2))
    psi = sl.basis_state((2, 2), (0, 1))
    assert sl.expectation(psi, op) == pytest.approx(1.0, abs=STATE_ATOL)


def test_kron_spin_half_spin_one_spectrum_symmetric():
    # brute-force eigendecomposition oracle: Jx of spin-1/2 (x) spin-1 is
    # Hermitian with a spectrum symmetric about zero
    half = sl.spin_operators(0.5)
    one = sl.spin_operators(1)
    total = sl.Operator(
        sl.kron(half.jx, sl.identity(3)).entries
        + sl.kron(sl.identity(2), one.jx).entries,
        hermitian=True,
    )
    evals = np.linalg.eigvalsh(total.entries)
    assert np.allclose(np.sort(evals), -np.sort(-evals)[::-1], atol=1e-12)
    assert np.allclose(np.sort(evals), np.sort(-evals), atol=1e-12)


def test_kron_overflow_refused_with_sizes():
    big = sl.identity(2048)
    with pytest.raises(ValueError, match="2048 x 2048"):
        sl.kron(big, big)


def test_kron_associativity():
    rng = np.random.default_rng(3)
    ops = [sl.Operator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
           for d in (2, 3, 2)]
    left = sl.kron(sl.kron(ops[0], ops[1]), ops[2])
    right = sl.kron(ops[0], sl.kron(ops[1], ops[2]))
    assert np.max(np.abs(left.entries - right.entries)) <= 1e-14


# ---------------------------------------------------------------- expectation / bracket

def test_expectation_eigenstate():
    s = sl.spin_operators(0.5)
    up = sl.basis_state((2,), (0,))
    assert sl.expectation(up, s.jz) == pytest.approx(0.5, abs=STATE_ATOL)


def test_expectation_plus_x():
    s = sl.spin_operators(0.5)
    plus_x = sl.StateVector((2,), np.array([1, 1]) / np.sqrt(2))
    assert abs(sl.expectation(plus_x, s.jz)) <= STATE_ATOL
    # matches the Bloch formula at a = b = 1/sqrt(2): u_x/2 = 1/2
    u = sl.bloch_vector(1 / np.sqrt(2), 1 / np.sqrt(2))
    assert sl.expectation(plus_x, s.jx).real == pytest.approx(u.ux / 2, abs=STATE_ATOL)


def test_expectation_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        sl.expectation(sl.basis_state((2,), (0,)), sl.identity(3))


def test_bracket_ladder_elements():
    s = sl.spin_operators(0.5)
    up = sl.basis_state((2,), (0,))
    dn = sl.basis_state((2,), (1,))
    assert sl.bracket(up, s.jx, dn) == pytest.approx(0.5, abs=STATE_ATOL)
    assert abs(sl.bracket(up, s.jz, dn)) <= STATE_ATOL
    # cross-check Sy against the ladder combination (J+ - J-)/2i
    sy_alt = sl.Operator((s.jplus.entries - s.jminus.entries) / 2j, hermitian=True)
    assert sl.bracket(up, s.jy, dn) == pytest.approx(-0.5j, abs=STATE_ATOL)
    assert sl.bracket(up, sy_alt, dn) == pytest.approx(-0.5j, abs=STATE_ATOL)


def test_bracket_conjugate_symmetry():
    rng = np.random.default_rng(11)
    a = sl.Operator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for _ in range(20):
        phi = sl.random_state((4,), rng)
        psi = sl.random_state((4,), rng)
        lhs = sl.bracket(phi, a, psi)
        rhs = np.conj(sl.bracket(psi, a.dagger(), phi))
        assert abs(lhs - rhs) <= STATE_ATOL


# ---------------------------------------------------------------- expm

def test_expm_zero_time_is_identity():
    s = sl.spin_operators(0.5)
    u = dense_oracle.expm_hermitian(s.jx, 0.0)
    assert np.max(np.abs(u.entries - np.eye(2))) <= 1e-14


def test_expm_half_pi_sigma_x():
    # closed form: cos(pi/2) 1 - i sin(pi/2) sigma_x maps |up> to -i|down>
    sx, _, _ = pauli()
    u = dense_oracle.expm_hermitian(sl.Operator(sx, hermitian=True), np.pi / 2)
    out = u.entries @ np.array([1.0, 0.0])
    assert np.allclose(out, [0.0, -1.0j], atol=STATE_ATOL)


def test_expm_requires_hermitian_flag():
    with pytest.raises(ValueError, match="Hermitian"):
        dense_oracle.expm_hermitian(sl.Operator(np.array([[0, 1], [0, 0]])), 1.0)


def test_expm_unitarity_and_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = sl.Operator(h + h.conj().T, hermitian=True)
        t = rng.uniform(-5, 5)
        u = dense_oracle.expm_hermitian(h, t)
        assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(6))) <= OP_ATOL
        back = dense_oracle.expm_hermitian(h, -t)
        assert np.max(np.abs(u.entries @ back.entries - np.eye(6))) <= OP_ATOL


# ---------------------------------------------------------------- commutators

def test_commutator_norm_self_is_zero():
    s = sl.spin_operators(0.5)
    assert dense_oracle.commutator_norm(s.jz, s.jz) == 0.0


def test_commutator_norm_sx_sy():
    # [Sx, Sy] = i Sz whose largest entry is 1/2
    s = sl.spin_operators(0.5)
    assert dense_oracle.commutator_norm(s.jx, s.jy) == pytest.approx(0.5, abs=STATE_ATOL)


# ---------------------------------------------------------------- properties

@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_unitary_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    u = dense_oracle.expm_hermitian(sl.Operator(h + h.conj().T, hermitian=True),
                                    rng.uniform(-3, 3))
    psi = sl.random_state((5,), rng)
    out = sl.apply(u, psi)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= STATE_ATOL


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_hermitian_expectation_is_real(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = sl.Operator(h + h.conj().T, hermitian=True)
    psi = sl.random_state((4,), rng)
    assert abs(sl.expectation(psi, a).imag) <= STATE_ATOL


# ---------------------------------------------------------------- partial trace

def test_partial_trace_product_state():
    psi = sl.basis_state((2, 3), (1, 2))
    rho = sl.partial_trace(psi, keep=[0])
    assert np.allclose(rho, np.diag([0.0, 1.0]), atol=1e-14)


def test_partial_trace_bell_state():
    bell = sl.StateVector((2, 2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    rho = sl.partial_trace(bell, keep=[1])
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)
