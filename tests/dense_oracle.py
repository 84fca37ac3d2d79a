"""Dense oracle for the sector device, built from S.L and never from its blocks.

S.L has exactly two eigenvalues on spin-1/2 (x) spin-L, L/2 on the
stretched j = L+1/2 manifold and -(L+1)/2 on the other, so
P+ = (S.L + (L+1)/2) / (L+1/2) and P- = 1 - P+ follow from the dense spin
matrices alone.  The premeasurement unitary, J over particle (x) apparatus
and over the full composite, and the same unitary from an exponentiated
coupling are built here as dense matrices, for small L only.
`dense_blocks` scatters a sector block stack into the kron layout, so the
blocks a build keeps can be compared with these matrices.  The package
forms no dense operator; `spin_matrices` builds a banded spin's matrices
for the tests, and each matrix an oracle claims to be Hermitian or
unitary is checked to be so.
"""

import math

import numpy as np

import spinledger as sl


def spin_matrices(ops: sl.SpinOperators) -> tuple[np.ndarray, ...]:
    """Dense (Jx, Jy, Jz, J+, J-) of a banded spin, by the ladder formulas."""
    jp = np.diag(ops.raising.astype(np.complex128), 1)
    jm = jp.conj().T
    jx, jy, jz = map(check_hermitian, ((jp + jm) / 2, (jp - jm) / 2j,
                                       np.diag(ops.m.astype(np.complex128))))
    return jx, jy, jz, jp, jm


def check_hermitian(h: np.ndarray) -> np.ndarray:
    """h, if max|H - H^dag| is within the state tolerance."""
    dev = np.max(np.abs(h - h.conj().T))
    if dev > sl.NUMERICS.state_atol:
        raise ValueError(f"not Hermitian: max|H - H^dag| = {dev:.3e}")
    return h


def check_unitary(u: np.ndarray) -> np.ndarray:
    """u, if max|U^dag U - 1| is within the operator tolerance."""
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > sl.NUMERICS.operator_atol:
        raise ValueError(f"not unitary: max|U^dag U - 1| = {dev:.3e}")
    return u


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) by spectral decomposition, unitary to rounding for any t."""
    w, v = np.linalg.eigh(check_hermitian(h))
    return check_unitary((v * np.exp(-1j * w * t)) @ v.conj().T)


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry norm of AB - BA."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a @ b - b @ a)))


def s_dot_l(L) -> np.ndarray:
    """S.L on spin-1/2 (x) spin-L."""
    s, a = spin_matrices(sl.spin_operators(0.5)), spin_matrices(sl.spin_operators(L))
    return np.kron(s[0], a[0]) + np.kron(s[1], a[1]) + np.kron(s[2], a[2])


def manifold_projectors(L) -> tuple[np.ndarray, np.ndarray]:
    """P+ and P- onto the total-j = L+1/2 and L-1/2 manifolds."""
    sdl = s_dot_l(L)
    eye = np.eye(sdl.shape[0])
    plus = (sdl + (L + 1) / 2 * eye) / (L + 0.5)
    return check_hermitian(plus), check_hermitian(eye - plus)


def j_pa(sys: sl.CompositeSystem) -> tuple[np.ndarray, ...]:
    """S_k (x) 1 + 1 (x) L_k over particle (x) apparatus, one matrix per axis."""
    s, a = spin_matrices(sys.spin_half), spin_matrices(sys.spin_app)
    n = sys.spin_app.dim
    return tuple(check_hermitian(np.kron(s[k], np.eye(n)) + np.kron(np.eye(2), a[k]))
                 for k in range(3))


def j_total(sys: sl.CompositeSystem) -> tuple[np.ndarray, ...]:
    """j_pa (x) 1 over particle (x) apparatus (x) record, one matrix per axis."""
    return tuple(check_hermitian(np.kron(jk, np.eye(2))) for jk in j_pa(sys))


def u_meas(sys: sl.CompositeSystem) -> np.ndarray:
    """P+ (x) 1 + P- (x) X over particle (x) apparatus (x) record."""
    plus, minus = manifold_projectors(sys.L)
    x_rec = np.array([[0, 1], [1, 0]])
    return check_unitary(np.kron(plus, np.eye(2)) + np.kron(minus, x_rec))


def measurement_unitary_from_interaction(L) -> np.ndarray:
    """The same unitary as exp(-i tau (S.L - L/2) (x) |minus><minus|_rec).

    With tau = pi/(L+1/2) it reproduces the projector form without extra
    phases, because the two S.L eigenvalues differ by exactly L+1/2.
    """
    sdl = s_dot_l(L)
    g_rec = 0.5 * np.array([[1, -1], [-1, 1]], dtype=np.complex128)
    gen = np.kron(sdl - (L / 2.0) * np.eye(sdl.shape[0]), g_rec)
    return expm_hermitian(gen, math.pi / (L + 0.5))


def dense_blocks(blocks: np.ndarray) -> np.ndarray:
    """The 2(2L+1)-square kron-layout matrix of a (2L+2, 2, 2) sector block stack."""
    d = blocks.shape[0] - 1
    k = np.arange(d + 1)
    idx = np.stack([k, d + k - 1], axis=1)
    idx[d, 0] = idx[0, 1] = 2 * d   # phantoms land in a row and column cut off below
    out = np.zeros((2 * d + 1, 2 * d + 1), dtype=np.complex128)
    out[idx[:, :, None], idx[:, None, :]] = blocks
    return out[:-1, :-1]
