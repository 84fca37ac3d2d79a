"""Dense oracle for the sector device, built from S.L and never from its blocks.

S.L has exactly two eigenvalues on spin-1/2 (x) spin-L, L/2 on the
stretched j = L+1/2 manifold and -(L+1)/2 on the other, so
P+ = (S.L + (L+1)/2) / (L+1/2) and P- = 1 - P+ follow from the dense spin
matrices alone.  The premeasurement unitary, J over particle (x) apparatus
and over the full composite, and the same unitary from an exponentiated
coupling are built here as dense matrices, for small L only.
`dense_blocks` scatters a sector block stack into the kron layout, so the
blocks a build keeps can be compared with these matrices.
"""

import math

import numpy as np

import spinledger as sl


def expm_hermitian(h: sl.Operator, t: float) -> sl.Operator:
    """exp(-i H t) by spectral decomposition, unitary to rounding for any t."""
    if not h.hermitian:
        raise ValueError("expm_hermitian requires a Hermitian-flagged operator")
    w, v = np.linalg.eigh(h.entries)
    return sl.Operator((v * np.exp(-1j * w * t)) @ v.conj().T, unitary=True)


def commutator_norm(a: sl.Operator, b: sl.Operator) -> float:
    """Max-entry norm of AB - BA."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.max(np.abs(a.entries @ b.entries - b.entries @ a.entries)))


def s_dot_l(L) -> np.ndarray:
    """S.L on spin-1/2 (x) spin-L."""
    s, a = sl.spin_operators(0.5), sl.spin_operators(L)
    return (np.kron(s.jx.entries, a.jx.entries) + np.kron(s.jy.entries, a.jy.entries)
            + np.kron(s.jz.entries, a.jz.entries))


def manifold_projectors(L) -> tuple[sl.Operator, sl.Operator]:
    """P+ and P- onto the total-j = L+1/2 and L-1/2 manifolds."""
    sdl = s_dot_l(L)
    eye = np.eye(sdl.shape[0])
    plus = (sdl + (L + 1) / 2 * eye) / (L + 0.5)
    return sl.Operator(plus, hermitian=True), sl.Operator(eye - plus, hermitian=True)


def j_pa(sys: sl.CompositeSystem) -> tuple[sl.Operator, ...]:
    """S_k (x) 1 + 1 (x) L_k over particle (x) apparatus, one Operator per axis."""
    s, a = sys.spin_half, sys.spin_app
    return tuple(
        sl.Operator(np.kron(sk.entries, np.eye(a.dim)) + np.kron(np.eye(2), ak.entries),
                    hermitian=True)
        for sk, ak in ((s.jx, a.jx), (s.jy, a.jy), (s.jz, a.jz))
    )


def j_total(sys: sl.CompositeSystem) -> tuple[sl.Operator, ...]:
    """j_pa (x) 1 over particle (x) apparatus (x) record, one Operator per axis."""
    return tuple(sl.Operator(np.kron(jk.entries, np.eye(2)), hermitian=True)
                 for jk in j_pa(sys))


def u_meas(sys: sl.CompositeSystem) -> sl.Operator:
    """P+ (x) 1 + P- (x) X over particle (x) apparatus (x) record."""
    plus, minus = manifold_projectors(sys.L)
    x_rec = np.array([[0, 1], [1, 0]])
    return sl.Operator(np.kron(plus.entries, np.eye(2)) + np.kron(minus.entries, x_rec),
                       unitary=True)


def measurement_unitary_from_interaction(L) -> sl.Operator:
    """The same unitary as exp(-i tau (S.L - L/2) (x) |minus><minus|_rec).

    With tau = pi/(L+1/2) it reproduces the projector form without extra
    phases, because the two S.L eigenvalues differ by exactly L+1/2.
    """
    sdl = s_dot_l(L)
    g_rec = 0.5 * np.array([[1, -1], [-1, 1]], dtype=np.complex128)
    gen = sl.Operator(np.kron(sdl - (L / 2.0) * np.eye(sdl.shape[0]), g_rec), hermitian=True)
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
