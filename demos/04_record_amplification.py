"""Why cross terms between macroscopic branches are dead on arrival.

Orthogonality of two branches is cheap; macroscopic distinguishability
is the much stronger statement that the branches keep imprinting
themselves on more and more of the world.  Here the record is copied
into n environment qubits whose conditional states overlap by o per
qubit, and any operator's matrix element between the branches is
measured to fall off exactly as o^n.
"""

import numpy as np

import spinledger as sl

sys_m = sl.build_measurement_unitary(2)
r = 1 / np.sqrt(2)
final = sl.premeasure(r, r, sys_m)


def probe(v):
    """A probe that connects the two record sectors: the particle's sigma_x.

    On particle (x) apparatus amplitudes it swaps the particle's halves.
    """
    return v.reshape(2, -1)[::-1].reshape(-1)


def spin_matrices(ops):
    """Dense (Jx, Jy, Jz) of a spin, from its Jz diagonal and J+ band."""
    jp = np.diag(ops.raising.astype(complex), 1)
    jm = jp.conj().T
    return [(jp + jm) / 2, (jp - jm) / 2j, np.diag(ops.m.astype(complex))]


for o in (0.0, 0.5, 0.9):
    baseline = sl.macroscopic_cross_term(final, probe, sys_m,
                                         sl.EnvironmentConfig(0, max(o, 0.5)))
    print(f"per-qubit overlap o = {o}")
    print("  n    bound o^n      measured |cross|   measured/baseline")
    for n in (0, 1, 2, 4, 8):
        env = sl.EnvironmentConfig(n, o)
        amplified = sl.amplify_record(final, sys_m, env)
        cross = sl.macroscopic_cross_term(amplified, probe, sys_m, env)
        ratio = abs(cross) / abs(baseline)
        print(f"  {n:<4} {o**n:<14.6f} {abs(cross):<18.12f} {ratio:.12f}")
    print()

print("Angular momentum itself never needed the suppression: J preserves")
print("the total-j manifolds that label the record sectors, so its")
print("branch cross terms are zero before any environment is attached:")
dim = sys_m.spin_app.dim
for sk, ak, name in zip(spin_matrices(sys_m.spin_half), spin_matrices(sys_m.spin_app), "xyz"):
    jk = np.kron(sk, np.eye(dim)) + np.kron(np.eye(2), ak)
    cross = sl.macroscopic_cross_term(final, jk.__matmul__, sys_m, sl.EnvironmentConfig(0, 0.5))
    print(f"  <up|J{name}|dn> = {abs(cross):.2e}")
