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

# a probe that connects the two record sectors: the particle's sigma_x
probe = sl.Operator(
    np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(sys_m.dims[1])),
    hermitian=True,
)

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
s, a = sys_m.spin_half, sys_m.spin_app
for sk, ak, name in ((s.jx, a.jx, "x"), (s.jy, a.jy, "y"), (s.jz, a.jz, "z")):
    jk = sl.Operator(np.kron(sk.entries, np.eye(a.dim)) + np.kron(np.eye(2), ak.entries),
                     hermitian=True)
    cross = sl.macroscopic_cross_term(final, jk, sys_m, sl.EnvironmentConfig(0, 0.5))
    print(f"  <up|J{name}|dn> = {abs(cross):.2e}")
