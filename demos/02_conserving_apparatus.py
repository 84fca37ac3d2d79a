"""A quantum measuring device that conserves angular momentum exactly.

The device is one large spin-L plus a record qubit; the premeasurement
unitary is built from the rotationally invariant total-j projectors of
particle (x) apparatus, so [U, J_k] = 0 for all three components to
machine rounding.  Finite L means finite orientation sharpness, and the
record misfires with amplitude F = 1/sqrt(2L+1) on a counter-aligned
input.  Those error amplitudes multiply matrix elements of order
sqrt(2L+1)/2, and the products land exactly on (1/2, -i/2, 0): the
books the idealized treatment could only balance with cross terms
between macroscopic branches are balanced inside each branch family.
"""

import numpy as np

import spinledger as sl


def dense_device(L):
    """Dense U = P+ (x) 1 + P- (x) X and J_k over particle (x) apparatus, from S.L."""
    s, a = sl.spin_operators(0.5), sl.spin_operators(L)
    pairs = [(sk.entries, ak.entries) for sk, ak in ((s.jx, a.jx), (s.jy, a.jy), (s.jz, a.jz))]
    eye = np.eye(2 * a.dim)
    plus = (sum(np.kron(sk, ak) for sk, ak in pairs) + (L + 1) / 2 * eye) / (L + 0.5)
    u = np.kron(plus, np.eye(2)) + np.kron(eye - plus, [[0, 1], [1, 0]])
    return u, [np.kron(sk, np.eye(a.dim)) + np.kron(np.eye(2), ak) for sk, ak in pairs]


print("L    C        D        E        F        1/sqrt(2L+1)   max|[U,J]|")
for L in (1, 2, 4, 8, 16):
    sys_m = sl.build_measurement_unitary(L)
    amps = sl.extract_error_amplitudes(sys_m)
    u, j_pa = dense_device(L)
    comm = max(np.max(np.abs(u @ j - j @ u)) for j in (np.kron(jk, np.eye(2)) for jk in j_pa))
    print(f"{L:<4} {amps.C:<8.5f} {amps.D:<8.1e} {amps.E:<8.5f} "
          f"{amps.F:<8.5f} {1/np.sqrt(2*L+1):<14.5f} {comm:.1e}")

print("\nmatching equations C F <u|J_k|u'> + E D <d|J_k|d'> = (1/2, -i/2, 0):")
for L in (1, 4, 12):
    sys_m = sl.build_measurement_unitary(L)
    res = sl.verify_matching_equations(sys_m)
    amps = sl.extract_error_amplitudes(sys_m)
    jx = dense_device(L)[1][0]
    bx = np.vdot(amps.u.amplitudes, jx @ amps.u_err.amplitudes)
    print(f"  L={L:<3} <u|Jx|u'> = {bx.real:.5f} (= sqrt(2L+1)/2 = "
          f"{np.sqrt(2*L+1)/2:.5f}), residuals {np.max(np.abs(res)):.1e}")

print("\nbracket magnitude against the device's angular spread:")
rows = sl.bracket_magnitude_scaling([2, 8, 18, 32, 50])
print("L    |<u|Jx|u'>|   delta_L     1/delta_theta")
for row in rows:
    print(f"{row.L:<4.0f} {row.bracket_magnitude:<12.5f} "
          f"{row.delta_l:<11.5f} {row.inv_delta_theta:.5f}")
print("\nAll three columns grow like sqrt(L): the error bracket is as large")
print("as the device's own angular-momentum uncertainty, which is what")
print("lets amplitude-F terms carry order-1/2 angular momentum.")
