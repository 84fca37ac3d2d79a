"""Dense oracle for the emission map, for small source spins only.

`emission_matrix(K)` is the (4K) x (2K+1) isometry from the spin-K
register to spin-(K-1/2) (x) particle, scattered from the two channel
bands `entangled_source_emit` applies directly.  `sequential_emissions`
applies it n times and keeps every emitted particle, a (2K+1-n) x 2^n
tensor.
"""

import numpy as np

import spinledger as sl
import spinledger.experiments as ex


def emission_matrix(K: float) -> np.ndarray:
    """Isometry from the spin-K register to spin-(K-1/2) (x) particle."""
    bands = ex._emission_bands(K)
    d_out = bands.shape[1]
    i = np.arange(d_out)
    v = np.zeros((d_out, 2, d_out + 1), dtype=np.complex128)
    v[i, 0, i] = bands[0]
    v[i, 1, i + 1] = bands[1]
    return v.reshape(2 * d_out, d_out + 1)


def sequential_emissions(source_state: sl.StateVector, K, n: int) -> sl.StateVector:
    """n successive emissions; returns source (x) particle_1 ... particle_n."""
    K = ex._check_spin(K, 1.0, "source spin")
    if n < 1:
        raise ValueError("need at least one emission")
    d_final = round(2 * K + 1) - n
    if d_final < 1:
        raise ValueError(f"source spin K={K} cannot emit {n} particles")
    if d_final * 2 ** n > sl.NUMERICS.max_total_dim:
        raise ValueError(
            f"sequential_emissions refused: {d_final} x 2^{n} = {d_final * 2 ** n} "
            f"exceeds the configured maximum total dimension {sl.NUMERICS.max_total_dim}"
        )
    t = source_state.amplitudes.copy()
    shape = [round(2 * K + 1)]
    k_cur = K
    for _ in range(n):
        v3 = emission_matrix(k_cur).reshape(round(2 * k_cur), 2, shape[0])
        t = np.tensordot(v3, t.reshape(shape), axes=([2], [0]))
        # new particle axis sits at position 1; push it behind the others
        t = np.moveaxis(t, 1, -1)
        shape = [round(2 * k_cur)] + shape[1:] + [2]
        k_cur -= 0.5
    return sl.StateVector(tuple(shape), t.reshape(-1))
