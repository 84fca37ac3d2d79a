"""The internal streak's dense-moment recursion, the oracle for its light-cone bands.

`_internal_streak` carries each source moment matrix as its diagonals
|k| <= w, y[w+k, i] = X[i, i+k].  The oracle here carries every moment
matrix whole, (2K+1)-square: a shot's four products E_p X E_q^dag are the
shifted slices X[p:p+d, q:q+d] scaled by `channel_weights`, one
(1, 4) by (4, d*d) dot folds them, and the moments are read from the
dense diagonals.  It costs O(K^2) memory, so it is run for small K only.
`band` cuts a dense matrix to its band, for comparing the two.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

import spinledger as sl
import spinledger.experiments as ex


def channel_weights(K: float) -> np.ndarray:
    """bands[p, i] bands[q, j] of the emission channels, shape (2, 2, 2K, 2K)."""
    bands = ex._emission_bands(K)
    return bands[:, None, :, None] * bands[None, :, None, :]


def channel_pairs(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """E_p x E_q^dag for both emission channels p, q, as the rows (p, q) of a (4, d*d) array."""
    d = weights.shape[-1]
    windows = as_strided(x, (2, 2, d, d), x.strides * 2, writeable=False)
    return (windows * weights).reshape(4, d * d)


def fold(coeffs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """sum_{s,s'} op[s', s] M_s x M_s'^dag from its `_fold_coefficients` and `channel_pairs`."""
    return np.dot(coeffs, pairs).reshape(math.isqrt(pairs.shape[1]), -1)


def trace(x: np.ndarray) -> float:
    """Re Tr x."""
    return float(np.real(np.trace(x)))


def ladder_trace(ops: sl.SpinOperators, x: np.ndarray, axis: int) -> float:
    """Re Tr(K_axis x) (axis 0, 1, 2 for x, y, z), read from the dense diagonals."""
    if axis == 2:
        return float(np.real(ops.m @ np.diagonal(x)))
    below, above = np.diagonal(x, -1), np.diagonal(x, 1)   # x[i+1, i], x[i, i+1]
    paired = below + above if axis == 0 else (below - above) / 1j
    return float(np.real(ops.raising @ paired)) / 2


def band(x: np.ndarray, w: int) -> np.ndarray:
    """The (2w+1, d) band of a d-square x, y[w+k, i] = x[i, i+k], zero off the matrix."""
    y = np.zeros((2 * w + 1, x.shape[0]), dtype=x.dtype)
    for k in range(-w, w + 1):
        diag = np.diagonal(x, k)
        if k >= 0:
            y[w + k, :diag.size] = diag
        else:
            y[w + k, -k:] = diag
    return y


def dense_moment_streak(n: int, L, K: float, pattern: str) -> tuple:
    """(j2, jz, ledger, weights) of `lucky_streak_j2(n, L, "internal", K, pattern=pattern)`.

    The recursion of `_internal_streak` on whole (2K+1)-square moments.
    """
    sys = sl.build_measurement_unitary(L)
    shots, slots, jz = ex._read_shot(sys)
    jz_slot = np.diag(jz).astype(np.complex128)
    s_slot = [np.kron(op, np.eye(2)) for op in ex._SPIN_HALF_MATRICES]

    psi = sl.prepare_internal_source(K, margin=n).amplitudes
    rho = np.outer(psi, psi.conj())
    sigma = [np.zeros_like(rho) for _ in s_slot]
    tau = [np.zeros_like(rho) for _ in s_slot]
    ledger_sigma = np.zeros_like(rho)
    k_cur = K

    def moments(n_slots):
        ops = sl.spin_operators(k_cur)
        j2 = k_cur * (k_cur + 1) * trace(rho)
        for axis, (sig, ta) in enumerate(zip(sigma, tau)):
            j2 += 2 * ladder_trace(ops, sig, axis) + trace(ta)
        kz = ladder_trace(ops, rho, 2)
        return j2, kz + trace(sigma[2]), kz + trace(ledger_sigma) - n_slots * sys.L

    series = [moments(0)]
    weights = []
    for step, ch in enumerate(pattern):
        r = 0 if ch == "u" else 1
        amp = slots[r]
        slot = ex._fold_coefficients(amp)
        chan = channel_weights(k_cur)
        rho_pairs = channel_pairs(rho, chan)
        rho_new = fold(slot, rho_pairs)
        w_slot = trace(rho_new)
        for axis, op in enumerate(s_slot):
            s_row, s2_row = ex._fold_coefficients(amp, op), ex._fold_coefficients(amp, op @ op)
            sig_pairs = channel_pairs(sigma[axis], chan)
            tau[axis] = (fold(slot, channel_pairs(tau[axis], chan))
                         + 2 * fold(s_row, sig_pairs)
                         + fold(s2_row, rho_pairs)) / w_slot
            sigma[axis] = (fold(slot, sig_pairs) + fold(s_row, rho_pairs)) / w_slot
        ledger_sigma = (fold(slot, channel_pairs(ledger_sigma, chan))
                        + fold(ex._fold_coefficients(amp, jz_slot), rho_pairs)) / w_slot
        rho = rho_new / w_slot
        k_cur -= 0.5
        weights.append(w_slot)
        series.append(moments(step + 1))
    j2, jz_series, ledger = zip(*series)
    return j2, jz_series, ledger, tuple(weights)


def mismatches(cases) -> list:
    """The (n, L, K, pattern) cases whose internal `lucky_streak_j2` report differs in any bit.

    Each report's <J^2>, <Jz>, ledger and weight series is compared, as
    float64 bytes, with `dense_moment_streak`'s.
    """
    def bits(*series):
        return [np.array(s, dtype=float).tobytes() for s in series]

    out = []
    for n, L, K, pattern in cases:
        report = sl.lucky_streak_j2(n, L, "internal", K=K, pattern=pattern)
        got = bits(report.postselected_j2, report.postselected_jz, report.combined_jz_ledger,
                   report.step_weights)
        if got != bits(*dense_moment_streak(n, L, K, pattern)):
            out.append((n, L, K, pattern))
    return out
