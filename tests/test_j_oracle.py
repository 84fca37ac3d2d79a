"""The J readers against the per-component and per-sector paths they replaced.

`angular._ladder_matvecs` forms the zero-padded J+ v and the J- v
products once and builds Jx, Jy and Jz from them.  `j_matvecs` here
applies it to both factors of particle (x) apparatus: the kron-layout J
pass, kept only as a test oracle since every <J> and <b|J|k> of the
package is read in the sector layout.  The per-component oracle is the
original code, one `moveaxis` ladder matvec per component and per
factor, and `oracle_matching_residuals` sums its brackets into the
matching residuals as the per-device path did; the kron pass must agree
with it bit for bit, signed zeros included.  The package's brackets and
means come from `apparatus._sector_j_brackets`, summed in sector order:
the matching residuals have the bits of `oracle_sector_residuals`, and
the branch and input means of `_read_branches` those of
`oracle_sector_bracket`, a Python loop over the sectors; both agree with
the kron oracle to rounding, within 1e-14 of the largest term.
"""

import math

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger import angular, apparatus

L_VALUES = [0.5, 1, 2.5, 7, 40, 150]


def oracle_ladder_matvec(ops, v, k, axis=-1):
    """J_k v along one axis of v (k = 0, 1, 2 for x, y, z), one component per call."""
    v = np.moveaxis(v, axis, -1)
    if k == 2:
        return np.moveaxis(ops.m * v, -1, axis)
    out = np.zeros(v.shape, dtype=np.complex128)
    out[..., :-1] = ops.raising * v[..., 1:]
    lowered = ops.raising * v[..., :-1]
    if k == 0:
        out[..., 1:] += lowered
        out /= 2
    else:
        out[..., 1:] -= lowered
        out /= 2j
    return np.moveaxis(out, -1, axis)


def j_matvecs(sys, v):
    """[Jx v, Jy v, Jz v] of kron-layout amplitudes v, J_k = S_k (x) 1 + 1 (x) L_k, by `_ladder_matvecs`."""
    t = v.reshape(2, -1)
    half = angular._ladder_matvecs(sys.spin_half, t.swapaxes(-1, -2))
    out = angular._ladder_matvecs(sys.spin_app, t)
    for h, a in zip(half, out):
        a += h.swapaxes(-1, -2)
    return [jv.reshape(v.shape) for jv in out]


def oracle_j_matvec(sys, v, k):
    t = v.reshape(2, -1)
    return (oracle_ladder_matvec(sys.spin_half, t, k, axis=0)
            + oracle_ladder_matvec(sys.spin_app, t, k, axis=1)).reshape(v.shape)


def oracle_j_bracket(sys, bra, ket, k):
    return complex(np.vdot(bra, oracle_j_matvec(sys, ket, k)))


def oracle_j_means(sys, v):
    return np.array([oracle_j_bracket(sys, v, v, k).real for k in range(3)])


def oracle_matching_residuals(amps, sys):
    targets = np.array([0.5, -0.5j, 0.0], dtype=np.complex128)
    residuals = np.zeros(3, dtype=np.complex128)
    for k in range(3):
        lhs = 0.0 + 0.0j
        if amps.u is not None and amps.u_err is not None:
            lhs += amps.C * amps.F * oracle_j_bracket(sys, amps.u.amplitudes, amps.u_err.amplitudes, k)
        if amps.d is not None and amps.d_err is not None:
            lhs += amps.E * amps.D * oracle_j_bracket(sys, amps.d.amplitudes, amps.d_err.amplitudes, k)
        residuals[k] = lhs - targets[k]
    return residuals


def oracle_sector_bracket(sys, bra, ket):
    """[<bra|Jx|ket>, <bra|Jy|ket>, <bra|Jz|ket>] of kron-layout amplitudes, by the per-sector loop.

    Sector k holds the slots (|up, m>, |down, m + 1>), m = L - k.  J+ takes
    sector k + 1 into sector k through the stack's 2x2 block R_k, so
    <x|J+|y> adds x_k^dag R_k y_(k+1) and <x|J-|y> is the conjugate of
    <y|J+|x>; Jz reads each slot's total Jz.  Each component is summed
    sector by sector, in sector order from 0j.
    """
    x, y = (dense_oracle.to_sectors(v).tolist() for v in (bra, ket))
    up, jz = sys.stack.up.tolist(), sys.stack.jz.tolist()

    def raised(a, b, k):   # a_k^dag R_k b_(k+1)
        rb = [up[s][0][k] * b[k + 1][0] + up[s][1][k] * b[k + 1][1] for s in range(2)]
        return rb[0] * a[k][0].conjugate() + rb[1] * a[k][1].conjugate()

    total = [0j, 0j, 0j]
    for k in range(len(x)):
        if k + 1 < len(x):
            plus, minus = raised(x, y, k), raised(y, x, k).conjugate()
            total[0] += (plus + minus) / 2
            total[1] += (plus - minus) / 2j
        total[2] += x[k][0].conjugate() * jz[0][k] * y[k][0] + x[k][1].conjugate() * jz[1][k] * y[k][1]
    return total


def oracle_sector_residuals(amps, sys):
    """The matching residuals of `oracle_matching_residuals`, from `oracle_sector_bracket`."""
    targets = np.array([0.5, -0.5j, 0.0], dtype=np.complex128)
    lhs = [0j, 0j, 0j]
    for weight, bra, ket in ((amps.C * amps.F, amps.u, amps.u_err), (amps.E * amps.D, amps.d, amps.d_err)):
        if bra is not None and ket is not None:
            brackets = oracle_sector_bracket(sys, bra.amplitudes, ket.amplitudes)
            lhs = [total + weight * bracket for total, bracket in zip(lhs, brackets)]
    return np.array(lhs) - targets


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    # array_equal counts -0.0 == +0.0; the bit patterns do not
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def signed_zero_vector(rng, n):
    """A random complex vector with a third of its parts set to +-0.0."""
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    parts = v.view(np.float64).copy()
    zeros = rng.random(parts.size) < 1 / 3
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    return parts.view(np.complex128)


def test_signed_zero_vector_holds_both_zeros():
    parts = signed_zero_vector(np.random.default_rng(0), 64).view(np.float64)
    assert np.signbit(parts[parts == 0.0]).any() and not np.signbit(parts[parts == 0.0]).all()


@pytest.fixture(scope="module", params=[(L, tilt) for L in L_VALUES for tilt in (0.0, 0.4)],
                ids=lambda p: f"L{p[0]:g}-tilt{p[1]:g}")
def device(request):
    L, tilt = request.param
    return sl.build_measurement_unitary(L, tilt=tilt)


def device_vectors(device):
    """Seeded random vectors, one with signed zeros, and both record sectors of
    every premeasured eigenstate and of +x."""
    rng = np.random.default_rng(round(4 * device.L))
    n = device.pa_dim
    vectors = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
    vectors.append(signed_zero_vector(rng, n))
    for a, b in ((1.0, 0.0), (0.0, 1.0), (2 ** -0.5, 2 ** -0.5)):
        final = sl.premeasure(a, b, device).amplitudes.reshape(n, 2)
        vectors += [np.ascontiguousarray(final[:, r]) for r in range(2)]
    return vectors


def test_ladder_matvecs_match_the_per_component_oracle():
    rng = np.random.default_rng(7)
    for j in (0.5, 1, 2.5, 7, 40, 150):
        ops = sl.spin_operators(j)
        vectors = [rng.normal(size=ops.dim) + 1j * rng.normal(size=ops.dim),
                   signed_zero_vector(rng, ops.dim),
                   sl.coherent_spin_state(j, 0.4, 0.0).amplitudes,
                   sl.coherent_spin_state(j, 0.0, 0.0).amplitudes]
        for v in vectors:
            for k, got in enumerate(angular._ladder_matvecs(ops, v)):
                assert_bits_equal(got, oracle_ladder_matvec(ops, v, k))


def test_j_matvecs_match_the_per_component_oracle(device):
    for v in device_vectors(device):
        got = j_matvecs(device, v)
        assert len(got) == 3
        for k in range(3):
            assert_bits_equal(got[k], oracle_j_matvec(device, v, k))


def test_brackets_and_means_match_the_per_component_oracle(device):
    vectors = device_vectors(device)
    for bra, ket in zip(vectors, vectors[1:] + vectors[:1]):
        got = tuple(complex(np.vdot(bra, jv)) for jv in j_matvecs(device, ket))
        want = [oracle_j_bracket(device, bra, ket, k) for k in range(3)]
        assert all(type(b) is complex for b in got)
        assert_bits_equal(np.array(got), np.array(want))
    for v in vectors:
        means = np.array([np.vdot(v, jv).real for jv in j_matvecs(device, v)])
        assert_bits_equal(means, oracle_j_means(device, v))


def test_matching_residuals_match_the_per_component_oracle(device):
    amps = sl.extract_error_amplitudes(device)
    got = sl.verify_matching_equations(device)
    assert_bits_equal(got, oracle_sector_residuals(amps, device))
    # the kron oracle, a second reference, to rounding: each bracket at its
    # own scale, and the residuals at the scale of the terms
    [(terms, _, _)] = apparatus._read_matching(
        device.stack, *apparatus._read_stack(apparatus._EIGENSTATES, device.stack))
    pairs = [(amps.u, amps.u_err), (amps.d, amps.d_err)]
    scale = max(abs(weight * b) for weight, brackets in terms for b in brackets)
    for (weight, brackets), (bra, ket) in zip(terms, [p for p in pairs if None not in p]):
        want_brackets = [oracle_j_bracket(device, bra.amplitudes, ket.amplitudes, k) for k in range(3)]
        assert np.max(np.abs(np.array(brackets) - want_brackets)) <= 1e-14 * max(map(abs, brackets))
    assert np.max(np.abs(got - oracle_matching_residuals(amps, device))) <= 1e-14 * scale


@pytest.mark.parametrize("L", L_VALUES)
def test_measure_row_reads_the_jx_bracket_of_the_matching_terms(L):
    # a measure row takes |<u|Jx|u_err>| from the residual pass's brackets
    device = sl.build_measurement_unitary(L)
    amps = sl.extract_error_amplitudes(device)
    [([(weight, brackets), *_], _, _)] = apparatus._read_matching(
        device.stack, *apparatus._read_stack(apparatus._EIGENSTATES, device.stack))
    assert weight == amps.C * amps.F
    want = abs(oracle_j_bracket(device, amps.u.amplitudes, amps.u_err.amplitudes, 0))
    assert_bits_equal(np.float64(abs(brackets[0])), np.float64(want))
    assert_bits_equal(np.float64(apparatus._read_sweep([L])[0][6]), np.float64(want))


def test_only_the_matching_reader_runs_the_j_pass(monkeypatch):
    # the amplitudes need no brackets: only the matching equations and the
    # branch means pay for a bracket pass beyond premeasure's drift audit,
    # one pass each
    device = sl.build_measurement_unitary(8, tilt=0.4)
    calls = []
    real = apparatus._sector_j_brackets

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(apparatus, "_sector_j_brackets", counted)
    sl.extract_error_amplitudes(device)
    assert len(calls) == 1
    sl.verify_matching_equations(device)
    assert len(calls) == 3
    apparatus._read_branches(0.6, 0.8j, device.stack)
    assert len(calls) == 5


@pytest.mark.parametrize("L", L_VALUES)
def test_bracket_magnitude_matches_the_per_component_oracle(L):
    device = sl.build_measurement_unitary(L)
    amps = sl.extract_error_amplitudes(device)
    want = abs(oracle_j_bracket(device, amps.u.amplitudes, amps.u_err.amplitudes, 0))
    row = sl.bracket_magnitude_scaling([L])[0]
    assert_bits_equal(np.float64(row.bracket_magnitude), np.float64(want))


def test_angular_spread_matches_the_per_component_oracle(device):
    psi = device.apparatus_state.amplitudes
    jx_psi = oracle_ladder_matvec(device.spin_app, psi, 0)
    var = np.vdot(jx_psi, jx_psi).real - np.vdot(psi, jx_psi).real ** 2
    delta_l = math.sqrt(max(var, 0.0))
    assert sl.angular_spread(device.apparatus_state, device.spin_app).delta_l == delta_l
