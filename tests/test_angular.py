import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from dense_oracle import spin_matrices
import spinledger as sl
from spinledger.angular import _check_bands, _ladder_matvecs


def test_spin_half_is_pauli_over_two():
    jx, _, jz, _, _ = spin_matrices(sl.spin_operators(0.5))
    assert np.allclose(jz, np.diag([0.5, -0.5]), atol=1e-15)
    assert np.allclose(jx, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)


def test_spin_one_ladder_elements():
    _, _, jz, jplus, _ = spin_matrices(sl.spin_operators(1))
    assert np.allclose(np.diag(jz), [1, 0, -1], atol=1e-15)
    # ladder oracle: <1,1|J+|1,0> = sqrt(j(j+1) - m(m+1)) = sqrt(2)
    assert jplus[0, 1] == pytest.approx(np.sqrt(2), abs=1e-15)


def test_invalid_spin_rejected():
    with pytest.raises(ValueError, match="half-integer"):
        sl.spin_operators(0.7)


def test_jplus_is_jx_plus_i_jy():
    for j in (0.5, 1, 2.5):
        jx, jy, _, jplus, _ = spin_matrices(sl.spin_operators(j))
        assert np.array_equal(jplus, jx + 1j * jy)


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 7.5, 25, 100])
def test_commutation_and_casimir(j):
    jx, jy, jz, _, _ = spin_matrices(sl.spin_operators(j))
    comm = np.max(np.abs(jx @ jy - jy @ jx - 1j * jz))
    # rounding grows with j; everything through j=100 stays below 1e-10
    assert comm <= (1e-12 if j <= 50 else 1e-10)
    casimir = np.max(np.abs(jx @ jx + jy @ jy + jz @ jz - j * (j + 1) * np.eye(jz.shape[0])))
    assert casimir <= 1e-10


# ---------------------------------------------------------------- coherent states

def test_coherent_no_rotation_is_highest_weight():
    psi = sl.coherent_spin_state(3, 0.0, 0.0)
    expect = np.zeros(7)
    expect[0] = 1.0
    assert np.array_equal(psi.amplitudes, expect.astype(complex))


def test_coherent_antipodal_point():
    psi = sl.coherent_spin_state(0.5, np.pi, 0.0)
    dn = sl.StateVector((2,), [0.0, 1.0])
    assert abs(abs(psi.overlap(dn)) - 1.0) <= 1e-12


@pytest.mark.parametrize("j", [0.5, 1, 8])
@pytest.mark.parametrize("theta,phi", [(0.3, 0.0), (1.2, 2.0), (2.5, -0.7)])
def test_coherent_expectation_direction(j, theta, phi):
    psi = sl.coherent_spin_state(j, theta, phi)
    v = psi.amplitudes
    vec = np.array([np.vdot(v, op @ v).real for op in spin_matrices(sl.spin_operators(j))[:3]])
    target = j * np.array([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ])
    assert np.max(np.abs(vec - target)) <= 1e-10


def _rotated_top(j, theta, phi):
    """Dense oracle: exp(-i theta (-sin phi Jx + cos phi Jy)) |j, j>."""
    jx, jy, _, _, _ = spin_matrices(sl.spin_operators(j))
    gen = -np.sin(phi) * jx + np.cos(phi) * jy
    return dense_oracle.expm_hermitian(gen, theta)[:, 0]


@pytest.mark.parametrize("j", [0.5, 1, 2.5, 8, 40, 200])
def test_coherent_closed_form_matches_dense_rotation(j):
    # theta covers both edges, both sides of pi/2 and values outside (0, pi)
    for theta in (0.3, 1.2, np.pi / 2, np.radians(85), 2.5, np.pi, -0.7, 4.0):
        for phi in (0.0, 2.0, -0.7):
            got = sl.coherent_spin_state(j, theta, phi).amplitudes
            want = _rotated_top(j, theta, phi)
            assert np.max(np.abs(got - want)) <= 1e-13, (theta, phi)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=20000).map(lambda two_j: two_j / 2),
    st.floats(min_value=0.0, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_coherent_mean_and_spread_from_the_bands(j, theta, phi):
    s = sl.spin_operators(j)
    psi = sl.coherent_spin_state(j, theta, phi).amplitudes
    mean = [np.vdot(psi, _ladder_matvecs(s, psi)[k]).real for k in range(3)]
    target = j * np.array([np.sin(theta) * np.cos(phi),
                           np.sin(theta) * np.sin(phi),
                           np.cos(theta)])
    assert np.max(np.abs(mean - target)) <= 1e-12 * j
    # at phi = 0 the spread of Jx is sqrt(j/2) |cos theta|; compared as a
    # variance, whose rounding grows as <Jx^2> ~ j^2 eps
    psi0 = sl.coherent_spin_state(j, theta, 0.0).amplitudes
    jx_psi = _ladder_matvecs(s, psi0)[0]
    var = np.vdot(jx_psi, jx_psi).real - np.vdot(psi0, jx_psi).real ** 2
    assert var == pytest.approx(j / 2 * np.cos(theta) ** 2, abs=1e-12 * max(1.0, j * j))


@pytest.mark.parametrize("L", [1, 4, 8])
def test_coherent_transverse_spread(L):
    # direct-expectation oracle: <Lx^2> = L/2 in the aligned coherent state
    psi = sl.coherent_spin_state(L, 0.0, 0.0).amplitudes
    jx = spin_matrices(sl.spin_operators(L))[0]
    jx2 = dense_oracle.check_hermitian(jx @ jx)
    assert np.vdot(psi, jx2 @ psi).real == pytest.approx(L / 2, abs=1e-10)


# ---------------------------------------------------------------- bloch vector

def test_bloch_poles_and_equator():
    assert sl.bloch_vector(1, 0).as_array() == pytest.approx([0, 0, 1])
    r = 1 / np.sqrt(2)
    assert np.allclose(sl.bloch_vector(r, r).as_array(), [1, 0, 0], atol=1e-15)
    assert np.allclose(sl.bloch_vector(r, 1j * r).as_array(), [0, 1, 0], atol=1e-15)


def test_bloch_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        sl.bloch_vector(1.0, 1.0)


def test_bloch_rejects_nan():
    with pytest.raises(ValueError, match="not normalized"):
        sl.bloch_vector(float("nan"), float("nan"))


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_bloch_global_phase_invariance(p, rel, glob):
    a = np.sqrt(p)
    b = np.sqrt(1 - p) * np.exp(1j * rel)
    u1 = sl.bloch_vector(a, b).as_array()
    u2 = sl.bloch_vector(a * np.exp(1j * glob), b * np.exp(1j * glob)).as_array()
    assert np.max(np.abs(u1 - u2)) <= 1e-14
    assert abs(u1 @ u1 - 1.0) <= 1e-12


# ---------------------------------------------------------------- angular spread

def test_angular_spread_aligned_coherent():
    psi = sl.coherent_spin_state(8, 0.0, 0.0)
    s = sl.spin_operators(8)
    spread = sl.angular_spread(psi, s)
    assert spread.delta_l == pytest.approx(2.0, abs=1e-10)       # sqrt(L/2)
    assert spread.delta_theta == pytest.approx(0.25, abs=1e-10)  # 1/sqrt(2L)


def test_angular_spread_definitional_identity():
    psi = sl.coherent_spin_state(5, 0.4, 1.0)
    s = sl.spin_operators(5)
    spread = sl.angular_spread(psi, s)
    jz = np.vdot(psi.amplitudes, spin_matrices(s)[2] @ psi.amplitudes).real
    assert spread.delta_theta == pytest.approx(spread.delta_l / jz, abs=1e-12)


def test_angular_spread_rejects_downward_state():
    psi = sl.coherent_spin_state(3, np.pi, 0.0)
    with pytest.raises(ValueError, match="orientation undefined"):
        sl.angular_spread(psi, sl.spin_operators(3))


# ---------------------------------------------------------------- self-check gates

def test_spin_self_check_admits_exact_algebra_at_j_1000():
    # the residuals grow as ~j^2 eps (1.16e-10 here), above the bare
    # operator tolerance but far inside the scaled gates
    s = sl.spin_operators(1000)
    assert s.dim == 2001


@pytest.mark.parametrize("j", [2, 50])
def test_spin_self_check_trips_on_perturbed_algebra(j):
    s = sl.spin_operators(j)
    _check_bands(float(j), s.m, s.raising)
    for band in ("m", "raising"):
        bands = {"m": s.m.copy(), "raising": s.raising.copy()}
        bands[band][0] += 1e-6
        with pytest.raises(ValueError, match="self-check"):
            _check_bands(float(j), bands["m"], bands["raising"])
    # exact bands checked against the wrong j(j+1) trip the Casimir gate alone
    with pytest.raises(ValueError, match="self-check"):
        _check_bands(j + 1e-6, s.m, s.raising)
