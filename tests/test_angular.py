import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinledger as sl
from spinledger.angular import _check_algebra


def test_spin_half_is_pauli_over_two():
    s = sl.spin_operators(0.5)
    assert np.allclose(s.jz.entries, np.diag([0.5, -0.5]), atol=1e-15)
    assert np.allclose(s.jx.entries, np.array([[0, 0.5], [0.5, 0]]), atol=1e-15)


def test_spin_one_ladder_elements():
    s = sl.spin_operators(1)
    assert np.allclose(np.diag(s.jz.entries), [1, 0, -1], atol=1e-15)
    # ladder oracle: <1,1|J+|1,0> = sqrt(j(j+1) - m(m+1)) = sqrt(2)
    assert s.jplus.entries[0, 1] == pytest.approx(np.sqrt(2), abs=1e-15)


def test_invalid_spin_rejected():
    with pytest.raises(ValueError, match="half-integer"):
        sl.spin_operators(0.7)


def test_jplus_is_jx_plus_i_jy():
    for j in (0.5, 1, 2.5):
        s = sl.spin_operators(j)
        assert np.array_equal(s.jplus.entries, s.jx.entries + 1j * s.jy.entries)


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 7.5, 25, 100])
def test_commutation_and_casimir(j):
    s = sl.spin_operators(j)
    comm = np.max(np.abs(
        s.jx.entries @ s.jy.entries - s.jy.entries @ s.jx.entries
        - 1j * s.jz.entries
    ))
    # rounding grows with j; everything through j=100 stays below 1e-10
    assert comm <= (1e-12 if j <= 50 else 1e-10)
    casimir = np.max(np.abs(
        s.jx.entries @ s.jx.entries + s.jy.entries @ s.jy.entries
        + s.jz.entries @ s.jz.entries - j * (j + 1) * np.eye(s.dim)
    ))
    assert casimir <= 1e-10


# ---------------------------------------------------------------- coherent states

def test_coherent_no_rotation_is_highest_weight():
    psi = sl.coherent_spin_state(3, 0.0, 0.0)
    expect = np.zeros(7)
    expect[0] = 1.0
    assert np.array_equal(psi.amplitudes, expect.astype(complex))


def test_coherent_antipodal_point():
    psi = sl.coherent_spin_state(0.5, np.pi, 0.0)
    dn = sl.basis_state((2,), (1,))
    assert abs(abs(psi.overlap(dn)) - 1.0) <= 1e-12


@pytest.mark.parametrize("j", [0.5, 1, 8])
@pytest.mark.parametrize("theta,phi", [(0.3, 0.0), (1.2, 2.0), (2.5, -0.7)])
def test_coherent_expectation_direction(j, theta, phi):
    psi = sl.coherent_spin_state(j, theta, phi)
    s = sl.spin_operators(j)
    vec = np.array([sl.expectation(psi, op).real for op in (s.jx, s.jy, s.jz)])
    target = j * np.array([
        np.sin(theta) * np.cos(phi),
        np.sin(theta) * np.sin(phi),
        np.cos(theta),
    ])
    assert np.max(np.abs(vec - target)) <= 1e-10


@pytest.mark.parametrize("L", [1, 4, 8])
def test_coherent_transverse_spread(L):
    # direct-expectation oracle: <Lx^2> = L/2 in the aligned coherent state
    psi = sl.coherent_spin_state(L, 0.0, 0.0)
    s = sl.spin_operators(L)
    jx2 = sl.Operator(s.jx.entries @ s.jx.entries, hermitian=True)
    assert sl.expectation(psi, jx2).real == pytest.approx(L / 2, abs=1e-10)


# ---------------------------------------------------------------- bloch vector

def test_bloch_poles_and_equator():
    assert sl.bloch_vector(1, 0).as_array() == pytest.approx([0, 0, 1])
    r = 1 / np.sqrt(2)
    assert np.allclose(sl.bloch_vector(r, r).as_array(), [1, 0, 0], atol=1e-15)
    assert np.allclose(sl.bloch_vector(r, 1j * r).as_array(), [0, 1, 0], atol=1e-15)


def test_bloch_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        sl.bloch_vector(1.0, 1.0)


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
    jz = sl.expectation(psi, s.jz).real
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
    jx = s.jx.entries.copy()
    jx[0, 1] += 1e-6
    with pytest.raises(ValueError, match="self-check"):
        _check_algebra(float(j), jx, s.jy.entries, s.jz.entries)


@pytest.mark.parametrize("j", [2, 50])
@pytest.mark.parametrize("axis,cell", [("jx", (0, 3)), ("jy", (3, 0)), ("jz", (0, 1))])
def test_spin_self_check_trips_off_the_band(j, axis, cell):
    # the residuals are read from the diagonals, so an entry off the band
    # must be caught by the band scan itself
    s = sl.spin_operators(j)
    mats = {name: getattr(s, name).entries.copy() for name in ("jx", "jy", "jz")}
    mats[axis][cell] += 1e-6
    with pytest.raises(ValueError, match="self-check.*off the band"):
        _check_algebra(float(j), mats["jx"], mats["jy"], mats["jz"])
