import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinledger as sl
from spinledger.ideal import ViolationKind


def random_spinor(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


# ---------------------------------------------------------------- forced cross terms

def test_forced_cross_terms_equal_weights():
    r = 1 / np.sqrt(2)
    br = sl.ideal_forced_cross_terms(r, r)
    assert br.cross_x == pytest.approx(0.5, abs=1e-15)
    assert br.cross_y == pytest.approx(-0.5j, abs=1e-15)
    assert br.cross_z == 0
    assert br.max_residual <= 1e-12


def test_forced_cross_terms_generic_and_complex_spinors():
    for a, b in [(0.6, 0.8), (1 / np.sqrt(2), 1j / np.sqrt(2))]:
        br = sl.ideal_forced_cross_terms(a, b)
        # same cross values regardless of the spinor
        assert br.cross_x == pytest.approx(0.5, abs=1e-15)
        assert br.cross_y == pytest.approx(-0.5j, abs=1e-15)
        assert br.max_residual <= 1e-12


def test_forced_cross_terms_refuse_nan():
    # a nan norm fails the spinor gate instead of passing as "audited"
    with pytest.raises(ValueError, match="not normalized"):
        sl.ideal_forced_cross_terms(float("nan"), float("nan"))


def test_forced_cross_terms_need_both_coefficients():
    with pytest.raises(ValueError, match="underdetermined"):
        sl.ideal_forced_cross_terms(1.0, 0.0)
    with pytest.raises(ValueError, match="underdetermined"):
        sl.ideal_forced_cross_terms(0.0, 1.0)


def test_forced_cross_terms_random_spinors():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a, b = random_spinor(rng)
        if abs(a) < 1e-6 or abs(b) < 1e-6:
            continue
        assert sl.ideal_forced_cross_terms(a, b).max_residual <= 1e-12


# ---------------------------------------------------------------- weighted average

def test_weighted_average_single_branch():
    v = np.array([0.1, -0.2, 0.3])
    assert np.allclose(sl.weighted_branch_average([(1.0, v)]), v)


def test_weighted_average_equal_split():
    r = 1 / np.sqrt(2)
    avg = sl.weighted_branch_average([
        (r, np.array([0, 0, 0.5])),
        (r, np.array([0, 0, -0.5])),
    ])
    assert np.max(np.abs(avg)) <= 1e-12


def test_weighted_average_generic_weights():
    avg = sl.weighted_branch_average([
        (0.6, np.array([0, 0, 0.5])),
        (0.8, np.array([0, 0, -0.5])),
    ])
    # 0.36 * 0.5 - 0.64 * 0.5
    assert np.allclose(avg, [0, 0, -0.14], atol=1e-12)


def test_weighted_average_requires_normalized_coefficients():
    with pytest.raises(ValueError, match="not normalized"):
        sl.weighted_branch_average([(1.0, np.zeros(3)), (0.5, np.zeros(3))])


# ---------------------------------------------------------------- classifier

def test_classifier_type_ii_on_ideal_data():
    # a = b = 1/sqrt2 measuring Jx in the ideal account: both branch
    # values vanish and the initial 1/2 lives entirely in the cross term
    r = 1 / np.sqrt(2)
    a = b = complex(r)
    brackets = sl.ideal_forced_cross_terms(a, b)
    cross = a.conjugate() * b * brackets.cross()
    report = sl.classify_violation(
        initial=[0.5, 0.0, 0.0],
        branches=[(a, brackets.diag_u), (b, brackets.diag_d)],
        cross_contribution=cross,
        labels=["up", "dn"],
    )
    assert report.kind is ViolationKind.TYPE_II


def test_classifier_type_i_on_branch_split_data():
    r = 1 / np.sqrt(2)
    report = sl.classify_violation(
        initial=[0, 0, 0],
        branches=[(r, [0, 0, 0.5]), (r, [0, 0, -0.5])],
        cross_contribution=np.zeros(3, dtype=complex),
    )
    assert report.kind is ViolationKind.TYPE_I


def test_classifier_no_violation_when_branches_agree():
    r = 1 / np.sqrt(2)
    report = sl.classify_violation(
        initial=[0, 0, 0.25],
        branches=[(r, [0, 0, 0.25]), (r, [0, 0, 0.25])],
        cross_contribution=np.zeros(3, dtype=complex),
    )
    assert report.kind is ViolationKind.NO_VIOLATION


def test_classifier_rejects_inconsistent_books():
    r = 1 / np.sqrt(2)
    with pytest.raises(sl.ConservationError, match="inconsistent bookkeeping"):
        sl.classify_violation(
            initial=[1.0, 0, 0],
            branches=[(r, [0, 0, 0.5]), (r, [0, 0, -0.5])],
            cross_contribution=np.zeros(3, dtype=complex),
        )


def test_weighted_average_rejects_a_nan_coefficient():
    with pytest.raises(ValueError, match="not normalized"):
        sl.weighted_branch_average([(float("nan"), np.zeros(3)), (0.5, np.zeros(3))])


def test_classifier_rejects_a_nan_branch_value():
    # a nan value makes the audit nan, which must fail the gate, not pass it
    r = 1 / np.sqrt(2)
    with pytest.raises(sl.ConservationError, match="inconsistent bookkeeping"):
        sl.classify_violation(
            initial=[0, 0, 0],
            branches=[(r, [float("nan"), 0, 0]), (r, [0, 0, 0])],
            cross_contribution=np.zeros(3, dtype=complex),
        )


def test_classifier_rejects_bad_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        sl.classify_violation([0, 0, 0], [(1.0, [0, 0, 0])],
                              np.zeros(3, dtype=complex), tolerance=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
)
def test_classifier_total_and_single_class(seed, n_branches, with_cross):
    # build a consistent input by construction, then require exactly one class
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_branches))
    coeffs = np.sqrt(weights)
    values = rng.normal(size=(n_branches, 3))
    cross = (rng.normal(size=3) + 1j * rng.normal(size=3)) * (0.1 if with_cross else 0.0)
    initial = weights @ values + 2 * np.real(cross)
    report = sl.classify_violation(
        initial, list(zip(coeffs, values)), cross)
    assert report.kind in (ViolationKind.NO_VIOLATION, ViolationKind.TYPE_I,
                           ViolationKind.TYPE_II)
    if with_cross and np.linalg.norm(cross) > report.tolerance:
        assert report.kind is ViolationKind.TYPE_II
