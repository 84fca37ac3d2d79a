"""The internal streak's fold kernel, its exact outputs and its size guard.

A fold is one (1, 4) by (4, d*d) dot of coefficients formed once per
record letter with the four channel products of a moment matrix.  The
oracle is the formula the streak used before, a `np.tensordot` of the
slot Gram matrix with the sliding-window products; the two must agree
bit for bit, and so must the reports built on them.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import spinledger as sl
import spinledger.experiments as ex
from spinledger.cli import main


def oracle_fold(amp, x, weights, op=None):
    """The tensordot fold: sum_{s,s'} op[s', s] M_s x M_s'^dag."""
    d = weights.shape[-1]
    gram = amp.conj().T @ (amp if op is None else op @ amp)
    return np.tensordot(gram.T, sliding_window_view(x, (d, d)) * weights, axes=2)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [3, 33, 201])
def test_fold_equals_the_tensordot_formula_bit_for_bit(d):
    rng = np.random.default_rng(d)
    weights = ex._channel_weights(d / 2)
    assert weights.shape == (2, 2, d, d)
    # slot amplitudes with slot operators, and a whole shot column as the
    # weight fold reads it
    folds = [(_complex(rng, 4, 2), op) for op in
             (None, _complex(rng, 4, 4), np.diag(rng.standard_normal(4)).astype(complex))]
    folds.append((_complex(rng, 18, 2), None))
    x = _complex(rng, d + 1, d + 1)
    for moment in (x, x.T):   # a strided view as well as a contiguous matrix
        pairs = ex._channel_pairs(moment, weights)
        assert_bits_equal(pairs, (sliding_window_view(moment, (d, d)) * weights)
                          .reshape(4, d * d))
        for amp, op in folds:
            got = ex._fold(ex._fold_coefficients(amp, op), pairs)
            assert_bits_equal(got, oracle_fold(amp, moment, weights, op))


# lucky_streak_j2(4, L, "internal", K=9, pattern) as reported by the
# tensordot kernel, each float spelled by repr
TENSORDOT_REPORTS = {
    (4, "udud"): (
        (90.00000000000001, 83.55373094474277, 74.89631978764363, 69.27984981431464,
         61.43955739750409),
        (0.7353594537514173, 0.824248342640306, 0.9353594537514169, 1.024248342640306,
         1.1353594537514171),
        (0.7353594537514173, 0.7353594537514176, 0.7353594537514159, 0.7353594537514141,
         0.7353594537514141),
        (0.5555555555555556, 0.44444444444444436, 0.5555555555555556, 0.44444444444444425),
    ),
    (4, "dduu"): (
        (90.00000000000001, 80.53916486930446, 71.1030210966336, 66.25356043069527,
         61.439557397504096),
        (0.7353594537514173, 0.8464705648625284, 0.9575816759736394, 1.046470564862528,
         1.1353594537514171),
        (0.7353594537514173, 0.7353594537514176, 0.7353594537514176, 0.7353594537514159,
         0.7353594537514141),
        (0.4444444444444444, 0.4444444444444443, 0.5555555555555556, 0.5555555555555555),
    ),
    (2.5, "udud"): (
        (90.00000000000001, 84.31342413209221, 75.72049211285953, 70.80369883496778,
         62.978733042823094),
        (0.7353594537514173, 0.854407072799036, 1.021073739465703, 1.1401213585133219,
         1.3067880251799888),
        (0.7353594537514173, 0.7353594537514172, 0.7353594537514176, 0.7353594537514159,
         0.7353594537514176),
        (0.5833333333333334, 0.41666666666666663, 0.5833333333333333, 0.4166666666666666),
    ),
    (2.5, "dduu"): (
        (90.00000000000001, 80.67642703083237, 71.40840961722031, 67.16877342364822,
         62.97873304282307),
        (0.7353594537514173, 0.9020261204180836, 1.06869278708475, 1.1877404061323695,
         1.306788025179988),
        (0.7353594537514173, 0.7353594537514168, 0.7353594537514159, 0.7353594537514176,
         0.7353594537514176),
        (0.41666666666666674, 0.4166666666666666, 0.5833333333333331, 0.5833333333333333),
    ),
}


@pytest.mark.parametrize("L,pattern", TENSORDOT_REPORTS)
def test_mixed_patterns_reproduce_the_tensordot_reports(L, pattern):
    report = sl.lucky_streak_j2(4, L, "internal", K=9, pattern=pattern)
    j2, jz, ledger, weights = TENSORDOT_REPORTS[L, pattern]
    assert report.postselected_j2 == j2
    assert report.postselected_jz == jz
    assert report.combined_jz_ledger == ledger
    assert report.step_weights == weights
    assert report.j2_band == (min(j2), max(j2))


class Admitted(Exception):
    """Raised in place of the first allocation of an admitted streak."""


@pytest.fixture
def no_allocation(monkeypatch):
    """Stop an internal streak at its device build, before any moment matrix exists."""
    def stop(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(ex, "build_measurement_unitary", stop)
    monkeypatch.setattr(ex, "prepare_internal_source", stop)


@pytest.mark.parametrize("K,admitted", [(1000, True), (1023.5, True), (1024, False),
                                        (10**4, False)])
def test_source_size_guard_at_the_default_budget(K, admitted, no_allocation):
    if admitted:
        with pytest.raises(Admitted):
            sl.lucky_streak_j2(2, 4, "internal", K=K)
    else:
        with pytest.raises(ValueError, match="maximum total dimension 1048576"):
            sl.lucky_streak_j2(2, 4, "internal", K=K)


def test_oversize_source_is_refused_before_it_allocates(monkeypatch, no_allocation, capsys):
    monkeypatch.setattr(sl.NUMERICS, "max_total_dim", 256)
    # (2K+1)^2 = 33^2 = 1089 > 4 x 256; 31^2 = 961 is admitted
    code = main(["streak", "--mode", "internal", "--n", "2", "--K", "16", "--L", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert "33-square" in err and "4 x the configured maximum total dimension 256" in err
    with pytest.raises(Admitted):
        sl.lucky_streak_j2(2, 4, "internal", K=15)

