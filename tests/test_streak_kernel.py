"""The internal streak's banded fold kernel, its exact outputs and its size guard.

A fold is one (1, 4) by (4, N) dot of coefficients formed once per
record letter with the four channel products of a moment matrix's band.
The oracles are the formulas the streak used before: a `np.tensordot` of
the slot Gram matrix with the sliding-window products of a dense moment
matrix, and the whole streak on dense moments (`moment_oracle`).  A
band's products must equal the dense ones cut to the band, and its fold
the tensordot formula on them, bit for bit; in one BLAS thread, every
report must equal the dense streak's bit for bit.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import moment_oracle
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
    weights = moment_oracle.channel_weights(d / 2)
    # slot amplitudes with slot operators, and a whole shot column as the
    # weight fold reads it
    folds = [(_complex(rng, 4, 2), op) for op in
             (None, _complex(rng, 4, 4), np.diag(rng.standard_normal(4)).astype(complex))]
    folds.append((_complex(rng, 18, 2), None))
    xs = [_complex(rng, d + 1, d + 1) for _ in range(2)]
    # a band narrower than the matrix, and one wider
    for w in sorted({2, 9, d + 2}):
        products = ex._band_products(d / 2, w - 1)
        assert products.shape == (2, 2, d, 2 * w - 1)
        inside = (moment_oracle.band(np.ones((d, d)), w - 1) != 0).T   # (column, diagonal)
        assert not products[:, :, ~inside].any()
        bands = np.stack([moment_oracle.band(x, w) for x in xs])
        stack = ex._band_stack(np.empty((8, (d + 1) * (2 * w + 1)), complex), d + 1, w)[:2]
        stack[...] = bands
        # column-major bands as the streak holds them, and row-major
        for y in (stack, bands):
            for x, windows in zip(xs, ex._band_windows(y, products.shape)):
                pairs = windows * products
                # E_p x E_q^dag on the band: the dense products, cut to it
                want_pairs = np.stack([
                    moment_oracle.band(pair, w - 1).T
                    for pair in (sliding_window_view(x, (d, d)) * weights).reshape(4, d, d)
                ]).reshape(pairs.shape)
                assert_bits_equal(pairs[:, :, inside], want_pairs[:, :, inside])
                for amp, op in folds:
                    gram = amp.conj().T @ (amp if op is None else op @ amp)
                    got = ex._band_fold(ex._fold_coefficients(amp, op), pairs).T
                    want = np.tensordot(gram.T, want_pairs, axes=2)
                    assert_bits_equal(got[inside], want[inside])
                    assert not got[~inside].any()
                    # the dense fold's dot splits its columns elsewhere, so
                    # its bits may differ, within the rounding of a
                    # four-term sum
                    dense = moment_oracle.band(oracle_fold(amp, x, weights, op), w - 1).T
                    scale = np.tensordot(np.abs(gram.T), np.abs(want_pairs), axes=2)
                    assert np.all(np.abs(got - dense)[inside]
                                  <= 8 * np.finfo(float).eps * scale[inside])


def _short_cases():
    """Every pattern of n <= 6 at three (L, K), K up to 64."""
    for n in range(1, 7):
        for L, K in [(4, n), (2.5, 2 * n + 0.5), (4, 64)]:
            for pattern in itertools.product("ud", repeat=n):
                yield n, L, K, "".join(pattern)


def _mixed_cases():
    """Six patterns of each 7 <= n <= 12, all-up, all-down and four mixed, at three (L, K)."""
    for n in range(7, 13):
        rng = np.random.default_rng(n)
        patterns = ["u" * n, "d" * n, *("".join(rng.choice(["u", "d"], n)) for _ in range(4))]
        for L, K in [(4, n), (2, 2 * n + 0.5), (4, 64)]:
            for pattern in patterns:
                yield n, L, K, pattern


def one_blas_thread(code: str) -> str:
    """Stdout of `python -c code` in a fresh interpreter with one OpenBLAS thread, as the CLI sets."""
    path = [str(Path(ex.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.mark.parametrize("cases", [_short_cases, _mixed_cases])
def test_reports_equal_the_dense_moments_bit_for_bit(cases):
    # In one BLAS thread, as the CLI runs.  With more, OpenBLAS splits a
    # fold's columns between threads where the column count puts the
    # split, and the columns at a split's edge take another kernel, so a
    # band and a dense fold can differ there by an ulp.
    cases = list(cases())
    code = ("import moment_oracle; "
            f"print(moment_oracle.mismatches({cases!r}))")
    assert one_blas_thread(code) == "[]"


@pytest.mark.parametrize("K", [1000, 1023.5])
def test_a_large_source_streak_is_carried_in_megabytes(K):
    # the dense moments of K = 1000 alone are 8 matrices of 64 MB
    sl.lucky_streak_j2(2, 4, "internal", K=2)   # import and build what every streak shares
    tracemalloc.start()
    try:
        sl.lucky_streak_j2(2, 4, "internal", K=K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


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

