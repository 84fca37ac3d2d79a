"""The stacked premeasure pass and the sector-layout audits it reads.

`_premeasure_all` premeasures a list of spinors on one device in one
sector pass, and `premeasure` is its one-input case.  Its records must be
bit-identical to the kron-layout arithmetic they replaced (one einsum per
projector on each input's sectors), its drift audit reads <J> from the J+
blocks and the slot Jz, and the drift is gated input by input.  The build
audits P+ and P- as one stack; both passes go `_SECTOR_CHUNK` sectors at a
time, so every audit is also run here with chunks of a few sectors.
"""

import dataclasses

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger import apparatus

R2 = 1 / np.sqrt(2)


def kron_layout_records(a, b, sys_m):
    """The premeasured amplitudes by the per-input kron-layout arithmetic."""
    psi = np.kron(np.array([a, b], dtype=np.complex128), sys_m.apparatus_state.amplitudes)
    sec = apparatus._to_sectors(psi)
    by_record = []
    for p in (sys_m.plus_blocks, sys_m.minus_blocks):
        rec = np.einsum("kab,kb->ka", p, sec)
        by_record.append(np.concatenate([rec[:-1, 0], rec[1:, 1]]))   # phantoms dropped
    return np.stack(by_record, axis=1).reshape(-1)


def spinors_for(L, tilt):
    rng = np.random.default_rng(round(8 * L) + round(10 * tilt))
    spinors = [(1.0, 0.0), (0.0, 1.0)]
    for _ in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        spinors.append(tuple(complex(x) for x in v / np.linalg.norm(v)))
    return spinors


@pytest.mark.parametrize("tilt", [0.0, 0.4, 1.2])
@pytest.mark.parametrize("L", [0.5, 1, 2.5, 16.5, 160, 1000])
def test_stacked_pass_gives_the_bits_of_one_input_premeasure(L, tilt):
    sys_m = sl.build_measurement_unitary(L, tilt=tilt)
    spinors = spinors_for(L, tilt)
    stacked = apparatus._premeasure_all(spinors, sys_m)
    assert len(stacked) == len(spinors)
    for (a, b), final in zip(spinors, stacked):
        assert final.dims == sys_m.dims
        one = sl.premeasure(a, b, sys_m).amplitudes
        assert final.amplitudes.tobytes() == one.tobytes()
        assert final.amplitudes.tobytes() == kron_layout_records(a, b, sys_m).tobytes()


@pytest.mark.parametrize("chunk", [2, 5])
def test_chunked_passes_give_the_same_records(monkeypatch, chunk):
    # L = 7.5 has 17 sectors, so a chunk of 2 or 5 sectors leaves a short last chunk
    sys_m = sl.build_measurement_unitary(7.5, tilt=0.4)
    spinors = spinors_for(7.5, 0.4)
    whole = apparatus._premeasure_all(spinors, sys_m)
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    chunked = apparatus._premeasure_all(spinors, sl.build_measurement_unitary(7.5, tilt=0.4))
    for w, c in zip(whole, chunked):
        assert w.amplitudes.tobytes() == c.amplitudes.tobytes()


def sector_stack(vectors):
    """Kron-layout particle (x) apparatus kets as one slot-major (s, 2, d+1) sector stack."""
    return np.stack([apparatus._to_sectors(v).T for v in vectors])


@pytest.mark.parametrize("chunk", [3, 4096])
@pytest.mark.parametrize("L", [0.5, 1, 2.5, 7, 16.5])
def test_sector_j_means_match_the_dense_j(monkeypatch, L, chunk):
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    sys_m = sl.build_measurement_unitary(L)
    j_dense = dense_oracle.j_pa(sys_m)
    rng = np.random.default_rng(round(4 * L))
    n = 2 * sys_m.dims[1]
    vectors = [v / np.linalg.norm(v)
               for v in (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3))]
    dense = np.array([[np.vdot(v, jk @ v).real for jk in j_dense] for v in vectors])
    tol = 1e-12 * max(1.0, L)
    kets = sector_stack(vectors)
    for s, want in enumerate(dense):
        weights = np.zeros(len(vectors))
        weights[s] = 1.0
        got = apparatus._sector_j_means(kets, weights, sys_m.raising_blocks, sys_m.slot_jz)
        assert np.max(np.abs(got - want)) <= tol
    # a weighted stack gives the weighted sum, and leading axes are kept apart
    weights = np.array([1.0, 1.0, -1.0])
    got = apparatus._sector_j_means(kets[None], weights, sys_m.raising_blocks, sys_m.slot_jz)
    assert got.shape == (1, 3)
    assert np.max(np.abs(got[0] - weights @ dense)) <= tol


def ideal_device():
    """A device whose projector is diag(1, 0) on the (up, down) slots of every sector.

    It records the particle's z spin alone, so it loses the transverse
    <Jx> of the particle: -1/2 for a +x input and +1/2 for a -x input.
    """
    sys_m = sl.build_measurement_unitary(2)
    up = np.zeros_like(sys_m.plus_blocks)
    up[:, 0, 0] = 1.0
    return dataclasses.replace(sys_m, plus_blocks=up, minus_blocks=np.eye(2) - up)


@pytest.mark.parametrize("chunk", [2, 4096])
@pytest.mark.parametrize("spinors", [
    pytest.param([(R2, R2), (R2, -R2)], id="opposite-drifts"),
    pytest.param([(1.0, 0.0), (R2, R2)], id="eigenstate-first"),
])
def test_drift_is_gated_input_by_input(monkeypatch, spinors, chunk):
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    ideal = ideal_device()
    with pytest.raises(sl.ConservationError, match="Jx> drifted"):
        apparatus._premeasure_all(spinors, ideal)


def test_opposite_drifts_cancel_in_a_sum():
    # why the gate is per input: summed over the stack, +x and -x drift by 0
    ideal = ideal_device()
    app = ideal.apparatus_state.amplitudes
    kets = np.zeros((2, 3, 2, app.size + 1), dtype=np.complex128)
    for i, (a, b) in enumerate([(R2, R2), (R2, -R2)]):
        kets[i, 2] = apparatus._to_sectors(np.kron([a, b], app)).T
        for r, p in enumerate((ideal.plus_blocks, ideal.minus_blocks)):
            kets[i, r] = np.einsum("kab,bk->ak", p, kets[i, 2])
    drift = apparatus._sector_j_means(kets, apparatus._DRIFT_WEIGHTS,
                                      ideal.raising_blocks, ideal.slot_jz)
    assert drift[:, 0] == pytest.approx([-0.5, 0.5], abs=1e-14)
    assert abs(drift[:, 0].sum()) <= 1e-14


def test_premeasure_is_the_one_input_case(monkeypatch):
    sys_m = sl.build_measurement_unitary(3, tilt=0.4)
    calls = []
    real = apparatus._premeasure_all

    def spy(spinors, sys):
        calls.append(list(spinors))
        return real(spinors, sys)

    monkeypatch.setattr(apparatus, "_premeasure_all", spy)
    sl.premeasure(0.6, 0.8j, sys_m)
    sl.extract_error_amplitudes(sys_m)
    assert calls == [[(0.6, 0.8j)], [(1.0, 0.0), (0.0, 1.0)]]


def local_rotation(sector):
    """_sector_projectors with P+ and P- conjugated by a particle z rotation in one sector.

    The pair stays complementary projectors of unchanged rank that commute
    with Jz, but [P, J+] no longer vanishes between `sector` and its
    neighbours, so only the chunks holding those sector pairs can see it.
    """
    real = apparatus._sector_projectors
    sz = dense_oracle.spin_matrices(sl.spin_operators(0.5))[2]
    v = dense_oracle.expm_hermitian(sz, 1e-6)

    def rotated(L):
        blocks = np.array(real(L), dtype=np.complex128)
        blocks[:, sector] = v @ blocks[:, sector] @ v.conj().T
        return blocks
    return rotated


@pytest.mark.parametrize("chunk", [2, 3, 4096])
@pytest.mark.parametrize("sector", [1, 2, 3, 4])
def test_build_audit_sees_every_sector_pair_in_chunks(monkeypatch, chunk, sector):
    # L = 2 has 6 sectors, 0 .. 5, and the edge ones are 1x1, which a z
    # rotation leaves alone; the chunks of 2 and 3 split them unevenly
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    sl.build_measurement_unitary(2)
    monkeypatch.setattr(apparatus, "_sector_projectors", local_rotation(sector))
    with pytest.raises(sl.ConservationError, match="does not conserve Jx"):
        sl.build_measurement_unitary(2)


def test_projectors_match_the_identity_complement():
    # P- is spelled 0 - P+ plus 1 on the real slots: the bits of 1 - P+
    for L in (0.5, 3, 40.5):
        plus, minus = apparatus._sector_projectors(L)
        want = apparatus._sector_identity(round(2 * L + 1)) - plus
        assert minus.tobytes() == want.tobytes()
