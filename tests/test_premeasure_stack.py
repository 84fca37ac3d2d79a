"""The stacked premeasure pass and the sector-layout audits it reads.

`_premeasure_stack` premeasures a list of spinors on a device's
one-device `_SectorStack` (`CompositeSystem.stack`) in one sector pass
and returns sector kets; `premeasure` is its one-input case, gathered
into the kron layout by `_to_kron`.  Its records must be bit-identical to
the kron-layout arithmetic they replaced (one einsum per projector on
each input's sectors), its drift audit reads <J> from the stack's J+
blocks and slot Jz (`_sector_j_brackets`, which also reads the brackets
of two kets), and the drift is gated input by input.
The build audits P+ and P- as one stack; both passes go `_SECTOR_CHUNK`
sectors at a time, so every audit is also run here with chunks of a few
sectors.
"""

import dataclasses

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger import apparatus

R2 = 1 / np.sqrt(2)


def premeasure_all(spinors, sys_m):
    """Each (a, b) of spinors premeasured on one device, in one stacked pass."""
    return [sl.StateVector(sys_m.dims, np.moveaxis(apparatus._to_kron(kets), 0, -1))
            for kets in apparatus._premeasure_stack(spinors, sys_m.stack)[:, :2]]


def sector_blocks(sys_m):
    """P+ and P- of a device as (2L+2, 2, 2) block stacks."""
    return sys_m.stack.blocks.transpose(2, 3, 0, 1)


def kron_layout_records(a, b, sys_m):
    """The premeasured amplitudes by the per-input kron-layout arithmetic."""
    psi = np.kron(np.array([a, b], dtype=np.complex128), sys_m.apparatus_state.amplitudes)
    sec = dense_oracle.to_sectors(psi)
    by_record = []
    for p in sector_blocks(sys_m):
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
    stacked = premeasure_all(spinors, sys_m)
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
    whole = premeasure_all(spinors, sys_m)
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    chunked = premeasure_all(spinors, sl.build_measurement_unitary(7.5, tilt=0.4))
    for w, c in zip(whole, chunked):
        assert w.amplitudes.tobytes() == c.amplitudes.tobytes()


def sector_stack(vectors):
    """Kron-layout particle (x) apparatus kets as one slot-major (s, 2, d+1) sector stack."""
    return np.stack([dense_oracle.to_sectors(v).T for v in vectors])


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
        got = apparatus._sector_j_brackets(kets, kets, weights, sys_m.stack)[0].real
        assert np.max(np.abs(got - want)) <= tol
    # a weighted stack gives the weighted sum, and leading axes are kept apart
    weights = np.array([1.0, 1.0, -1.0])
    got = apparatus._sector_j_brackets(kets[None], kets[None], weights, sys_m.stack)[..., 0, :]
    assert got.shape == (1, 3)
    assert np.max(np.abs(got[0].real - weights @ dense)) <= tol


@pytest.mark.parametrize("chunk", [3, 4096])
@pytest.mark.parametrize("L", [0.5, 1, 2.5, 7, 16.5])
def test_sector_j_brackets_match_the_dense_j(monkeypatch, L, chunk):
    # <v|J_k|w> of two different kets: J- is read as the conjugate of <w|J+|v>
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    sys_m = sl.build_measurement_unitary(L, tilt=0.4)
    j_dense = dense_oracle.j_pa(sys_m)
    rng = np.random.default_rng(round(4 * L) + 1)
    n = 2 * sys_m.dims[1]
    vectors = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(4)]
    bras, kets = sector_stack(vectors[:2]), sector_stack(vectors[2:])
    dense = np.array([[np.vdot(v, jk @ w) for jk in j_dense]
                      for v, w in zip(vectors[:2], vectors[2:])])
    tol = 1e-14 * np.max(np.abs(dense))
    got = apparatus._sector_j_brackets(bras[:, None], kets[:, None], np.ones(1), sys_m.stack)[:, 0]
    assert np.max(np.abs(got - dense)) <= tol
    # swapped, each bracket is the conjugate of the other's (J is Hermitian)
    swapped = apparatus._sector_j_brackets(kets[:, None], bras[:, None], np.ones(1), sys_m.stack)[:, 0]
    assert np.max(np.abs(swapped - dense.conj())) <= tol


def ideal_device():
    """A device whose projector is diag(1, 0) on the (up, down) slots of every sector.

    It records the particle's z spin alone, so it loses the transverse
    <Jx> of the particle: -1/2 for a +x input and +1/2 for a -x input.
    """
    sys_m = sl.build_measurement_unitary(2)
    up = np.zeros_like(sector_blocks(sys_m)[0])
    up[:, 0, 0] = 1.0
    blocks = np.stack([up, np.eye(2) - up]).transpose(2, 3, 0, 1)
    return dataclasses.replace(sys_m, stack=sys_m.stack._replace(blocks=blocks))


@pytest.mark.parametrize("chunk", [2, 4096])
@pytest.mark.parametrize("spinors", [
    pytest.param([(R2, R2), (R2, -R2)], id="opposite-drifts"),
    pytest.param([(1.0, 0.0), (R2, R2)], id="eigenstate-first"),
])
def test_drift_is_gated_input_by_input(monkeypatch, spinors, chunk):
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    ideal = ideal_device()
    with pytest.raises(sl.ConservationError, match="Jx> drifted"):
        apparatus._premeasure_stack(spinors, ideal.stack)


def test_opposite_drifts_cancel_in_a_sum():
    # why the gate is per input: summed over the stack, +x and -x drift by 0
    ideal = ideal_device()
    app = ideal.apparatus_state.amplitudes
    kets = np.zeros((2, 3, 2, app.size + 1), dtype=np.complex128)
    for i, (a, b) in enumerate([(R2, R2), (R2, -R2)]):
        kets[i, 2] = dense_oracle.to_sectors(np.kron([a, b], app)).T
        for r, p in enumerate(sector_blocks(ideal)):
            kets[i, r] = np.einsum("kab,bk->ak", p, kets[i, 2])
    drift = apparatus._sector_j_brackets(kets, kets, apparatus._DRIFT_WEIGHTS, ideal.stack)[:, 0].real
    assert drift[:, 0] == pytest.approx([-0.5, 0.5], abs=1e-14)
    assert abs(drift[:, 0].sum()) <= 1e-14


def test_premeasure_is_the_one_input_case(monkeypatch):
    sys_m = sl.build_measurement_unitary(3, tilt=0.4)
    calls = []
    real = apparatus._premeasure_stack

    def spy(spinors, stack):
        calls.append(list(spinors))
        return real(spinors, stack)

    monkeypatch.setattr(apparatus, "_premeasure_stack", spy)
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

    def rotated(spins, offsets, ident):
        blocks = np.array(real(spins, offsets, ident), dtype=np.complex128)
        # the device's sectors, as (P+-, sector, 2, 2) blocks
        device = blocks[..., offsets[0]:offsets[1]].transpose(2, 3, 0, 1)
        device[:, sector] = v @ device[:, sector] @ v.conj().T
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


def one_device_identity(L):
    """The identity of particle (x) apparatus on device L's real slots, 0 on its phantoms."""
    ident = np.zeros((2, 2, round(2 * L + 2)))
    ident[0, 0, :-1] = ident[1, 1, 1:] = 1.0
    return ident


def test_projectors_match_the_identity_complement():
    # P- is spelled ident - P+: the bits of 1 - P+, and of the 0 - P+ plus 1
    # on the real slots that it replaced, with +0 where P+ is 0
    spins = (0.5, 3, 40.5)
    stacked = apparatus._sector_projectors(
        spins, np.cumsum([0] + [round(2 * L + 2) for L in spins]),
        np.concatenate([one_device_identity(L) for L in spins], axis=-1))
    alone = []
    for L in spins:
        ident = one_device_identity(L)
        blocks = apparatus._sector_projectors([L], np.array([0, ident.shape[-1]]), ident)
        plus, minus = blocks[:, :, 0], blocks[:, :, 1]
        want = ident - plus
        assert minus.tobytes() == want.tobytes()
        spelled = 0.0 - plus
        spelled[0, 0, :-1] += 1.0
        spelled[1, 1, 1:] += 1.0
        assert minus.tobytes() == spelled.tobytes()
        alone.append(blocks)
    # the devices filled together give each device's own bits
    assert stacked.tobytes() == np.concatenate(alone, axis=-1).tobytes()
