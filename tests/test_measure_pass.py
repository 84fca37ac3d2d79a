"""A `measure` sweep runs its devices through shared sector passes.

`apparatus._read_sweep` checks every L, then builds the aligned devices
on their level windows in groups whose sectors fit in `_SECTOR_CHUNK`,
and `apparatus._read_pass` audits, premeasures and reads each group
together as one `_SectorStack`.  The oracle is the per-row loop the sweep
replaced: one build, one `extract_error_amplitudes`, the matching terms
by the per-component oracle of `test_j_oracle`, and `angular_spread` per
L.  Every table must come out byte for byte the same, in CSV and in JSON,
whatever the chunk, and an audit that trips in mid-sweep must name its
device.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger import angular, apparatus, cli, kernel
from spinledger.cli import main
from test_j_oracle import oracle_j_bracket, oracle_matching_residuals

SMALL = ",".join(f"{k / 2:g}" for k in range(1, 65))


def oracle_row(L):
    """One `measure` row by the per-device path."""
    device = sl.build_measurement_unitary(L)
    amps = sl.extract_error_amplitudes(device)
    residuals = oracle_matching_residuals(amps, device)
    bracket = oracle_j_bracket(device, amps.u.amplitudes, amps.u_err.amplitudes, 0)
    spread = sl.angular_spread(device.apparatus_state, device.spin_app)
    return [L, amps.C, amps.D, amps.E, amps.F, float(np.max(np.abs(residuals))),
            abs(bracket), spread.delta_l, 1.0 / spread.delta_theta]


def table(tmp_path, l_values, fmt, name):
    path = tmp_path / f"{name}.{fmt}"
    assert main(["measure", "--L", l_values, "--format", fmt, "--output", str(path)]) == 0
    return path.read_bytes()


def oracle_table(tmp_path, monkeypatch, l_values, fmt):
    with monkeypatch.context() as m:
        m.setattr(cli, "_read_sweep", lambda ls: [oracle_row(L) for L in ls])
        return table(tmp_path, l_values, fmt, "oracle")


# a device of any L is a 3-sector window, so each sweep here is one group,
# large devices among small ones
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("l_values", [SMALL, "64,96,128,160", "4,4", "4,4,4", "1,3000,2",
                                      "1,2,2048,3,4", "1,2,3000,2100,0.5,1", SMALL + ",2100,1",
                                      "2048,2049,2050"],
                         ids=["0.5-32", "64-160", "4-4", "4-4-4", "large-between-small",
                              "2048-between-small", "two-large", "0.5-32-then-2100", "2048-2050"])
def test_sweep_gives_the_bytes_of_the_per_row_loop(tmp_path, monkeypatch, l_values, fmt):
    want = oracle_table(tmp_path, monkeypatch, l_values, fmt)
    assert table(tmp_path, l_values, fmt, "pass") == want


@pytest.mark.parametrize("chunk", [2, 5, 12])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_passes_across_chunk_boundaries_give_the_same_bytes(tmp_path, monkeypatch, chunk, fmt):
    # every window is 3 sectors: with a chunk of 12 the devices go in two
    # groups of four, with 5 and 2 one by one, a window split over two
    # chunks of 2
    l_values = "0.5,1,1.5,2,7.5,3,0.5,1"
    want = oracle_table(tmp_path, monkeypatch, l_values, fmt)
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    assert table(tmp_path, l_values, fmt, "pass") == want


def spy_builds(monkeypatch):
    """The spins of every `_build_stack` call, recorded as it is made."""
    stacks = []
    real = apparatus._build_stack
    monkeypatch.setattr(apparatus, "_build_stack",
                        lambda spins, **kw: stacks.append(spins) or real(spins, **kw))
    return stacks


@pytest.mark.parametrize("chunk,groups", [
    (12, [[0.5, 1, 1.5, 2], [7.5, 3000]]),   # four 3-sector windows a group, whatever L
    (5, [[0.5], [1], [1.5], [2], [7.5], [3000]]),
    (2, [[0.5], [1], [1.5], [2], [7.5], [3000]]),   # a window larger than the chunk goes alone
])
def test_bracket_scaling_builds_each_pass_once(monkeypatch, chunk, groups):
    stacks = spy_builds(monkeypatch)
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    rows = sl.bracket_magnitude_scaling([0.5, 1, 1.5, 2, 7.5, 3000])
    assert stacks == groups
    assert [row.L for row in rows] == [0.5, 1, 1.5, 2, 7.5, 3000]
    assert apparatus._read_sweep([]) == []


def test_sweep_groups_consecutive_devices_up_to_the_chunk(monkeypatch):
    # a group holds chunk // 3 windows of 3 sectors, the last group what is left
    stacks = spy_builds(monkeypatch)
    spins = [0.5, 1, 1.5, 2, 7.5, 3, 0.5, 1]
    for chunk, groups in [(12, [[0.5, 1, 1.5, 2], [7.5, 3, 0.5, 1]]),
                          (9, [[0.5, 1, 1.5], [2, 7.5, 3], [0.5, 1]])]:
        stacks.clear()
        monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
        assert [row[0] for row in apparatus._read_sweep(spins)] == spins
        assert stacks == groups
    stacks.clear()
    assert apparatus._read_sweep([]) == [] and stacks == []


def test_a_sweep_checks_every_spin_once_before_it_builds(monkeypatch, capsys):
    stacks = spy_builds(monkeypatch)
    checked = []
    real = apparatus._check_spin
    monkeypatch.setattr(apparatus, "_check_spin", lambda L, *args: checked.append(L) or real(L, *args))
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", 3)   # one device a group
    assert len(apparatus._read_sweep([1, 2, 3])) == 3
    assert checked == [1, 2, 3] and stacks == [[1.0], [2.0], [3.0]]
    checked.clear()
    stacks.clear()
    # the last device is refused before the first is built
    assert main(["measure", "--L", "1,2,300000"]) == 1
    assert "(L = 300000)" in capsys.readouterr().err
    assert checked == [1.0, 2.0, 300000.0] and stacks == []


def device_blocks(blocks, spins, offsets, L):
    """The (P+-, sector, 2, 2) blocks of device L in a stack's projectors, a view, or None."""
    if L not in spins:
        return None
    i = list(spins).index(L)
    return blocks[..., offsets[i]:offsets[i + 1]].transpose(2, 3, 0, 1)


def swapped_at(L_bad):
    """_sector_projectors with P+ and P- swapped for one apparatus spin."""
    real = apparatus._sector_projectors

    def swapped(spins, offsets, ident):
        blocks = np.array(real(spins, offsets, ident))
        device = device_blocks(blocks, spins, offsets, L_bad)
        if device is not None:
            device[...] = device[::-1].copy()
        return blocks
    return swapped


def test_swapped_projectors_in_mid_sweep_exit_two_naming_the_device(monkeypatch, capsys):
    # a swapped pair still conserves every J (and passes every other build
    # audit); its ranks tell the j = L - 1/2 projector from j = L + 1/2
    monkeypatch.setattr(apparatus, "_sector_projectors", swapped_at(96))
    assert main(["measure", "--L", "64,96,128"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "projector rank" in out.err and "(L = 96)" in out.err


def test_swapped_projectors_fail_the_matching_equations():
    # why the swap is a conservation failure: the device conserves J, but
    # the books of the matching equations no longer balance
    device = sl.build_measurement_unitary(3)
    swapped = dataclasses.replace(
        device, stack=device.stack._replace(blocks=device.stack.blocks[:, :, ::-1]))
    with pytest.raises(sl.ConservationError, match=r"matching equations violated.*\(L = 3\)"):
        sl.verify_matching_equations(swapped)


def rotated_at(L_bad):
    """_sector_projectors conjugated by a particle z rotation for one spin: breaks [P, Jx]."""
    real = apparatus._sector_projectors
    sz = dense_oracle.spin_matrices(sl.spin_operators(0.5))[2]
    v = dense_oracle.expm_hermitian(sz, 1e-6)

    def rotated(spins, offsets, ident):
        blocks = np.array(real(spins, offsets, ident), dtype=np.complex128)
        device = device_blocks(blocks, spins, offsets, L_bad)
        if device is not None:
            device[...] = [v @ p @ v.conj().T for p in device]
        return blocks
    return rotated


def test_a_64_device_build_fills_its_stack_in_one_pass(monkeypatch):
    # the bands, the projector blocks and the apparatus states of a sweep
    # are filled for all its devices at once, with no per-device spin
    # algebra, projector call or validated state
    calls = {"spin_operators": 0, "__post_init__": 0, "_sector_projectors": 0}

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(angular, "spin_operators"), (apparatus, "spin_operators"),
                        (kernel.StateVector, "__post_init__"), (apparatus, "_sector_projectors")]:
        spy(owner, name)
    spins = [k / 2 for k in range(1, 65)]
    stack = apparatus._build_stack(spins)
    assert calls == {"spin_operators": 0, "__post_init__": 0, "_sector_projectors": 1}
    assert stack.spins == tuple(spins) and stack.offsets[-1] == sum(2 * L + 2 for L in spins)


def test_a_denormalized_apparatus_state_fails_its_own_device(monkeypatch):
    real = apparatus._coherent_state
    monkeypatch.setattr(apparatus, "_coherent_state",
                        lambda L, *args: real(L, *args) * (1.0 + 1e-9 * (L == 3)))
    with pytest.raises(sl.ConservationError, match=r"state not normalized: .*\(L = 3\)"):
        apparatus._build_stack([2.0, 3.0, 4.0])


@pytest.mark.parametrize("chunk", [4096, 7])
@pytest.mark.parametrize("L_bad", [2.0, 3.0, 4.0])
def test_a_broken_device_is_named_whatever_its_neighbours(monkeypatch, chunk, L_bad):
    # the zero J+ block at each seam links no device to the next, so the
    # devices around a broken one pass, and the error names the broken one
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    monkeypatch.setattr(apparatus, "_sector_projectors", rotated_at(L_bad))
    with pytest.raises(sl.ConservationError, match=rf"conserve Jx.*\(L = {L_bad:g}\)"):
        apparatus._build_stack([2.0, 3.0, 4.0])


def test_a_nan_projector_fails_its_own_device(monkeypatch):
    real = apparatus._sector_projectors

    def with_nan(spins, offsets, ident):
        blocks = np.array(real(spins, offsets, ident))
        device_blocks(blocks, spins, offsets, 3)[0, 0, 0, 0] = np.nan
        return blocks

    monkeypatch.setattr(apparatus, "_sector_projectors", with_nan)
    with pytest.raises(sl.ConservationError, match=r"unitary flag violated: .*nan.*\(L = 3\)"):
        apparatus._build_stack([2.0, 3.0, 4.0])


# ------------------------------------------------------------------ kernels


def matmul_devs(p, ident, raising, jz):
    """[unitarity, idempotence, |[P, Jx]|, |[P, Jz]|] of a (2, n, 2, 2) stack by batched `@`."""
    squares = p @ p
    unitarity = max(np.max(np.abs(squares[0] + squares[1] - ident)),
                    np.max(np.abs(p[0] @ p[1] + p[1] @ p[0])))
    lowering = raising.conj().transpose(0, 2, 1)
    head, tail = p[:, :-1], p[:, 1:]
    transverse = max(np.max(np.abs(head @ raising - raising @ tail)),
                     np.max(np.abs(tail @ lowering - lowering @ head))) / 2
    longitudinal = np.max(np.abs(p * (jz[:, None, :] - jz[:, :, None])))
    return np.array([unitarity, np.max(np.abs(squares - p)), transverse, longitudinal])


@pytest.mark.parametrize("seed", range(4))
def test_written_out_audits_match_batched_matmul_on_any_blocks(seed):
    # general blocks: complex, not Hermitian, not projectors
    rng = np.random.default_rng(seed)
    n = 9
    p = rng.normal(size=(2, n, 2, 2)) + 1j * rng.normal(size=(2, n, 2, 2))
    ident = np.zeros((n, 2, 2))
    ident[:-1, 0, 0] = ident[1:, 1, 1] = 1.0   # one device's real slots, 0 on its phantoms
    raising = rng.normal(size=(n - 1, 2, 2))
    jz = rng.normal(size=(n, 2))
    got = apparatus._stack_devs(p.transpose(2, 3, 0, 1), ident.transpose(1, 2, 0),
                                raising.transpose(1, 2, 0), jz.T).max(axis=1)
    want = matmul_devs(p, ident, raising, jz)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)


def kron_layout_records(a, b, device):
    """Premeasured amplitudes by the per-input einsum over the kron layout."""
    psi = np.kron(np.array([a, b], dtype=np.complex128), device.apparatus_state.amplitudes)
    sec = dense_oracle.to_sectors(psi)
    by_record = []
    for p in device.stack.blocks.transpose(2, 3, 0, 1):   # P+ and P-, (2L+2, 2, 2) each
        rec = np.einsum("kab,kb->ka", p, sec)
        by_record.append(np.concatenate([rec[:-1, 0], rec[1:, 1]]))
    return np.stack(by_record, axis=1)


def test_a_stack_premeasures_each_device_with_its_own_bits():
    spins = [0.5, 7.5, 2, 40]
    stack = apparatus._build_stack(spins, tilt=0.4)
    spinors = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)]
    kets = apparatus._premeasure_stack(spinors, stack)
    assert kets.shape == (3, 3, 2, stack.offsets[-1])
    for L, a, b in zip(spins, stack.offsets, stack.offsets[1:]):
        device = sl.build_measurement_unitary(L, tilt=0.4)
        one = [sl.premeasure(x, y, device) for x, y in spinors]
        for (x, y), sectors, alone in zip(spinors, kets[..., a:b], one):
            # the third slab is the input itself, in sectors
            psi = np.kron(np.array([x, y], dtype=np.complex128), device.apparatus_state.amplitudes)
            assert sectors[2].tobytes() == dense_oracle.to_sectors(psi).T.tobytes()
            sectors = sectors[:2]
            final = np.moveaxis(apparatus._to_kron(sectors), 0, -1).reshape(-1, 2)
            assert final.tobytes() == kron_layout_records(x, y, device).tobytes()
            assert final.tobytes() == alone.amplitudes.tobytes()
            # the kron layout drops exactly the two phantom slots, which hold 0
            assert sectors[:, 1, 0].tolist() == sectors[:, 0, -1].tolist() == [0j, 0j]


@pytest.mark.parametrize("chunk", [4096, 3])
def test_sector_j_means_sum_each_device_apart(monkeypatch, chunk):
    # a chunk of 3 sectors straddles every device seam
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", chunk)
    stack = apparatus._build_stack([1, 2.5, 3], tilt=0.4)
    rng = np.random.default_rng(5)
    kets = rng.normal(size=(2, 3, 2, stack.offsets[-1])) + 1j * rng.normal(size=(2, 3, 2, stack.offsets[-1]))
    for o in stack.offsets[1:-1]:
        kets[..., 1, o] = kets[..., 0, o - 1] = 0.0   # the phantom slots
    weights = np.array([1.0, 1.0, -1.0])
    got = apparatus._sector_j_brackets(kets, kets, weights, stack)
    # brackets of two kets, each term kept apart: the bits of each device alone
    bras = kets[:, ::-1]
    terms = apparatus._sector_j_brackets(bras[0][:, None], kets[0][:, None], np.ones(1), stack)
    for i, (L, a, b) in enumerate(zip(stack.spins, stack.offsets, stack.offsets[1:])):
        device = sl.build_measurement_unitary(L, tilt=0.4)
        alone = apparatus._sector_j_brackets(kets[..., a:b], kets[..., a:b], weights, device.stack)
        assert np.max(np.abs(got[:, i] - alone[:, 0])) <= 1e-12
        one = apparatus._sector_j_brackets(bras[0, :, None, :, a:b], kets[0, :, None, :, a:b],
                                          np.ones(1), device.stack)
        assert terms[:, i].tobytes() == one[:, 0].tobytes()


def test_sector_j_means_temporaries_stay_chunk_sized(monkeypatch):
    # a per-sector array over the whole stack would take 1.9 MB here
    monkeypatch.setattr(apparatus, "_SECTOR_CHUNK", 64)
    device = sl.build_measurement_unitary(20000, tilt=0.4)
    n_sec = device.dims[1] + 1
    kets = np.ones((2, 3, 2, n_sec), dtype=np.complex128)
    tracemalloc.start()
    try:
        apparatus._sector_j_brackets(kets, kets, apparatus._DRIFT_WEIGHTS, device.stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * kets[..., :64].nbytes


def oracle_sectors(final):
    """(coefficient, state amplitudes or None, kron `vdot` weight) per record, by the per-sector loop.

    The weight sums |slot 0|^2 + |slot 1|^2 sector by sector, in sector
    order from 0.0, over the record's (2L+2, 2) sector slots.
    """
    t = final.amplitudes.reshape(-1, 2)
    out = []
    for r in range(2):
        comp = t[:, r]
        weight = 0.0
        for s0, s1 in dense_oracle.to_sectors(comp).tolist():
            weight += (s0.real * s0.real + s0.imag * s0.imag) + (s1.real * s1.real + s1.imag * s1.imag)
        vdot = float(np.real(np.vdot(comp, comp)))
        if weight < sl.NUMERICS.branch_weight_floor:
            out.append((0.0, None, vdot))
        else:
            coeff = math.sqrt(weight)
            out.append((coeff, comp / coeff, vdot))
    return out


@pytest.mark.parametrize("tilt", [0.0, 0.4, 2.9])
@pytest.mark.parametrize("L", [0.5, 2.5, 64, 10000])
def test_extracted_amplitudes_have_the_bits_of_the_per_sector_loop(L, tilt):
    device = sl.build_measurement_unitary(L, tilt=tilt)
    amps = sl.extract_error_amplitudes(device)
    (c, u, c2), (d_amp, d_err, d2) = oracle_sectors(sl.premeasure(1.0, 0.0, device))
    (f, u_err, f2), (e, d, e2) = oracle_sectors(sl.premeasure(0.0, 1.0, device))
    assert (amps.C, amps.D, amps.E, amps.F) == (c, d_amp, e, f)
    # the kron layout's stride-2 vdot, a second reference, to rounding
    for coeff, vdot in ((c, c2), (d_amp, d2), (e, e2), (f, f2)):
        if coeff:
            assert abs(coeff ** 2 - vdot) <= 1e-14 * vdot
    for got, want in ((amps.u, u), (amps.u_err, u_err), (amps.d, d), (amps.d_err, d_err)):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.amplitudes.tobytes() == want.tobytes()


def test_ladder_matvecs_allocate_only_their_three_outputs():
    # and the buffer numpy casts the real bands through, of a fixed size
    ops = sl.spin_operators(5000)
    v = sl.coherent_spin_state(5000, 0.4, 0.0).amplitudes
    angular._ladder_matvecs(ops, v)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        angular._ladder_matvecs(ops, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * v.nbytes + 16 * np.getbufsize() + 4096


def test_the_level_map_is_computed_once_per_stack(monkeypatch):
    # the build computes (cols, sec, owner) and the stack holds them: no
    # stage of the readout recomputes them
    calls = []
    real = apparatus._levels
    monkeypatch.setattr(apparatus, "_levels", lambda offsets: calls.append(offsets) or real(offsets))
    apparatus._read_sweep([2.0, 7.5, 40.0])
    assert len(calls) == 1
    device = sl.build_measurement_unitary(7.5, tilt=0.4)
    sl.verify_matching_equations(device)
    sl.extract_error_amplitudes(device)
    assert len(calls) == 2


def test_a_measure_pass_peaks_below_its_memory_bound():
    # a pass holds its stack (10 x 16 N bytes for N sectors) and the two
    # eigenstates' sector kets (12 x 16 N), normalized in place chunk by
    # chunk; the matching reader's copy of a bra and a ket adds 4 x 16 N.
    # A kron-layout copy of the kets, as the readout once gathered, peaks
    # at 39.5 x 16 N.  Measured on the whole device; the level window a
    # command builds holds 3 sectors.
    L = 20000.0
    apparatus._read_pass(apparatus._build_stack([L]))
    tracemalloc.start()
    try:
        apparatus._read_pass(apparatus._build_stack([L]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 29.5 * 16 * (2 * L + 2)


def test_a_long_sweep_peaks_at_one_groups_memory():
    # 16384 devices read in groups of 1365 peak at 9.9 MB, 3.2 MB of it the
    # rows themselves; read in one pass, their per-device arrays (weights,
    # brackets, the lists of the audits) peak at 40 MB
    spins = [k + 0.5 for k in range(16384)]
    apparatus._read_sweep(spins[:64])
    tracemalloc.start()
    try:
        rows = apparatus._read_sweep(spins)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [row[0] for row in rows] == spins
    assert peak < 16e6
