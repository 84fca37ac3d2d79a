"""Devices built on their level window, against the whole device as the oracle.

A reader of `measure`, `ideal`, `satellite`, `decohere` or the external
streak builds its aligned device |L, L> on levels 0 and 1 only
(`apparatus._aligned_devices`): sectors 0 to 2 at any L.  U keeps each
total-Jz sector, so the rows read there must be the whole device's bit for
bit; the whole device, `_build_stack` with its default windows, is the
oracle.  The window's audits (the edge level's weight at exactly 0.0, and
the projector ranks sector by sector) must trip on a wrong window and on
swapped projectors.
"""

import re
import tracemalloc

import numpy as np
import pytest

import spinledger as sl
from spinledger import apparatus, cli

R = 2 ** -0.5
SPINORS = [(R, R), (0.6, 0.8j), (1.0, 0.0)]
PASS_LS = [0.5, 1, 1.5, 7.5, 64, 160, 1000, 100000, 131071.5]


def whole(spins):
    """The devices of checked spins on all their levels."""
    return apparatus._build_stack(apparatus._check_devices(spins))


def bits(rows):
    return [[float(x).hex() for x in row] for row in rows]


@pytest.mark.parametrize("L", PASS_LS, ids=str)
def test_a_windowed_pass_reads_the_rows_of_the_whole_device(L):
    want = apparatus._read_pass(whole([L]))
    assert bits(apparatus._read_pass(apparatus._aligned_devices([L]))) == bits(want)


@pytest.mark.parametrize("spins", [[0.5, 1, 1.5, 7.5, 64, 160], [1000, 0.5, 3, 0.5], [2, 2, 1.5]],
                         ids=["rising", "mixed", "repeated"])
def test_a_windowed_mixed_pass_reads_each_devices_rows(spins):
    want = apparatus._read_pass(whole(spins))
    assert bits(apparatus._read_pass(apparatus._aligned_devices(spins))) == bits(want)
    assert bits(apparatus._read_sweep(spins)) == bits(want)


@pytest.mark.parametrize("spinor", SPINORS, ids=["plus_x", "y_tilted", "plus_z"])
@pytest.mark.parametrize("L", [0.5, 4, 100000], ids=str)
@pytest.mark.parametrize("reader", ["_read_branches", "_read_spin"])
def test_windowed_readers_give_the_whole_devices_bits(reader, L, spinor):
    read = getattr(apparatus, reader)
    coeffs, present, moments = read(*spinor, apparatus._aligned_devices([L]))
    want_coeffs, want_present, want_moments = read(*spinor, whole([L]))
    assert bits([coeffs]) == bits([want_coeffs])
    assert present.tolist() == want_present.tolist()
    assert moments.dtype == want_moments.dtype and moments.tobytes() == want_moments.tobytes()


@pytest.mark.parametrize("L", [0.5, 1, 4, 1000], ids=str)
def test_a_window_holds_the_whole_devices_sectors_bit_for_bit(L):
    window = apparatus._aligned_devices([L])
    full = whole([L])
    n = window.psi.size
    assert n == min(2, round(2 * L + 1)) and window.offsets.tolist() == [0, n + 1]
    assert window.psi.tobytes() == full.psi[:n].tobytes()
    assert window.apps.m.tobytes() == full.apps.m[:n].tobytes()
    assert window.apps.raising.tobytes() == full.apps.raising[:n - 1].tobytes()
    assert window.blocks.tobytes() == full.blocks[..., :n + 1].copy().tobytes()
    assert window.up.tobytes() == full.up[..., :n].copy().tobytes()
    assert window.jz.tobytes() == full.jz[:, :n + 1].copy().tobytes()


def test_every_array_a_windowed_stack_holds_is_read_only():
    stack = apparatus._aligned_devices([0.5, 4, 100000])
    arrays = [a for a in (*stack, stack.apps.m, stack.apps.raising) if isinstance(a, np.ndarray)]
    assert len(arrays) >= 10
    assert not [a.shape for a in arrays if a.flags.writeable]


@pytest.mark.parametrize("L", [1, 4, 100000], ids=str)
def test_a_narrowed_window_trips_the_edge_audit(L):
    with pytest.raises(sl.ConservationError, match=rf"leaves its level window: weight 1\.0 on its edge "
                                                   rf"level 0 \(L = {L:g}\)"):
        apparatus._build_stack([float(L)], windows=[1])


def test_a_state_shifted_by_one_level_trips_the_edge_audit(monkeypatch):
    # the window is the aligned state's: a state one level lower has its
    # weight on the window's edge level
    real = apparatus._coherent_state
    monkeypatch.setattr(apparatus, "_coherent_state", lambda *args: np.roll(real(*args), 1))
    with pytest.raises(sl.ConservationError, match=r"leaves its level window: weight 1\.0 on its edge "
                                                   r"level 1 \(L = 4\)"):
        apparatus._aligned_devices([4])
    assert cli.main(["measure", "--L", "4"]) == 2


@pytest.mark.parametrize("n", [8, 5, 1])
def test_a_tilted_state_fills_every_level_so_any_cut_trips(n):
    # at L = 4 and tilt 0.4 no level's amplitude underflows
    assert apparatus._build_stack([4.0], tilt=0.4).psi.all()
    with pytest.raises(sl.ConservationError, match=rf"edge level {n - 1} \(L = 4\)"):
        apparatus._build_stack([4.0], tilt=0.4, windows=[n])


def test_a_wider_window_reads_the_same_rows():
    spins = [4.0, 100000.0]
    want = bits(apparatus._read_pass(whole(spins)))
    for n in (3, 7):
        assert bits(apparatus._read_pass(apparatus._build_stack(spins, windows=[n, n]))) == want


@pytest.mark.parametrize("L", [1, 4, 100000, 131071.5], ids=str)
def test_swapped_projectors_on_the_window_fail_the_rank_audit(L, monkeypatch):
    real = apparatus._sector_projectors
    monkeypatch.setattr(apparatus, "_sector_projectors",
                        lambda *args: np.ascontiguousarray(real(*args)[:, :, ::-1]))
    # sector 0 holds |up, L> alone, where P+ is 1 and P- is 0
    with pytest.raises(sl.ConservationError, match=r"projector rank \(P\+, P-\) = \(0\.0, 1\.0\) != "
                                                   rf"\(1\.0, 0\.0\) in sector 0 \(L = {re.escape(str(L))}\)"):
        apparatus._aligned_devices([L])


def recording_z_alone(stack):
    """The stack with projector diag(1, 0) in every sector: it loses a +x input's <Jx> = 1/2."""
    up = np.zeros((stack.blocks.shape[-1], 2, 2))
    up[:, 0, 0] = 1.0
    return stack._replace(blocks=np.stack([up, np.eye(2) - up]).transpose(2, 3, 0, 1))


def read_swapped(stack):
    swapped = stack._replace(blocks=stack.blocks[:, :, ::-1])
    apparatus._read_matching(swapped, *apparatus._read_stack(apparatus._EIGENSTATES, swapped))


# each audit of a pass spells the spin it trips on in full: six significant
# digits would name the cap 131072
@pytest.mark.parametrize("trip,message", [
    (lambda s: apparatus._premeasure_stack([(R, R)], recording_z_alone(s)),
     r"<Jx> drifted by 5\.000e-01 during premeasurement"),
    (lambda s: apparatus._split_records(1e7 * apparatus._premeasure_stack([(R, R)], s)[:, :2], s),
     r"branch weights sum to"),
    (read_swapped, r"matching equations violated: max residual 1\.000e\+00"),
], ids=["premeasure-drift", "split-records", "matching"])
def test_a_pass_audit_at_the_cap_names_the_spin_exactly(trip, message):
    stack = apparatus._aligned_devices([131071.5])
    with pytest.raises(sl.ConservationError, match=rf"{message}.* \(L = 131071\.5\)$"):
        trip(stack)


def test_a_window_pass_at_the_cap_builds_four_sectors_in_under_a_megabyte(monkeypatch):
    # the whole device at L = 131071.5 holds 262144 sectors and peaks at
    # tens of MB; its window holds 3, at any L
    built = []
    real = apparatus._build_stack
    monkeypatch.setattr(apparatus, "_build_stack",
                        lambda spins, **kw: built.append(real(spins, **kw)) or built[-1])
    apparatus._read_sweep([131071.5])
    assert built[0].offsets[-1] <= 4
    tracemalloc.start()
    try:
        apparatus._read_sweep([131071.5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
