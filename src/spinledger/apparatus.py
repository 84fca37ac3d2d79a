"""A fully quantum spin-measuring device that conserves angular momentum exactly.

The device is a single large spin-L prepared in a coherent state, plus a
record qubit that carries no angular momentum.  The premeasurement
unitary flips the record on the total-j = L - 1/2 manifold of
particle (x) apparatus and leaves it alone on the L + 1/2 manifold.  Both
manifold projectors are rotationally invariant, so the unitary commutes
with every component of total angular momentum exactly, not merely
approximately: conservation holds to rounding for all inputs.

Because the apparatus has finite spin, its orientation is not perfectly
sharp, and the record is wrong with amplitude F = 1/sqrt(2L+1) when the
incoming spin points against the device axis.  Those small error
amplitudes, together with matrix elements of order sqrt(L) between the
correct and erroneous outcome states, are exactly what lets the branch
bookkeeping absorb the transverse angular momentum that an idealized
treatment would misplace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .angular import (
    SpinOperators,
    _check_spin,
    _check_spinor,
    _coherent_state,
    _ladder_matvecs,
    _raising,
    _spin_bands,
    _spread,
    spin_operators,
)
from .config import NUMERICS
from .ideal import _FORCED_CROSS
from .kernel import ConservationError, StateVector

__all__ = [
    "CompositeSystem",
    "ErrorAmplitudes",
    "BranchDecomposition",
    "ThermalApparatus",
    "BracketScalingRow",
    "BOLTZMANN_K",
    "HBAR_SI",
    "build_measurement_unitary",
    "premeasure",
    "decompose_branches",
    "extract_error_amplitudes",
    "verify_matching_equations",
    "bracket_magnitude_scaling",
    "thermal_orientation_uncertainty",
]

BOLTZMANN_K = 1.3807e-23  # J/K
HBAR_SI = 1.0546e-34      # J*s

_LABELS = ("up", "dn")

# the spin-1/2 bands, shared by every device
_SPIN_HALF = spin_operators(0.5)


# --------------------------------------------------------------------------
# Clebsch-Gordan sectors
#
# Total Jz = M splits spin-1/2 (x) spin-L into the 2L+2 sectors
# k = 0 .. 2L+1 with M = L + 1/2 - k, each spanned by the slots
# (|up, m = M-1/2>, |down, m = M+1/2>) = kron indices (k, d + k - 1) for
# apparatus dimension d = 2L+1.  The edge sectors k = 0 and k = d have one
# real slot; their other slot is kept as a zero-padded phantom, so every
# operator that keeps total Jz is a (d+1, 2, 2) stack of blocks.
# --------------------------------------------------------------------------

# sectors per chunk: a stack is built, audited, premeasured and read this
# many sectors at a time, and a `measure` sweep reads its devices in groups
# whose level windows fit in one chunk, so a pass's temporaries, and the
# per-device arrays of a long sweep, stay bounded
_SECTOR_CHUNK = 4096


def _sector_projectors(spins, offsets: np.ndarray, ident: np.ndarray) -> np.ndarray:
    """P+ and P- of devices on sectors offsets[i] .. offsets[i+1] - 1, as one (2, 2, 2, N) stack.

    S.L has the two eigenvalues L/2 and -(L+1)/2, so P+ = (S.L + (L+1)/2) /
    (L+1/2) is exactly rotationally invariant; on sector M it is
    [[L+1/2+M, r], [r, L+1/2-M]] / (2L+1) with r = sqrt((L+1/2)^2 - M^2).
    The edge sectors are 1x1 with P+ = 1.  P- = ident - P+, ident being 1
    on the real slots, has the bits of 0 - P+ plus 1 on the real slots.
    """
    sizes = np.diff(offsets)
    L = np.repeat(spins, sizes)
    M = L + 0.5 - (np.arange(offsets[-1]) - np.repeat(offsets[:-1], sizes))
    blocks = np.empty((2, 2, 2, offsets[-1]))
    plus = blocks[:, :, 0]
    plus[0, 0] = L + 0.5 + M
    plus[0, 1] = plus[1, 0] = np.sqrt((L + 0.5) ** 2 - M ** 2)
    plus[1, 1] = L + 0.5 - M
    plus /= 2 * L + 1
    np.subtract(ident, plus, out=blocks[:, :, 1])
    return blocks


def _block_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2x2 block products written out on entry-major stacks, a[i, j] the (i, j) entries."""
    return a[:, 0, None] * b[0] + a[:, 1, None] * b[1]


def _stack_devs(e: np.ndarray, ident: np.ndarray, up: np.ndarray, jz: np.ndarray) -> np.ndarray:
    """Per-sector [unitarity, idempotence, |[P, Jx or Jy]|, |[P, Jz]|], shape (4, n).

    Entry-major over n sectors: e is (2, 2, 2, n), P+ and P- on its third
    axis; up holds the n - 1 J+ blocks between the sectors.  Each entry is
    a max over both projectors and all entries of the general 2x2 products.
    U^dag U - 1 = (P+P+ + P-P- - 1) (x) 1 + (P+P- + P-P+) (x) X.  [P, J+] and
    [P, J-] never share an entry, so Jx and Jy both have the norm
    max(|[P, J+]|, |[P, J-]|) / 2, entered at k for the link from k to k+1.
    """
    squares = _block_product(e, e)
    cross = _block_product(e, e[:, :, ::-1]).sum(axis=2)   # P+P- + P-P+
    devs = np.zeros((4, e.shape[-1]))
    devs[0] = np.maximum(np.abs(squares.sum(axis=2) - ident), np.abs(cross)).max(axis=(0, 1))
    devs[1] = np.abs(squares - e).max(axis=(0, 1, 2))
    up = up[:, :, None]
    down = up.swapaxes(0, 1)   # J-, the bands being real
    head, tail = e[..., :-1], e[..., 1:]
    devs[2, :-1] = np.maximum(
        np.abs(_block_product(head, up) - _block_product(up, tail)),
        np.abs(_block_product(tail, down) - _block_product(down, head))).max(axis=(0, 1, 2)) / 2
    devs[3] = np.abs(e * (jz - jz[:, None])[:, :, None]).max(axis=(0, 1, 2))
    return devs


class _SectorStack(NamedTuple):
    """Devices laid end to end, entry-major: the sectors run along each last axis.

    Device i, of apparatus spin spins[i], holds its top n levels, columns
    cols[i] .. cols[i+1] - 1 of psi, and the n + 1 sectors they touch,
    offsets[i] .. offsets[i+1] - 1; the level map is `_levels`'s, computed
    once per stack.  Every sector holds the whole device's blocks, J+ links
    and slot Jz.  The J+ block that would join a device to the next is
    zero, so the seam commutes with every block and carries no amplitude
    across.  A built device is a stack of one; every array a stack holds
    is read-only.
    """

    spins: tuple          # the devices' apparatus spins L
    psi: np.ndarray       # the devices' apparatus states on their levels, end to end
    apps: SpinOperators   # the devices' apparatus bands on their levels, end to end, J+ zero between them
    blocks: np.ndarray    # (2, 2, 2, N): entry (a, b) of P+ and of P-
    up: np.ndarray        # (2, 2, N - 1): entry (a, b) of each J+ block
    jz: np.ndarray        # (2, N): the total Jz of each slot, 0 on the phantoms
    offsets: np.ndarray   # (n + 1,)
    cols: np.ndarray      # (n + 1,): the devices' first columns of psi, and its length
    sec: np.ndarray       # (D,): column c is slot 0 of sector sec[c] and slot 1 of sec[c] + 1
    owner: np.ndarray     # (N,): the device of each sector


@dataclass(frozen=True)
class CompositeSystem:
    """Particle (x) apparatus (x) record, stored in its Clebsch-Gordan sectors.

    The record carries no angular momentum, so U = P+ (x) 1 + P- (x) X and
    J = j_pa (x) 1 are fixed by the projectors and the spin algebras.  A
    build keeps both spins' banded `SpinOperators`, the apparatus state,
    and its arrays in `stack`, a one-device `_SectorStack`: P+ and P- as
    sector blocks, and the J+ blocks and slot Jz its audits read.
    `premeasure`, the readout and every audit work on that stack in O(L).
    That is the device's only representation: no dense operator of side
    2(2L+1) or 4(2L+1) is built, kept or offered.
    """

    L: float
    tilt: float
    dims: tuple[int, int, int]
    apparatus_state: StateVector
    spin_half: SpinOperators
    spin_app: SpinOperators
    stack: _SectorStack

    @property
    def pa_dim(self) -> int:
        return self.dims[0] * self.dims[1]


def _levels(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cols, sec, owner) of a stack by its offsets: each sector but a device's last holds one column."""
    cols = offsets - np.arange(offsets.size)
    sec = np.delete(np.arange(offsets[-1]), offsets[1:] - 1)
    return cols, sec, np.repeat(np.arange(offsets.size - 1), np.diff(offsets))


def _check_devices(l_values) -> list[float]:
    """Each L checked; a device whose composite 4(2L+1) exceeds `NUMERICS.max_total_dim` is refused."""
    spins = [_check_spin(L, 0.5, "apparatus spin") for L in l_values]
    for L in spins:
        d = round(2 * L + 1)
        if 4 * d > NUMERICS.max_total_dim:
            raise ValueError(
                f"apparatus spin refused: 4 x {d} = {4 * d} exceeds the configured "
                f"maximum total dimension {NUMERICS.max_total_dim} (L = {L:.17g})"
            )
    return spins


def _build_stack(spins, tilt: float = 0.0, windows=None) -> _SectorStack:
    """Build and audit a list of devices, their spins checked (`_check_devices`), as one sector stack.

    Device i is built on its top windows[i] levels, by default all 2L+1.  A
    window cut short of the bottom level is a level window: it must end one
    level past its state's support, and the state's weight on that edge
    level is gated at exactly 0.0.  Its last sector keeps the level past
    the window as a real slot 0 with no amplitude, and the J+ link into it,
    so every sector and every link inside a device is the whole device's,
    bit for bit, and is audited as such.  The bands, P+- blocks and
    apparatus states of all devices are filled together.  The audits go
    `_SECTOR_CHUNK` sectors at a time, each chunk with the next sector,
    which J+ links to its last one.  Every device is gated on its own
    maxima and |psi|^2, so an error names its L.
    """
    dims = [round(2 * L + 1) for L in spins]
    windows = dims if windows is None else list(windows)
    apps = _spin_bands(spins, windows)   # J+ from one device's top level into the next is 0
    offsets = np.cumsum([0] + [n + 1 for n in windows])
    n_sec = offsets[-1]
    cols, sec, owner = _levels(offsets)
    cut = np.less(windows, dims)
    past = offsets[1:][cut] - 1   # the sector whose slot 0 is the level past a cut window
    l_cut = np.array(spins)[cut]
    m_past = l_cut - np.array(windows)[cut]
    ident = np.zeros((2, 2, n_sec))
    ident[0, 0, sec] = ident[1, 1, sec + 1] = 1.0   # the real slots of |up, m> and |down, m>
    ident[0, 0, past] = 1.0
    blocks = _sector_projectors(spins, offsets, ident)
    # J+ = S+ (x) 1 + 1 (x) L+; the end-to-end L+ band is 0 at each seam
    up = np.zeros((2, 2, n_sec))
    up[0, 0, sec[:-1]] = apps.raising          # |up, m> -> |up, m+1>
    up[0, 0, past - 1] = _raising(l_cut, m_past)
    up[0, 1, sec] = _SPIN_HALF.raising[0]      # |down, m> -> |up, m>
    up[1, 1, sec[:-1] + 1] = apps.raising      # |down, m> -> |down, m+1>
    up = up[..., :-1]
    jz = np.zeros((2, n_sec))
    jz[0, sec] = _SPIN_HALF.m[0] + apps.m
    jz[0, past] = _SPIN_HALF.m[0] + m_past
    jz[1, sec + 1] = _SPIN_HALF.m[1] + apps.m

    devs = np.zeros((5, n_sec))
    for start in range(0, n_sec, _SECTOR_CHUNK):
        w = slice(start, start + _SECTOR_CHUNK + 1)
        np.maximum(devs[:4, w], _stack_devs(blocks[..., w], ident[..., w],
                                            up[..., start:start + _SECTOR_CHUNK], jz[:, w]),
                   out=devs[:4, w])
    devs[2, offsets[1:-1] - 1] = 0.0   # a seam link belongs to neither device
    # the ranks tell j = L + 1/2 from j = L - 1/2, sector by sector: P+ has
    # trace 1 on every sector, P- trace 1 on a two-slot sector and 0 on an
    # edge sector.  P+ and P- swapped conserve every J but break the
    # matching equations; the edge sectors tell them apart
    traces = blocks[0, 0] + blocks[1, 1]
    ranks = np.stack([np.ones(n_sec), ident[0, 0] + ident[1, 1] - 1.0])
    devs[4] = rank_devs = np.abs(traces - ranks).max(axis=0)
    devs = np.maximum.reduceat(devs, offsets[:-1], axis=1).T.tolist()
    psi = np.concatenate([_coherent_state(L, tilt, 0.0, n) for L, n in zip(spins, windows)])
    weights = psi.real ** 2 + psi.imag ** 2
    norms = np.add.reduceat(weights, cols[:-1]).tolist()
    edges = np.where(cut, weights[cols[1:] - 1], 0.0).tolist()
    for i, (L, (unitarity, idempotence, transverse, longitudinal, rank), norm, edge) in enumerate(
            zip(spins, devs, norms, edges)):
        at = f" (L = {L:.17g})"
        # every gate fails on nan too
        if not edge == 0.0:
            raise ConservationError(f"apparatus state leaves its level window: weight {edge!r} "
                                    f"on its edge level {windows[i] - 1}{at}")
        if not abs(norm - 1.0) <= NUMERICS.state_atol:
            raise ConservationError(f"state not normalized: |psi|^2 = {norm!r}{at}")
        if not unitarity <= NUMERICS.operator_atol:
            raise ConservationError(f"unitary flag violated: max|U^dag U - 1| = {unitarity:.3e}{at}")
        if not idempotence <= NUMERICS.state_atol:
            raise ConservationError(f"projector not idempotent: {idempotence:.3e}{at}")
        if not rank <= NUMERICS.operator_atol:
            k = offsets[i] + int(np.argmax(rank_devs[offsets[i]:offsets[i + 1]]))
            raise ConservationError(f"projector rank (P+, P-) = {tuple(traces[:, k].tolist())} != "
                                    f"{tuple(ranks[:, k].tolist())} in sector {k - offsets[i]}{at}")
        # [U, J (x) 1] = [P+, J] (x) 1 + [P-, J] (x) X: the two blocks never
        # share an entry, so the max-entry norm is the larger block's.  An
        # idempotent P+ of trace 1 on every sector that commutes with every
        # J_k can only be the j = L+1/2 projector, so these audits pin the
        # device completely on its sectors.
        for axis, dev in zip("xyz", (transverse, transverse, longitudinal)):
            if not dev <= NUMERICS.operator_atol:
                raise ConservationError(
                    f"premeasurement unitary does not conserve J{axis}: "
                    f"|[U, J]| = {dev:.3e}{at}"
                )
    for arr in (psi, blocks, up, jz, offsets, cols, sec, owner):
        arr.setflags(write=False)
    return _SectorStack(tuple(spins), psi, apps, blocks, up, jz, offsets, cols, sec, owner)


# the level window of an aligned device |L, L>: its state is level 0 alone,
# so the window is levels 0 and 1, sectors 0 to 2, at any L >= 1/2
_ALIGNED_WINDOW = 2


def _aligned_devices(l_values) -> _SectorStack:
    """The aligned devices |L, L> of apparatus spins l_values, checked here, each on its level window.

    The window is what a reader of `ideal`, `satellite`, `decohere` and
    the external streak touches (a `measure` sweep, `_read_sweep`, builds
    its own in groups).  The public functions build the whole device.
    """
    spins = _check_devices(l_values)
    return _build_stack(spins, windows=[_ALIGNED_WINDOW] * len(spins))


def build_measurement_unitary(L, tilt: float = 0.0) -> CompositeSystem:
    """Assemble the composite system for apparatus spin L.

    With tilt = 0 the apparatus is the coherent state |L, L> aligned with
    the measurement axis, which makes the wrong-record amplitude for a
    +z particle exactly zero.  A positive tilt rotates the device by that
    angle toward +x, making all four error amplitudes nonzero.  A device
    whose full composite, 4(2L+1), exceeds `NUMERICS.max_total_dim` is
    refused before anything is allocated.  The one-device `_build_stack`.
    """
    stack = _build_stack(_check_devices([L]), tilt)
    state = StateVector((stack.psi.size,), stack.psi)
    return CompositeSystem(L=stack.spins[0], tilt=float(tilt), dims=(2, state.dim, 2),
                           apparatus_state=state, spin_half=_SPIN_HALF, spin_app=stack.apps,
                           stack=stack._replace(psi=state.amplitudes))


# record 0, record 1, and minus the input: the weights that turn the
# <J> of an input's three premeasure kets into its drift
_DRIFT_WEIGHTS = np.array([1.0, 1.0, -1.0])


def _into_devices(ufunc: np.ufunc, out: np.ndarray, owner: np.ndarray, x: np.ndarray) -> None:
    """ufunc.at of x[..., j] into C-contiguous out[..., owner[j]], in sector order, by one flat index."""
    index = np.arange(0, out.size, out.shape[-1]).reshape(x.shape[:-1] + (1,)) + owner
    ufunc.at(out.reshape(-1), index.ravel(), x.ravel())


def _sector_j_brackets(bras: np.ndarray, kets: np.ndarray, weights: np.ndarray,
                       stack: _SectorStack) -> np.ndarray:
    """sum_s weights[s] (<bra_s|J_k|ket_s> for Jx, Jy, Jz) of each device of a stack, shape (..., n, 3).

    bras and kets are (..., s, 2, N), slot-major: kets[..., s, a, k] is slot
    a of sector k; leading axes are kept apart.  <b|J+|k> = sum_k b_k^dag
    R_k k_(k+1) reads the stack's J+ blocks R (`up`), <b|J-|k> is the
    conjugate of <k|J+|b>, and <b|Jz|k> reads the slot Jz: the blocks the
    build's [P, J] audit uses.  The sum over s is taken within each sector,
    so a drift, a small difference of O(L) means, is not rounded at the
    size of the means.  The sectors go `_SECTOR_CHUNK` at a time, each
    added into its device's total in sector order from +0, so a device's
    brackets depend neither on the chunk nor on its neighbours.
    """
    total = np.zeros((3,) + kets.shape[:-3] + (len(stack.spins),), dtype=np.complex128)
    for start in range(0, kets.shape[-1], _SECTOR_CHUNK):
        w = slice(start, start + _SECTOR_CHUNK)
        # with the next sector, which J+ takes into the chunk
        b, k, up = bras[..., start:w.stop + 1], kets[..., start:w.stop + 1], stack.up[..., w]
        # x_k^dag R_k y_(k+1) per sector for <b|J+|k> and <k|J+|b>, slot by
        # slot to keep the temporaries small; one product when bras is kets
        pairs = [(b, k)] if bras is kets else [(b, k), (k, b)]
        jplus = [sum((up[a, 0] * y[..., 0, 1:] + up[a, 1] * y[..., 1, 1:]) * x[..., a, :-1].conj()
                     for a in range(2)) for x, y in pairs]
        jz = sum(bras[..., a, w].conj() * stack.jz[a, w] * kets[..., a, w] for a in range(2))
        *jplus, jz = [(weights[:, None] * x).sum(axis=-2) for x in (*jplus, jz)]
        plus, minus = jplus[0], jplus[-1].conj()
        for c, x in enumerate(((plus + minus) / 2, (plus - minus) / 2j, jz)):
            _into_devices(np.add, total[c], stack.owner[start:start + x.shape[-1]], x)
    return np.moveaxis(total, 0, -1)


def _premeasure_stack(spinors, stack: _SectorStack) -> np.ndarray:
    """Each (a, b) of spinors premeasured on every device of a stack, in one sector pass.

    A record slot is P[a, 0] psi_0 + P[a, 1] psi_1 + 0.0; the +0.0 turns a
    -0 sum into +0, the signed zeros of a sum started from +0, which the
    pinned outputs were written with.  The drift is gated device by device
    and input by input, so no two drifts can cancel.  Returns the (n, 2, 2,
    N) sector kets: input, record, slot, sector.
    """
    pairs = np.array([_check_spinor(a, b) for a, b in spinors], dtype=np.complex128)
    kets = np.zeros((len(pairs), 3, 2, stack.offsets[-1]), dtype=np.complex128)
    psi = kets[:, 2]
    psi[:, 0, stack.sec] = pairs[:, :1] * stack.psi       # |up, m>: slot 0 of sector L - m
    psi[:, 1, stack.sec + 1] = pairs[:, 1:] * stack.psi   # |down, m>: slot 1 of sector L - m + 1
    for start in range(0, kets.shape[-1], _SECTOR_CHUNK):
        w = slice(start, start + _SECTOR_CHUNK)
        x = psi[:, None, :, w]
        for r in range(2):
            out = kets[:, r, :, w]
            np.multiply(stack.blocks[:, 0, r, w], x[..., 0, :], out=out)
            out += stack.blocks[:, 1, r, w] * x[..., 1, :]
            out += 0.0
    drift = np.abs(_sector_j_brackets(kets, kets, _DRIFT_WEIGHTS, stack).real)
    if not (drift <= NUMERICS.conservation_atol).all():   # nan fails too
        i, n, k = np.argwhere(~(drift.transpose(1, 0, 2) <= NUMERICS.conservation_atol))[0]
        raise ConservationError(f"<J{'xyz'[k]}> drifted by {drift[n, i, k]:.3e} during "
                                f"premeasurement (L = {stack.spins[i]:.17g})")
    return kets


def _to_kron(kets: np.ndarray) -> np.ndarray:
    """One device's (..., 2, d + 1) sector kets in the kron layout (..., 2, d), the phantoms dropped."""
    return np.concatenate([kets[..., :1, :-1], kets[..., 1:, 1:]], axis=-2)


def _from_kron(kron: np.ndarray) -> np.ndarray:
    """One device's kron-layout (..., 2, d) amplitudes as its sector kets, the inverse of `_to_kron`."""
    kets = np.zeros(kron.shape[:-1] + (kron.shape[-1] + 1,), dtype=np.complex128)
    kets[..., 0, :-1], kets[..., 1, 1:] = kron[..., 0, :], kron[..., 1, :]
    return kets


def premeasure(a: complex, b: complex, sys: CompositeSystem) -> StateVector:
    """Entangle psi = (a|up> + b|down>) (x) apparatus with a record at 0.

    The record ends holding P+ psi at 0 and P- psi at 1, applied sector by
    sector.  Audited: each <J_k>, summed over both record sectors, must
    match <psi|J_k|psi> to the conservation tolerance, else
    ConservationError.  This is the one-input, one-device case of
    `_premeasure_stack`, in the kron layout (particle, apparatus, record).
    """
    [records] = _premeasure_stack([(a, b)], sys.stack)[:, :2]
    return StateVector(sys.dims, np.moveaxis(_to_kron(records), 0, -1))


@dataclass(frozen=True)
class BranchDecomposition:
    """Record-sector split of a premeasured state.

    branches hold (coefficient, state over particle (x) apparatus, label);
    coefficients are real nonnegative with the sector phases absorbed
    into the branch states.  Labels follow the record: "up" for record 0,
    "dn" for record 1.  Sectors with weight below the configured floor
    are listed in `omitted` instead (pure eigenstate input).
    """

    branches: tuple
    source_state: StateVector
    omitted: tuple


def _split_records(kets: np.ndarray, stack: _SectorStack) -> tuple[list, np.ndarray]:
    """(n, 2, 2, N) sector kets of a stack's devices (`_premeasure_stack`), split by record in place.

    A weight (|slot 0|^2 + |slot 1|^2), a norm or an overlap is its device's
    sum over its sectors in sector order from +0.  Each record of the kets
    is divided by its coefficient into its branch state (an empty one is
    left as it was), audited device by device; an empty record is not
    audited (`NumericsConfig.branch_weight_floor`).  Returns the coefficients
    [device][input][record] (0.0 below the weight floor) and their presence.
    """
    shape = kets.shape[:2] + (len(stack.spins),)
    weights, norms, recon = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    overlaps = np.zeros(shape[::2], dtype=np.complex128)
    chunks = [slice(start, start + _SECTOR_CHUNK) for start in range(0, kets.shape[-1], _SECTOR_CHUNK)]
    for w in chunks:
        comp = kets[..., w]
        _into_devices(np.add, weights, stack.owner[w], (comp.real ** 2 + comp.imag ** 2).sum(axis=-2))
    present = ~(weights < NUMERICS.branch_weight_floor)
    coeffs = np.where(present, np.sqrt(weights), 0.0)
    divisors = np.where(present, coeffs, 1.0)
    for w in chunks:   # the branch states replace their records' kets
        comp, dev = kets[..., w], stack.owner[w]
        state = comp / divisors[..., None, dev]
        rebuilt = coeffs[..., None, dev] * state
        rebuilt -= comp
        _into_devices(np.maximum, recon, dev, np.abs(rebuilt).max(axis=2))
        comp[...] = state
        _into_devices(np.add, norms, dev, (state.real ** 2 + state.imag ** 2).sum(axis=-2))
        _into_devices(np.add, overlaps, dev, (state[:, 0].conj() * state[:, 1]).sum(axis=-2))
    norms, overlaps = norms.transpose(2, 0, 1).tolist(), np.abs(overlaps).T.tolist()
    recon = recon.transpose(2, 0, 1).tolist()
    totals = np.where(present, weights, 0.0).sum(axis=1).T.tolist()
    coeffs, present = coeffs.transpose(2, 0, 1).tolist(), present.transpose(2, 0, 1)
    for L, *device in zip(stack.spins, present, norms, totals, overlaps, recon):
        at = f" (L = {L:.17g})"
        for have, norm, total, overlap, rebuilt in zip(*device):   # input by input
            for x, r in ((x, r) for x, r, h in zip(norm, rebuilt, have) if h):
                if not abs(x - 1.0) <= NUMERICS.state_atol:
                    raise ConservationError(f"state not normalized: |psi|^2 = {x!r}{at}")
                if not r <= NUMERICS.conservation_atol:
                    raise ConservationError(f"branch reconstruction failed{at}")
            if not abs(total - 1.0) <= NUMERICS.operator_atol:
                raise ConservationError(f"branch weights sum to {total!r}{at}")
            if all(have) and not overlap <= NUMERICS.state_atol:
                raise ConservationError(f"record sectors not orthogonal: {overlap:.3e}{at}")
    return coeffs, present


def decompose_branches(final: StateVector, sys: CompositeSystem) -> BranchDecomposition:
    if final.dims != sys.dims:
        raise ValueError(f"state dims {final.dims} do not match system {sys.dims}")
    kets = _from_kron(np.moveaxis(final.amplitudes.reshape(sys.dims), -1, 0))
    [[coeffs]], [[present]] = _split_records(kets[None], sys.stack)
    return BranchDecomposition(
        branches=tuple((c, StateVector((2, sys.dims[1]), _to_kron(s)), label)
                       for c, h, s, label in zip(coeffs, present, kets, _LABELS) if h),
        source_state=final,
        omitted=tuple(label for h, label in zip(present, _LABELS) if not h),
    )


@dataclass(frozen=True)
class ErrorAmplitudes:
    """Correct/erroneous registration amplitudes and their outcome states.

    A +z particle premeasures to C|u> + D|d_err>, a -z particle to
    E|d> + F|u_err>; amplitudes are real nonnegative with phases absorbed
    into the kets.  A state is None when its amplitude vanishes
    identically (the aligned apparatus has D = 0, so d_err is undefined).
    """

    C: float
    D: float
    E: float
    F: float
    u: Optional[StateVector]
    u_err: Optional[StateVector]
    d: Optional[StateVector]
    d_err: Optional[StateVector]


# +z, then -z: the inputs whose records give C, D, E and F
_EIGENSTATES = ((1.0, 0.0), (0.0, 1.0))

# C F <u|J|u_err> and E D <d|J|d_err>: each (bra, ket) as (input, record) of
# the eigenstate records, and the product of their coefficients its weight
_MATCHING_TERMS = (((0, 0), (1, 0)), ((1, 1), (0, 1)))


def _read_stack(spinors, stack: _SectorStack) -> tuple[list, np.ndarray, np.ndarray]:
    """Each spinor premeasured on every device of a stack and split by record.

    Returns the coefficients and presence of `_split_records` and the (n,
    3, 2, N) kets of `_premeasure_stack`, each record now its branch state.
    """
    kets = _premeasure_stack(spinors, stack)
    return (*_split_records(kets[:, :2], stack), kets)


def _read_branches(a: complex, b: complex, stack: _SectorStack) -> tuple[list, np.ndarray, np.ndarray]:
    """One input on a one-device stack: its record coefficients, their presence and three <J>.

    The <J> rows are those of the record 0 and record 1 branch states and
    of the input, read from `_read_stack`'s kets in one `_sector_j_brackets`
    pass, each row its own sum.  An empty record has coefficient 0.0 and
    the input's <J>.
    """
    [[coeffs]], [[present]], [kets] = _read_stack([(a, b)], stack)
    kets = kets[:, None]
    means = _sector_j_brackets(kets, kets, np.ones(1), stack)[:, 0].real
    means[:2][~present] = means[2]
    return coeffs, present, means


def _read_spin(a: complex, b: complex, stack: _SectorStack) -> tuple[list, np.ndarray, np.ndarray]:
    """One input on a one-device stack: its record coefficients, their presence and the particle's <S>.

    The (3, 3) complex rows are <0|S|0>, <1|S|1> and <0|S|1> between the
    record 0 and record 1 branch states of `_read_stack`: the diagonal in
    one `_sector_j_brackets` pass over views of its kets and the cross term
    in another, on the device's stack with S in place of J (S+ (x) 1 is the
    J+ link from |down, m> to |up, m> alone, the slot Sz +1/2 and -1/2).
    """
    [[coeffs]], [[present]], [kets] = _read_stack([(a, b)], stack)
    up = np.zeros_like(stack.up)
    up[0, 1] = stack.up[0, 1]
    particle = stack._replace(up=up, jz=np.broadcast_to(_SPIN_HALF.m[:, None], stack.jz.shape))
    records = kets[:2, None]
    diag = _sector_j_brackets(records, records, np.ones(1), particle)[:, 0]
    cross = _sector_j_brackets(kets[:1, None], kets[1:2, None], np.ones(1), particle)[0]
    return coeffs, present, np.concatenate([diag, cross])


# (slot, sector) of |up, L>, |up, L-1>, |down, L>, |down, L-1>: where a
# particle premeasured on the aligned device |L, L> can leave it
_SHOT_SLOT = ([0, 0, 1, 1], [0, 1, 1, 2])


def _read_shot(sys: CompositeSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both eigenstates premeasured on one device, unsplit: the internal streak's shot.

    Returns the shot's (record, row, input) amplitudes in the sector layout,
    its C-contiguous (record, 4, input) rows on `_SHOT_SLOT`, and their Jz.
    """
    kets = _premeasure_stack(_EIGENSTATES, sys.stack)[:, :2]
    shots = kets.reshape(2, 2, -1).transpose(1, 2, 0)
    slots = kets[:, :, _SHOT_SLOT[0], _SHOT_SLOT[1]].transpose(1, 2, 0).copy()
    return shots, slots, sys.stack.jz[_SHOT_SLOT]


def _read_matching(stack: _SectorStack, coeffs, present, states) -> list[tuple[list, np.ndarray, float]]:
    """Per device of a stack, its matching terms, their residuals and max |residual|, from `_read_stack`.

    The terms, C F <u|J|u_err> then E D <d|J|d_err>, are (weight, (<bra|J_k|ket>
    for Jx, Jy, Jz)), left out where a bra or ket is an empty sector.  The
    brackets are read in one sector pass over the stack
    (`_sector_j_brackets`); the residuals, the terms summed less ideal's forced
    cross term (`_FORCED_CROSS`), are gated device by device.
    """
    live = [t for t, (bra, ket) in enumerate(_MATCHING_TERMS)
            if any(have[bra] and have[ket] for have in present)]
    bras, kets = (np.array([states[_MATCHING_TERMS[t][side]] for t in live]) for side in (0, 1))
    per_term = _sector_j_brackets(bras[:, None], kets[:, None], np.ones(1), stack).tolist()
    out = []
    for i, (L, have, coeff) in enumerate(zip(stack.spins, present, coeffs)):
        terms = [(coeff[bra[0]][bra[1]] * coeff[ket[0]][ket[1]], tuple(per_term[k][i]))
                 for k, t in enumerate(live) for bra, ket in [_MATCHING_TERMS[t]]
                 if have[bra] and have[ket]]
        lhs = [0j] * 3
        for weight, brackets in terms:   # in order, each sum from +0
            lhs = [total + weight * bracket for total, bracket in zip(lhs, brackets)]
        residuals = np.array(lhs) - _FORCED_CROSS
        worst = float(np.max(np.abs(residuals)))
        if not worst <= NUMERICS.conservation_atol:
            raise ConservationError(
                f"matching equations violated: max residual {worst:.3e} (L = {L:.17g})")
        out.append((terms, residuals, worst))
    return out


def extract_error_amplitudes(sys: CompositeSystem) -> ErrorAmplitudes:
    """Run both eigenstate inputs, premeasured together, and read off C, D, E, F and the kets.

    The one-device case of a `measure` sweep's reader (`_read_stack`).
    """
    [coeffs], [present], states = _read_stack(_EIGENSTATES, sys.stack)
    (u, d_err), (u_err, d) = [[StateVector((2, sys.dims[1]), _to_kron(s)) if h else None
                               for h, s in zip(have, pair)]
                              for have, pair in zip(present, states[:, :2])]
    (c, d_amp), (f, e) = coeffs
    return ErrorAmplitudes(C=c, D=d_amp, E=e, F=f, u=u, u_err=u_err, d=d, d_err=d_err)


def verify_matching_equations(sys: CompositeSystem) -> np.ndarray:
    """Residuals of C F <u|J_k|u_err> + E D <d|J_k|d_err> = (1/2, -i/2, 0).

    Evaluated with the numerically extracted amplitudes, states, and
    brackets of the one-device `_read_matching`; raises ConservationError
    if any residual magnitude exceeds the conservation tolerance.
    """
    return _read_matching(sys.stack, *_read_stack(_EIGENSTATES, sys.stack))[0][1]


def _read_pass(stack: _SectorStack) -> list[list]:
    """`measure` rows [L, C, D, E, F, residual, |<u|Jx|u_err>|, delta_l, 1/delta_theta].

    The devices of a built stack (a group of `_read_sweep`) are
    premeasured and read in one sector pass (`_read_stack`,
    `_read_matching`), and each device's moments over its own columns, as
    `angular_spread` reads them.
    """
    coeffs, present, states = _read_stack(_EIGENSTATES, stack)
    matching = _read_matching(stack, coeffs, present, states)
    jx_psi = _ladder_matvecs(stack.apps, stack.psi)[0]
    rows = []
    for L, ((c, d_amp), (f, e)), (terms, _, worst), a, b in zip(
            stack.spins, coeffs, matching, stack.cols, stack.cols[1:]):
        spread = _spread(stack.psi[a:b], stack.apps.m[a:b], jx_psi[a:b])
        rows.append([L, c, d_amp, e, f, worst,
                     abs(terms[0][1][0]), spread.delta_l, 1.0 / spread.delta_theta])
    return rows


def _read_sweep(l_values) -> list[list]:
    """The `measure` rows of a sweep of apparatus spins, in order (`_read_pass`).

    Every L is checked before any device is built.  The aligned devices are
    then built on their level windows and read in groups of consecutive
    devices whose window sectors fit in `_SECTOR_CHUNK`, which bounds a
    group's per-device arrays.  A row depends neither on its group nor on
    the chunk: every sum is its own device's, in sector order from +0.
    """
    spins = _check_devices(l_values)
    size = max(1, _SECTOR_CHUNK // (_ALIGNED_WINDOW + 1))
    rows = []
    for start in range(0, len(spins), size):
        group = spins[start:start + size]
        rows += _read_pass(_build_stack(group, windows=[_ALIGNED_WINDOW] * len(group)))
    return rows


class BracketScalingRow(NamedTuple):
    L: float
    bracket_magnitude: float
    delta_l: float
    inv_delta_theta: float


def bracket_magnitude_scaling(L_list) -> list[BracketScalingRow]:
    """|<u|Jx|u_err>| against the apparatus angular spread, per L.

    All three columns grow like sqrt(L): the bracket is sqrt(2L+1)/2 in
    closed form, the aligned apparatus has delta_l = sqrt(L/2), and
    1/delta_theta = sqrt(2L).  The list case of a `measure` sweep.
    """
    if not L_list:
        raise ValueError("need at least one apparatus spin")
    return [BracketScalingRow(row[0], *row[6:]) for row in _read_sweep(L_list)]


@dataclass(frozen=True)
class ThermalApparatus:
    """SI-unit orientation uncertainty of a macroscopic device.

    The thermal angular-momentum spread is delta_l = sqrt(I k T) and the
    minimum orientation uncertainty consistent with it is
    delta_theta = hbar / delta_l.
    """

    moment_of_inertia: float
    temperature: float
    boltzmann_k: float
    hbar: float
    ikt: float
    delta_l: float
    delta_theta: float
    note: str


def thermal_orientation_uncertainty(moment_of_inertia: float,
                                    temperature: float) -> ThermalApparatus:
    """The thermal estimate for a device of inertia I (kg m^2) at T (K).

    I, T and their product I k T must all be positive and finite.
    """
    if not (math.isfinite(moment_of_inertia) and moment_of_inertia > 0):
        raise ValueError(
            f"moment_of_inertia must be positive and finite, got {moment_of_inertia!r}")
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be positive and finite, got {temperature!r}")
    ikt = moment_of_inertia * BOLTZMANN_K * temperature
    if not (math.isfinite(ikt) and ikt > 0):
        raise ValueError(
            f"I k T = {moment_of_inertia!r} x {BOLTZMANN_K!r} x {temperature!r} "
            f"leaves the float range ({ikt!r})"
        )
    delta_l = math.sqrt(ikt)
    delta_theta = HBAR_SI / delta_l
    return ThermalApparatus(
        moment_of_inertia=moment_of_inertia,
        temperature=temperature,
        boltzmann_k=BOLTZMANN_K,
        hbar=HBAR_SI,
        ikt=ikt,
        delta_l=delta_l,
        delta_theta=delta_theta,
        note=(
            "delta_theta is often quoted as ~1e-22 rad for I=0.01 kg m^2 at "
            "300 K; that is an order-of-magnitude rounding of the computed "
            "value ~1.6e-23 rad"
        ),
    )
