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
    angular_spread,
    spin_operators,
)
from .config import NUMERICS
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

# sectors per pass of the build's audits and of `_sector_j_means`, which
# bounds their temporaries at any L
_SECTOR_CHUNK = 4096


def _to_sectors(v: np.ndarray) -> np.ndarray:
    """Particle (x) apparatus amplitudes (kron layout) as (d+1, 2) sector slots."""
    t = v.reshape(2, -1)
    d = t.shape[1]
    sec = np.zeros((d + 1, 2), dtype=np.complex128)
    sec[:d, 0] = t[0]
    sec[1:, 1] = t[1]
    return sec


def _sector_projectors(L: float) -> np.ndarray:
    """P+ and P- as one (2, 2L+2, 2, 2) stack of sector blocks.

    S.L has the two eigenvalues L/2 and -(L+1)/2, so P+ = (S.L + (L+1)/2) /
    (L+1/2) is exactly rotationally invariant; on sector M it is
    [[L+1/2+M, r], [r, L+1/2-M]] / (2L+1) with r = sqrt((L+1/2)^2 - M^2).
    The edge sectors are 1x1 with P+ = 1.  `build_measurement_unitary`
    audits the stack.
    """
    d = round(2 * L + 1)
    M = L + 0.5 - np.arange(d + 1)
    blocks = np.empty((2, d + 1, 2, 2))
    plus = blocks[0]
    plus[:, 0, 0] = L + 0.5 + M
    plus[:, 0, 1] = plus[:, 1, 0] = np.sqrt((L + 0.5) ** 2 - M ** 2)
    plus[:, 1, 1] = L + 0.5 - M
    plus /= 2 * L + 1
    # P- = 1 - P+ without forming the identity, which the build forms once
    # for its unitarity audit: 0 - P+, then 1 added on the real diagonal
    # slots, gives the bits of 1 - P+, with +0 where P+ is 0
    minus = np.subtract(0.0, plus, out=blocks[1])
    minus[:-1, 0, 0] += 1.0
    minus[1:, 1, 1] += 1.0
    blocks.setflags(write=False)
    return blocks


def _sector_identity(d: int) -> np.ndarray:
    """The identity of particle (x) apparatus as sector blocks (zero on phantoms)."""
    return _to_sectors(np.ones(2 * d)).real[:, :, None] * np.eye(2)


def _raising_blocks(half: SpinOperators, app: SpinOperators) -> np.ndarray:
    """J+ = S+ (x) 1 + 1 (x) L+ as (2L+1, 2, 2) blocks; block k-1 maps sector k to k-1."""
    raising = np.zeros((app.dim, 2, 2))
    raising[:-1, 0, 0] = app.raising      # |up, m> -> |up, m+1>
    raising[:, 0, 1] = half.raising[0]    # |down, m> -> |up, m>
    raising[1:, 1, 1] = app.raising       # |down, m> -> |down, m+1>
    return raising


def _commutator_devs(p: np.ndarray, raising: np.ndarray, jz: np.ndarray) -> tuple[float, ...]:
    """Max-entry norms of [P, Jx], [P, Jy] and [P, Jz] over sector block stacks P.

    p is (..., 2L+2, 2, 2), one block stack per leading index, and the norms
    are the largest over all of them.  [P, J+] only links sector k to k-1
    and [P, J-] only k-1 to k, so the two never share an entry, and Jx, Jy
    = (J+ +- J-)/(2 or 2i) give both the norm max(|[P, J+]|, |[P, J-]|) / 2.
    Jz is diagonal on each sector.
    """
    lowering = raising.conj().transpose(0, 2, 1)
    head, tail = p[..., :-1, :, :], p[..., 1:, :, :]
    transverse = max(np.max(np.abs(head @ raising - raising @ tail)),
                     np.max(np.abs(tail @ lowering - lowering @ head))) / 2
    longitudinal = np.max(np.abs(p * (jz[:, None, :] - jz[:, :, None])))
    return transverse, transverse, longitudinal


def _stack_devs(p: np.ndarray, ident: np.ndarray, raising: np.ndarray,
                jz: np.ndarray) -> np.ndarray:
    """[unitarity, idempotence, |[P, Jx]|, |[P, Jy]|, |[P, Jz]|] of a P+, P- stack.

    p is (2, n, 2, 2), P+ then P- over n consecutive sectors; ident and jz
    are the sector identity and slot Jz over the same sectors, raising the
    n - 1 J+ blocks between them.  Each entry is a max over both projectors.
    U^dag U - 1 = (P+P+ + P-P- - 1) (x) 1 + (P+P- + P-P+) (x) X, per sector.
    """
    squares = p @ p
    unitarity = max(np.max(np.abs(squares[0] + squares[1] - ident)),
                    np.max(np.abs(np.add(*(p @ p[::-1])))))
    idempotence = np.max(np.abs(squares - p))
    return np.array([unitarity, idempotence, *_commutator_devs(p, raising, jz)])


@dataclass(frozen=True)
class CompositeSystem:
    """Particle (x) apparatus (x) record, stored in its Clebsch-Gordan sectors.

    The record carries no angular momentum, so U = P+ (x) 1 + P- (x) X and
    J = j_pa (x) 1 are fixed by the projectors and the spin algebras.  A
    build keeps P+ and P- as (2L+2, 2, 2) sector blocks, both spins'
    banded `SpinOperators`, and the J+ blocks and slot Jz its audits read;
    `premeasure` and every audit work on those in O(L).  That is the
    device's only representation: no dense operator of side 2(2L+1) or
    4(2L+1) is built, kept or offered.
    """

    L: float
    tilt: float
    dims: tuple[int, int, int]
    apparatus_state: StateVector
    spin_half: SpinOperators
    spin_app: SpinOperators
    plus_blocks: np.ndarray
    minus_blocks: np.ndarray
    raising_blocks: np.ndarray   # (2L+1, 2, 2), from `_raising_blocks`
    slot_jz: np.ndarray          # (2L+2, 2), the total Jz of each sector slot

    @property
    def pa_dim(self) -> int:
        return self.dims[0] * self.dims[1]


def build_measurement_unitary(L, tilt: float = 0.0) -> CompositeSystem:
    """Assemble the composite system for apparatus spin L.

    With tilt = 0 the apparatus is the coherent state |L, L> aligned with
    the measurement axis, which makes the wrong-record amplitude for a
    +z particle exactly zero.  A positive tilt rotates the device by that
    angle toward +x, making all four error amplitudes nonzero.  A device
    whose full composite, 4(2L+1), exceeds `NUMERICS.max_total_dim` is
    refused before anything is allocated.
    """
    L = _check_spin(L, 0.5, "apparatus spin")
    d = round(2 * L + 1)
    if 4 * d > NUMERICS.max_total_dim:
        raise ValueError(
            f"build_measurement_unitary refused: 4 x {d} = {4 * d} exceeds the "
            f"configured maximum total dimension {NUMERICS.max_total_dim}"
        )
    half, app = _SPIN_HALF, spin_operators(L)
    blocks = np.asarray(_sector_projectors(L))
    plus, minus = blocks
    raising = _raising_blocks(half, app)
    jz = _to_sectors(np.add.outer(half.m, app.m)).real.copy()   # total Jz of each slot
    ident = _sector_identity(d)

    # P+ and P- are audited as one stack.  Every deviation is a max over
    # sectors, so the stack goes `_SECTOR_CHUNK` sectors at a time, each
    # chunk with the next sector, which J+ links to its last one.
    devs = np.zeros(5)
    for start in range(0, d, _SECTOR_CHUNK):
        window = slice(start, start + _SECTOR_CHUNK + 1)
        np.maximum(devs, _stack_devs(blocks[:, window], ident[window],
                                     raising[start:start + _SECTOR_CHUNK], jz[window]), out=devs)
    unitarity, idempotence, *commutators = devs.tolist()
    if unitarity > NUMERICS.operator_atol:
        raise ValueError(f"unitary flag violated: max|U^dag U - 1| = {unitarity:.3e}")
    if idempotence > NUMERICS.state_atol:
        raise AssertionError(f"projector not idempotent: {idempotence:.3e}")
    traces = np.trace(blocks, axis1=2, axis2=3).real.sum(axis=1)
    for trace, rank in zip(traces.tolist(), (2 * L + 2, 2 * L)):
        if abs(trace - rank) > NUMERICS.operator_atol:
            raise AssertionError(f"projector rank {trace!r} != {rank}")

    # [U, J (x) 1] = [P+, J] (x) 1 + [P-, J] (x) X: the two blocks never
    # share an entry, so the max-entry norm is the larger block's.  An
    # idempotent P+ of rank 2L+2 that commutes with every J_k can only be
    # the j = L+1/2 projector, so these audits pin the device completely.
    for axis, dev in zip("xyz", commutators):
        if dev > NUMERICS.operator_atol:
            raise ConservationError(
                f"premeasurement unitary does not conserve J{axis}: "
                f"|[U, J]| = {dev:.3e}"
            )

    return CompositeSystem(
        L=L,
        tilt=float(tilt),
        dims=(2, d, 2),
        apparatus_state=_coherent_state(L, tilt, 0.0),
        spin_half=half,
        spin_app=app,
        plus_blocks=plus,
        minus_blocks=minus,
        raising_blocks=raising,
        slot_jz=jz,
    )


def _j_matvecs(sys: CompositeSystem, v: np.ndarray) -> list[np.ndarray]:
    """[Jx v, Jy v, Jz v] with J_k = S_k (x) 1 + 1 (x) L_k over particle (x) apparatus, in O(L)."""
    t = v.reshape(2, -1)
    half = _ladder_matvecs(sys.spin_half, t.T)
    app = _ladder_matvecs(sys.spin_app, t)
    return [(h.T + a).reshape(v.shape) for h, a in zip(half, app)]


def _j_brackets(sys: CompositeSystem, bra: np.ndarray, ket: np.ndarray) -> tuple[complex, ...]:
    """(<bra|Jx|ket>, <bra|Jy|ket>, <bra|Jz|ket>) over particle (x) apparatus."""
    return tuple(complex(np.vdot(bra, jv)) for jv in _j_matvecs(sys, ket))


def _j_means(sys: CompositeSystem, v: np.ndarray) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>) of particle (x) apparatus amplitudes v."""
    return np.array([b.real for b in _j_brackets(sys, v, v)])


def _initial_state(a: complex, b: complex, sys: CompositeSystem) -> StateVector:
    spinor = np.array(_check_spinor(a, b), dtype=np.complex128)
    return StateVector(sys.dims[:2], np.kron(spinor, sys.apparatus_state.amplitudes))


# record 0, record 1, and minus the input: the weights that turn the
# <J> of an input's three premeasure kets into its drift
_DRIFT_WEIGHTS = np.array([1.0, 1.0, -1.0])


def _sector_j_means(kets: np.ndarray, weights: np.ndarray, raising: np.ndarray,
                    jz: np.ndarray) -> np.ndarray:
    """sum_s weights[s] (<Jx>, <Jy>, <Jz>) of each stack of sector kets, shape (..., 3).

    kets is (..., s, 2, 2L+2), slot-major: kets[..., s, a, k] is slot a of
    sector k (`_to_sectors`).  <J+> = sum_k x_k^dag R_k x_(k+1) reads the
    J+ blocks R of `_raising_blocks` and <Jz> the slot Jz, the blocks the
    build's [P, J] audit uses; <Jx> and <Jy> are the real and imaginary
    parts of <J+>.  The weighted sum over s is taken within each sector
    before the sectors are summed, so a drift, a small difference of O(L)
    means, is not rounded at the size of the means.  The sectors go
    `_SECTOR_CHUNK` at a time.
    """
    total = np.zeros(kets.shape[:-3] + (3,))
    n_sec = kets.shape[-1]
    for start in range(0, n_sec, _SECTOR_CHUNK):
        stop = min(start + _SECTOR_CHUNK, n_sec)
        x = kets[..., start:stop + 1]   # with sector `stop`, which J+ takes into the chunk
        bras = x.conj()
        bras *= weights[:, None, None]
        jplus = np.einsum("...sak,kab,...sbk->...k",
                          bras[..., :-1], raising[start:stop], x[..., 1:]).sum(axis=-1)
        jz_mean = np.einsum("...sak,ka,...sak->...k", bras[..., :stop - start], jz[start:stop],
                            x[..., :stop - start]).sum(axis=-1).real
        total += np.stack([jplus.real, jplus.imag, jz_mean], axis=-1)
    return total


def _premeasure_all(spinors, sys: CompositeSystem) -> list[StateVector]:
    """`premeasure` of each (a, b) in spinors on one device, in one sector pass.

    One (n, 3, 2, 2L+2) stack holds, for each input psi, the record-0 ket
    P+ psi, the record-1 ket P- psi and psi itself as slot-major sector
    amplitudes; the records are one einsum per projector.  The drift
    audit reads the whole stack in two einsum passes (`_sector_j_means`)
    and checks it input by input, so two inputs' drifts cannot cancel.
    """
    app = sys.apparatus_state.amplitudes
    pairs = np.array([_check_spinor(a, b) for a, b in spinors], dtype=np.complex128)
    kets = np.zeros((len(pairs), 3, 2, app.size + 1), dtype=np.complex128)
    psi = kets[:, 2]
    psi[:, 0, :-1] = pairs[:, :1] * app    # |up, m> is slot 0 of sector L - m
    psi[:, 1, 1:] = pairs[:, 1:] * app     # |down, m> is slot 1 of sector L - m + 1
    for r, p in enumerate((sys.plus_blocks, sys.minus_blocks)):
        np.einsum("kab,nbk->nak", p, psi, out=kets[:, r])
    drift = np.abs(_sector_j_means(kets, _DRIFT_WEIGHTS, sys.raising_blocks, sys.slot_jz))
    for axis, dev in zip("xyz" * len(pairs), drift.ravel().tolist()):
        if dev > NUMERICS.conservation_atol:
            raise ConservationError(
                f"<J{axis}> drifted by {dev:.3e} during premeasurement"
            )
    # the kron layout (particle, apparatus, record), copied once into the state
    return [StateVector(sys.dims, [rec[:, 0, :-1].T, rec[:, 1, 1:].T]) for rec in kets[:, :2]]


def premeasure(a: complex, b: complex, sys: CompositeSystem) -> StateVector:
    """Entangle psi = (a|up> + b|down>) (x) apparatus with a record at 0.

    The record ends holding P+ psi at 0 and P- psi at 1, applied sector by
    sector.  Audited: each <J_k>, summed over both record sectors, must
    match <psi|J_k|psi> to the conservation tolerance, else
    ConservationError.  This is the one-input case of `_premeasure_all`.
    """
    return _premeasure_all([(a, b)], sys)[0]


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


def decompose_branches(final: StateVector, sys: CompositeSystem) -> BranchDecomposition:
    if final.dims != sys.dims:
        raise ValueError(f"state dims {final.dims} do not match system {sys.dims}")
    t = final.amplitudes.reshape(sys.pa_dim, 2)
    branches = []
    omitted = []
    total = 0.0
    recon_dev = 0.0   # max |coeff * state - sector| over both sectors
    for r, label in enumerate(_LABELS):
        comp = t[:, r]
        weight = float(np.real(np.vdot(comp, comp)))
        if weight < NUMERICS.branch_weight_floor:
            omitted.append(label)
            recon_dev = max(recon_dev, np.max(np.abs(comp)))
            continue
        coeff = math.sqrt(weight)
        state = StateVector((2, sys.dims[1]), comp / coeff)
        branches.append((coeff, state, label))
        recon_dev = max(recon_dev, np.max(np.abs(coeff * state.amplitudes - comp)))
        total += weight
    if abs(total - 1.0) > NUMERICS.operator_atol:
        raise AssertionError(f"branch weights sum to {total!r}")
    if len(branches) == 2:
        ov = abs(branches[0][1].overlap(branches[1][1]))
        if ov > NUMERICS.state_atol:
            raise AssertionError(f"record sectors not orthogonal: {ov:.3e}")
    if recon_dev > NUMERICS.conservation_atol:
        raise AssertionError("branch reconstruction failed")
    return BranchDecomposition(
        branches=tuple(branches),
        source_state=final,
        omitted=tuple(omitted),
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


def _sectors(final: StateVector, sys: CompositeSystem) -> dict:
    """Label -> (coefficient, branch state), with (0.0, None) for an empty sector."""
    decomp = decompose_branches(final, sys)
    sectors = dict.fromkeys(decomp.omitted, (0.0, None))
    sectors.update((label, (coeff, state)) for coeff, state, label in decomp.branches)
    return sectors


def extract_error_amplitudes(sys: CompositeSystem) -> ErrorAmplitudes:
    """Run both eigenstate inputs, premeasured together, and read off C, D, E, F and the kets."""
    p, q = (_sectors(final, sys) for final in _premeasure_all([(1.0, 0.0), (0.0, 1.0)], sys))
    (c, u), (d_amp, d_err) = p["up"], p["dn"]
    (f, u_err), (e, d) = q["up"], q["dn"]
    for total, name in ((c * c + d_amp * d_amp, "C^2+D^2"),
                        (e * e + f * f, "E^2+F^2")):
        if abs(total - 1.0) > NUMERICS.operator_atol:
            raise AssertionError(f"{name} = {total!r} != 1")
    return ErrorAmplitudes(C=c, D=d_amp, E=e, F=f, u=u, u_err=u_err, d=d, d_err=d_err)


def verify_matching_equations(sys: CompositeSystem) -> np.ndarray:
    """Residuals of C F <u|J_k|u_err> + E D <d|J_k|d_err> = (1/2, -i/2, 0).

    Evaluated with the numerically extracted amplitudes, states, and
    brackets; raises ConservationError if any residual magnitude exceeds
    the conservation tolerance.
    """
    return _matching_residuals(sys, extract_error_amplitudes(sys))


def _matching_brackets(sys: CompositeSystem, amps: ErrorAmplitudes) -> list:
    """(weight, (<bra|Jx|ket>, <bra|Jy|ket>, <bra|Jz|ket>)) of each matching term.

    The terms are C F <u|J|u_err> and E D <d|J|d_err>, in that order; a
    term whose bra or ket is an empty sector is left out.
    """
    pairs = ((amps.C * amps.F, amps.u, amps.u_err), (amps.E * amps.D, amps.d, amps.d_err))
    return [(weight, _j_brackets(sys, bra.amplitudes, ket.amplitudes))
            for weight, bra, ket in pairs if bra is not None and ket is not None]


def _matching_residuals(sys: CompositeSystem, amps: ErrorAmplitudes,
                        terms: list | None = None) -> np.ndarray:
    """Residuals of the matching equations from their `_matching_brackets` terms."""
    if terms is None:
        terms = _matching_brackets(sys, amps)
    targets = np.array([0.5, -0.5j, 0.0], dtype=np.complex128)
    residuals = np.zeros(3, dtype=np.complex128)
    for k in range(3):
        lhs = 0.0 + 0.0j
        for weight, brackets in terms:
            lhs += weight * brackets[k]
        residuals[k] = lhs - targets[k]
    worst = float(np.max(np.abs(residuals)))
    if worst > NUMERICS.conservation_atol:
        raise ConservationError(
            f"matching equations violated: max residual {worst:.3e}"
        )
    return residuals


class BracketScalingRow(NamedTuple):
    L: float
    bracket_magnitude: float
    delta_l: float
    inv_delta_theta: float


def bracket_magnitude_scaling(L_list) -> list[BracketScalingRow]:
    """|<u|Jx|u_err>| against the apparatus angular spread, per L.

    All three columns grow like sqrt(L): the bracket is sqrt(2L+1)/2 in
    closed form, the aligned apparatus has delta_l = sqrt(L/2), and
    1/delta_theta = sqrt(2L).
    """
    if not L_list:
        raise ValueError("need at least one apparatus spin")
    rows = []
    for L in L_list:
        sys = build_measurement_unitary(L)
        amps = extract_error_amplitudes(sys)
        mag = abs(_j_brackets(sys, amps.u.amplitudes, amps.u_err.amplitudes)[0])
        spread = angular_spread(sys.apparatus_state, sys.spin_app)
        rows.append(BracketScalingRow(
            L=sys.L,
            bracket_magnitude=mag,
            delta_l=spread.delta_l,
            inv_delta_theta=1.0 / spread.delta_theta,
        ))
    return rows


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
