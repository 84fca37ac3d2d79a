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
    angular_spread,
    spin_operators,
)
from .config import NUMERICS
from .kernel import (
    ConservationError,
    Operator,
    StateVector,
    bracket,
    commutator_norm,
    expectation,
    expm_hermitian,
)

__all__ = [
    "CompositeSystem",
    "ErrorAmplitudes",
    "BranchDecomposition",
    "ThermalApparatus",
    "BracketScalingRow",
    "BOLTZMANN_K",
    "HBAR_SI",
    "manifold_projectors",
    "build_measurement_unitary",
    "measurement_unitary_from_interaction",
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


def _s_dot_l(s: SpinOperators, a: SpinOperators) -> np.ndarray:
    """S.L on spin-1/2 (x) spin-L."""
    return (
        np.kron(s.jx.entries, a.jx.entries)
        + np.kron(s.jy.entries, a.jy.entries)
        + np.kron(s.jz.entries, a.jz.entries)
    )


def manifold_projectors(L) -> tuple[Operator, Operator]:
    """Spectral projectors onto the total-j = L+1/2 and L-1/2 manifolds.

    S.L has exactly two eigenvalues on spin-1/2 (x) spin-L, namely L/2 on
    the stretched manifold and -(L+1)/2 on the other, so the projectors
    are first-order polynomials in S.L and inherit its exact rotational
    invariance.
    """
    L = _check_spin(L, 0.5, "apparatus spin")
    return _manifold_projectors(spin_operators(0.5), spin_operators(L))


def _manifold_projectors(s: SpinOperators, a: SpinOperators) -> tuple[Operator, Operator]:
    L = a.j
    dim = 2 * a.dim
    s_dot_l = _s_dot_l(s, a)
    lam_plus = L / 2.0
    lam_minus = -(L + 1) / 2.0
    plus = (s_dot_l - lam_minus * np.eye(dim)) / (lam_plus - lam_minus)
    minus = np.eye(dim) - plus

    for p, rank in ((plus, 2 * L + 2), (minus, 2 * L)):
        idem = np.max(np.abs(p @ p - p))
        if idem > NUMERICS.state_atol:
            raise AssertionError(f"projector not idempotent: {idem:.3e}")
        if abs(np.trace(p).real - rank) > NUMERICS.operator_atol:
            raise AssertionError(
                f"projector rank {np.trace(p).real!r} != {rank}"
            )
    return (
        Operator(plus, hermitian=True),
        Operator(minus, hermitian=True),
    )


@dataclass(frozen=True)
class CompositeSystem:
    """Particle (x) apparatus (x) record, stored on particle (x) apparatus only.

    The record carries no angular momentum, so U = P+ (x) 1 + P- (x) X and
    J = j_pa (x) 1 are fixed by the projectors and j_pa; `premeasure` applies
    U sector by sector.  `u_meas` and `j_total` build those dense
    4(2L+1)-square operators anew on each access, uncached, for tests and
    small-L demonstrations.
    """

    L: float
    tilt: float
    dims: tuple[int, int, int]
    apparatus_state: StateVector
    spin_half: SpinOperators
    spin_app: SpinOperators
    proj_plus: Operator
    proj_minus: Operator
    j_pa: tuple[Operator, Operator, Operator]

    @property
    def pa_dim(self) -> int:
        return self.dims[0] * self.dims[1]

    @property
    def u_meas(self) -> Operator:
        """Dense P+ (x) 1 + P- (x) X over the full composite."""
        x_rec = np.array([[0, 1], [1, 0]])
        return Operator(np.kron(self.proj_plus.entries, np.eye(2))
                        + np.kron(self.proj_minus.entries, x_rec), unitary=True)

    @property
    def j_total(self) -> tuple[Operator, Operator, Operator]:
        """Dense j_pa (x) 1 over the full composite, one Operator per axis."""
        return tuple(Operator(np.kron(jk.entries, np.eye(2)), hermitian=True)
                     for jk in self.j_pa)


def build_measurement_unitary(L, tilt: float = 0.0) -> CompositeSystem:
    """Assemble the composite system for apparatus spin L.

    With tilt = 0 the apparatus is the coherent state |L, L> aligned with
    the measurement axis, which makes the wrong-record amplitude for a
    +z particle exactly zero.  A positive tilt rotates the device by that
    angle toward +x, making all four error amplitudes nonzero.
    """
    L = _check_spin(L, 0.5, "apparatus spin")
    s = spin_operators(0.5)
    a = spin_operators(L)

    plus, minus = _manifold_projectors(s, a)
    p, m = plus.entries, minus.entries
    # U^dag U - 1 = (P+P+ + P-P- - 1) (x) 1 + (P+P- + P-P+) (x) X
    dev = max(np.max(np.abs(p @ p + m @ m - np.eye(p.shape[0]))),
              np.max(np.abs(p @ m + m @ p)))
    if dev > NUMERICS.operator_atol:
        raise ValueError(f"unitary flag violated: max|U^dag U - 1| = {dev:.3e}")

    j_pa = tuple(
        Operator(np.kron(sk.entries, np.eye(a.dim)) + np.kron(np.eye(2), ak.entries),
                 hermitian=True)
        for sk, ak in ((s.jx, a.jx), (s.jy, a.jy), (s.jz, a.jz))
    )

    # [U, J (x) 1] = [P+, J] (x) 1 + [P-, J] (x) X: the two blocks never
    # share an entry, so the max-entry norm is the larger block's
    for axis, jk in zip("xyz", j_pa):
        dev = max(commutator_norm(plus, jk), commutator_norm(minus, jk))
        if dev > NUMERICS.operator_atol:
            raise ConservationError(
                f"premeasurement unitary does not conserve J{axis}: "
                f"|[U, J]| = {dev:.3e}"
            )

    return CompositeSystem(
        L=L,
        tilt=float(tilt),
        dims=(2, a.dim, 2),
        apparatus_state=_coherent_state(a, tilt, 0.0),
        spin_half=s,
        spin_app=a,
        proj_plus=plus,
        proj_minus=minus,
        j_pa=j_pa,
    )


def measurement_unitary_from_interaction(L) -> Operator:
    """Cross-check path: the same unitary from an exponentiated coupling.

    exp(-i tau (S.L - (L/2)) (x) |minus><minus|_rec) with tau = pi/(L+1/2)
    reproduces the projector form without extra phases, because the two
    S.L eigenvalues differ by exactly L+1/2.
    """
    L = _check_spin(L, 0.5, "apparatus spin")
    a = spin_operators(L)
    dim = 2 * a.dim
    s_dot_l = _s_dot_l(spin_operators(0.5), a)
    g_rec = 0.5 * np.array([[1, -1], [-1, 1]], dtype=np.complex128)
    gen = Operator(np.kron(s_dot_l - (L / 2.0) * np.eye(dim), g_rec), hermitian=True)
    return expm_hermitian(gen, math.pi / (L + 0.5))


def _initial_state(a: complex, b: complex, sys: CompositeSystem) -> StateVector:
    spinor = np.array(_check_spinor(a, b), dtype=np.complex128)
    return StateVector(sys.dims[:2], np.kron(spinor, sys.apparatus_state.amplitudes))


def premeasure(a: complex, b: complex, sys: CompositeSystem) -> StateVector:
    """Entangle psi = (a|up> + b|down>) (x) apparatus with a record at 0.

    The record ends holding P+ psi at 0 and P- psi at 1.  Audited: each
    <J_k>, summed over both record sectors, must match <psi|J_k|psi> to
    the conservation tolerance, else ConservationError.
    """
    psi = _initial_state(a, b, sys)
    sectors = [p.entries @ psi.amplitudes for p in (sys.proj_plus, sys.proj_minus)]
    for axis, jk in zip("xyz", sys.j_pa):
        after = sum(np.vdot(t, jk.entries @ t) for t in sectors)
        drift = abs(after - expectation(psi, jk))
        if drift > NUMERICS.conservation_atol:
            raise ConservationError(
                f"<J{axis}> drifted by {drift:.3e} during premeasurement"
            )
    return StateVector(sys.dims, np.stack(sectors, axis=1))


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
    for r, label in enumerate(_LABELS):
        comp = t[:, r]
        weight = float(np.real(np.vdot(comp, comp)))
        if weight < NUMERICS.branch_weight_floor:
            omitted.append(label)
            continue
        coeff = math.sqrt(weight)
        branches.append((coeff, StateVector((2, sys.dims[1]), comp / coeff), label))
        total += weight
    if abs(total - 1.0) > NUMERICS.operator_atol:
        raise AssertionError(f"branch weights sum to {total!r}")
    if len(branches) == 2:
        ov = abs(branches[0][1].overlap(branches[1][1]))
        if ov > NUMERICS.state_atol:
            raise AssertionError(f"record sectors not orthogonal: {ov:.3e}")
    recon = np.zeros(final.dim, dtype=np.complex128)
    for coeff, state, label in branches:
        rec = np.zeros(2, dtype=np.complex128)
        rec[_LABELS.index(label)] = 1.0
        recon += coeff * np.kron(state.amplitudes, rec)
    if np.max(np.abs(recon - final.amplitudes)) > NUMERICS.conservation_atol:
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
    """Run both eigenstate inputs and read off C, D, E, F and the kets."""
    p = _sectors(premeasure(1.0, 0.0, sys), sys)
    q = _sectors(premeasure(0.0, 1.0, sys), sys)
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


def _matching_residuals(sys: CompositeSystem, amps: ErrorAmplitudes) -> np.ndarray:
    targets = np.array([0.5, -0.5j, 0.0], dtype=np.complex128)
    residuals = np.zeros(3, dtype=np.complex128)
    for k, jk in enumerate(sys.j_pa):
        lhs = 0.0 + 0.0j
        if amps.u is not None and amps.u_err is not None:
            lhs += amps.C * amps.F * bracket(amps.u, jk, amps.u_err)
        if amps.d is not None and amps.d_err is not None:
            lhs += amps.E * amps.D * bracket(amps.d, jk, amps.d_err)
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
        mag = abs(bracket(amps.u, sys.j_pa[0], amps.u_err))
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
    if moment_of_inertia <= 0:
        raise ValueError(f"moment_of_inertia must be positive, got {moment_of_inertia!r}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature!r}")
    ikt = moment_of_inertia * BOLTZMANN_K * temperature
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
