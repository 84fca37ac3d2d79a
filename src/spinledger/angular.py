"""The banded spin-j algebra, coherent spin states, and the Bloch map.

The apparatus in the measurement model is a single large spin-L, so the
same ladder-operator construction serves both the measured particle
(j = 1/2) and the device (j = L).  A spin is held as its two bands, and
coherent states are built in closed form, so both cost O(j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import NUMERICS
from .kernel import StateVector

__all__ = [
    "SpinOperators",
    "BlochVector",
    "AngularSpread",
    "spin_operators",
    "coherent_spin_state",
    "bloch_vector",
    "angular_spread",
]


def _check_spin(j, minimum: float = 0.0, name: str = "spin") -> float:
    """j rounded to a half-integer.

    Refuses j below minimum, j whose 2j is more than 1e-12 off an
    integer, and inf or nan, naming the value as `name`.
    """
    two_j = 2 * j
    if not math.isfinite(two_j) or abs(two_j - round(two_j)) > 1e-12 or j < minimum:
        raise ValueError(f"{name} must be a half-integer >= {minimum:g}, got {j!r}")
    return round(two_j) / 2.0


def _check_spinor(a: complex, b: complex) -> tuple[complex, complex]:
    """(a, b) as complex numbers, if |a|^2 + |b|^2 = 1 to the state tolerance.

    The gate is written so that a nan norm fails it too.
    """
    a = complex(a)
    b = complex(b)
    nrm2 = abs(a) ** 2 + abs(b) ** 2
    if not abs(nrm2 - 1.0) <= NUMERICS.state_atol:
        raise ValueError(f"spinor not normalized: |a|^2 + |b|^2 = {nrm2!r}")
    return a, b


@dataclass(frozen=True)
class SpinOperators:
    """The spin-j algebra as its two bands, in O(j) memory.

    m is the Jz diagonal j, j-1, ..., -j; raising is the J+ superdiagonal,
    raising[i] = <m_i|J+|m_(i+1)>.  Jx, Jy and J- follow from these two;
    `_ladder_matvecs` applies all three without forming a matrix.
    """

    j: float
    m: np.ndarray
    raising: np.ndarray

    @property
    def dim(self) -> int:
        return self.m.size


def _ladder_matvecs(ops: SpinOperators, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx v, Jy v, Jz v) along the last axis of v, from the bands in O(v.size).

    The zero-padded J+ v and the J- v products are formed once and shared:
    Jx = (J+ + J-)/2, Jy = (J+ - J-)/2i.  Pass a transposed view to act
    along another axis of a matrix.
    """
    raised = np.zeros(v.shape, dtype=np.complex128)
    raised[..., :-1] = ops.raising * v[..., 1:]
    lowered = ops.raising * v[..., :-1]
    jx = raised.copy()
    jx[..., 1:] += lowered
    jx /= 2
    jy = raised
    jy[..., 1:] -= lowered
    jy /= 2j
    return jx, jy, ops.m * v


def _check_bands(j: float, m: np.ndarray, raising: np.ndarray) -> None:
    """Raise unless [Jx, Jy] = i Jz and J^2 = j(j+1) hold to rounding on the bands.

    Both residuals are diagonal: with r_i = raising[i] (0 past either
    end), [Jx, Jy] - i Jz = i ((r_i^2 - r_(i-1)^2)/2 - m_i) and
    J^2 - j(j+1) = (r_i^2 + r_(i-1)^2)/2 + m_i^2 - j(j+1); every other
    diagonal cancels exactly.  Their float error grows as j (commutator)
    and j(j+1) (Casimir), so each is gated at the operator tolerance
    times that scale.
    """
    sq = np.zeros(m.size + 1)
    sq[1:-1] = raising ** 2
    above, below = sq[1:], sq[:-1]
    comm = float(np.max(np.abs((above - below) / 2 - m)))
    casimir = float(np.max(np.abs((above + below) / 2 + m ** 2 - j * (j + 1))))
    if (comm > NUMERICS.operator_atol * max(1.0, j)
            or casimir > NUMERICS.operator_atol * max(1.0, j * (j + 1))):
        raise ValueError(
            f"spin algebra failed self-check at j={j}: comm={comm:.3e}, "
            f"casimir={casimir:.3e}"
        )


def spin_operators(j) -> SpinOperators:
    """Standard ladder-operator construction of the spin-j algebra.

    Jz is diagonal with entries j, j-1, ..., -j and the ladder elements
    are <m+-1|J+-|m> = sqrt(j(j+1) - m(m+-1)), held as those two bands in
    O(j).  The commutation relations and the Casimir identity are
    verified on the bands before the result is returned.
    """
    j = _check_spin(j)
    m = j - np.arange(round(2 * j + 1), dtype=np.float64)
    raising = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    _check_bands(j, m, raising)
    m.setflags(write=False)
    raising.setflags(write=False)
    return SpinOperators(j=j, m=m, raising=raising)


def coherent_spin_state(j, theta: float, phi: float) -> StateVector:
    """Maximal-polarization spin-j state along the (theta, phi) direction.

    The state |j, j> rotated by theta about the axis (-sin phi, cos phi, 0),
    so <J> = j * (sin theta cos phi, sin theta sin phi, cos theta).
    """
    return _coherent_state(_check_spin(j), theta, phi)


def _coherent_state(j: float, theta: float, phi: float) -> StateVector:
    """Coherent state of a checked spin j, in closed form and O(j).

    The amplitude of |m> is e^(i phi (j-m)) d^j_(mj)(theta), with
    d^j_(mj)(theta) = sqrt(C(2j, j-m)) cos^(j+m)(theta/2) sin^(j-m)(theta/2)
    (Radcliffe 1971; Arecchi et al. 1972).  The magnitudes are built by the
    ratio a[i+1]/a[i] = sqrt((2j-i)/(i+1)) |tan(theta/2)|, i = j - m,
    outward from the mode of the binomial weights, then normalized; the
    signs of cos and sin restore theta outside (0, pi).
    """
    n = round(2 * j)
    if theta == 0.0:
        top = np.zeros(n + 1, dtype=np.complex128)
        top[0] = 1.0
        return StateVector((n + 1,), top)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    t = abs(s / c)
    mode = min(n, math.floor((n + 1) * s * s))
    i = np.arange(n + 1, dtype=np.float64)
    mag = np.ones(n + 1)
    # a[i+1]/a[i] for i >= mode, and a[i-1]/a[i] for 0 < i <= mode
    mag[mode + 1:] = np.cumprod(np.sqrt((n - i[mode:-1]) / (i[mode:-1] + 1)) * t)
    mag[:mode] = np.cumprod(np.sqrt(i[mode:0:-1] / (n - i[mode:0:-1] + 1)) / t)[::-1]
    mag /= np.linalg.norm(mag)
    # the sign of c^(n-i) s^i
    if c < 0 and n % 2:
        mag = -mag
    if c * s < 0:
        mag[1::2] = -mag[1::2]
    return StateVector((n + 1,), mag * np.exp(1j * phi * i))


@dataclass(frozen=True)
class BlochVector:
    """Unit polarization vector of a normalized spin-1/2 amplitude pair."""

    ux: float
    uy: float
    uz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.ux, self.uy, self.uz])


def bloch_vector(a: complex, b: complex) -> BlochVector:
    """Polarization direction of a|up> + b|down>.

    Components are (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2); the input pair
    must be normalized.
    """
    a, b = _check_spinor(a, b)
    cross = a.conjugate() * b
    return BlochVector(2 * cross.real, 2 * cross.imag,
                       abs(a) ** 2 - abs(b) ** 2)


class AngularSpread(NamedTuple):
    delta_l: float
    delta_theta: float


def angular_spread(apparatus_state: StateVector, ops: SpinOperators) -> AngularSpread:
    """Transverse angular-momentum spread and the orientation angle it implies.

    delta_l is the standard deviation of Jx; delta_theta = delta_l / <Jz>
    is the operational orientation uncertainty of a device polarized
    roughly along +z.  Requires <Jz> > 0, otherwise the orientation of the
    state is undefined for this estimator.  The moments come from the
    bands of ops in O(j), with <Jx^2> = |Jx psi|^2.
    """
    if apparatus_state.dim != ops.dim:
        raise ValueError(
            f"state dimension {apparatus_state.dim} does not match spin-"
            f"{ops.j} operators (dim {ops.dim})"
        )
    psi = apparatus_state.amplitudes
    jz_mean = float(np.abs(psi) ** 2 @ ops.m)
    if jz_mean <= 0.0:
        raise ValueError(
            f"<Jz> = {jz_mean:.6g} <= 0: orientation undefined for this estimator"
        )
    jx_psi = _ladder_matvecs(ops, psi)[0]
    var = np.vdot(jx_psi, jx_psi).real - np.vdot(psi, jx_psi).real ** 2
    delta_l = math.sqrt(max(var, 0.0))
    return AngularSpread(delta_l=delta_l, delta_theta=delta_l / jz_mean)
