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
from .kernel import ConservationError, StateVector

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

    The gate is written so that a nan norm fails it too, and an
    amplitude whose square overflows fails it as ValueError.
    """
    a = complex(a)
    b = complex(b)
    try:
        nrm2 = abs(a) ** 2 + abs(b) ** 2
    except OverflowError:   # a finite but huge amplitude
        nrm2 = math.inf
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
    Jx = (J+ + J-)/2, Jy = (J+ - J-)/2i.  All three are written into one
    buffer, the J- v product held in the Jz slot until Jz overwrites it,
    so a call allocates nothing else.  Pass a transposed view to act
    along another axis of a matrix.
    """
    jx, jy, jz = out = np.empty((3, *v.shape), dtype=np.complex128)
    np.multiply(ops.raising, v[..., 1:], out=jy[..., :-1])   # J+ v, zero-padded
    jy[..., -1] = 0.0
    np.copyto(jx, jy)
    lowered = np.multiply(ops.raising, v[..., :-1], out=jz[..., 1:])
    jx[..., 1:] += lowered
    jx /= 2
    jy[..., 1:] -= lowered
    jy /= 2j
    np.multiply(ops.m, v, out=jz)
    return jx, jy, jz


def _check_bands(j, m: np.ndarray, below: np.ndarray, above: np.ndarray) -> None:
    """Raise ConservationError unless [Jx, Jy] = i Jz and J^2 = j(j+1) hold to rounding on the bands.

    below[i] and above[i] are the J+ elements that join level i to the
    levels on either side of it, 0 past a spin's end.  Both residuals are
    diagonal: [Jx, Jy] - i Jz = i ((above_i^2 - below_i^2)/2 - m_i) and
    J^2 - j(j+1) = (above_i^2 + below_i^2)/2 + m_i^2 - j(j+1); every other
    diagonal cancels exactly.  Both float errors grow as eps j^2, and are
    gated level by level, nan failing, at the operator tolerance times
    max(1, j) and max(1, j(j+1)): j a scalar, or each level's own spin.
    The spins are already checked (`_check_spin`), so a failure is a broken
    algebra, not bad input.
    """
    above, below = above ** 2, below ** 2
    jj = j * (j + 1)
    comm = np.abs((above - below) / 2 - m)
    casimir = np.abs((above + below) / 2 + m ** 2 - jj)
    ok = comm <= NUMERICS.operator_atol * np.maximum(1.0, j)
    ok &= casimir <= NUMERICS.operator_atol * np.maximum(1.0, jj)
    if not ok.all():
        i = ok.argmin()
        raise ConservationError(f"spin algebra failed self-check at j={np.broadcast_to(j, m.shape)[i]}: "
                                f"comm={comm[i]:.3e}, casimir={casimir[i]:.3e}")


def _raising(j, m):
    """<m+1|J+|m> = sqrt(j(j+1) - m(m+1)) of spin j: exactly +0.0 at m = j and at m = -j - 1."""
    return np.sqrt(j * (j + 1) - m * (m + 1))


def _spin_bands(spins, windows=None) -> SpinOperators:
    """The `spin_operators` bands of checked spins laid end to end (j nan for several).

    Spin i holds its top windows[i] levels, by default all 2j+1.  Each
    level's J+ links to the levels above and below it are gated, the one out
    of a window's last level too; the band holds 0 in its place, as at each
    seam.  At a whole spin's ends the link is exactly +0.0 anyway.
    """
    dims = [round(2 * j + 1) for j in spins] if windows is None else windows
    if len(spins) == 1:   # a scalar j keeps one spin as cheap as its formula
        j = spins[0]
        m = j - np.arange(dims[0], dtype=np.float64)
    else:
        j = np.repeat(spins, dims)
        m = j - (np.arange(j.size) - np.repeat(np.cumsum(dims) - dims, dims))
    # m - 1 is the next level's m exactly, so above[i] has the bits of below[i + 1]
    below, above = _raising(j, m), _raising(j, m - 1.0)
    _check_bands(j, m, below, above)
    above[np.cumsum(dims) - 1] = 0.0
    raising = above[:-1]
    m.setflags(write=False)
    raising.setflags(write=False)
    return SpinOperators(spins[0] if len(spins) == 1 else math.nan, m, raising)


def spin_operators(j) -> SpinOperators:
    """Standard ladder-operator construction of the spin-j algebra.

    Jz is diagonal with entries j, j-1, ..., -j and the ladder elements
    are <m+-1|J+-|m> = sqrt(j(j+1) - m(m+-1)), held as those two bands in
    O(j).  The commutation relations and the Casimir identity are
    verified on the bands before the result is returned.
    """
    return _spin_bands([_check_spin(j)])


def coherent_spin_state(j, theta: float, phi: float) -> StateVector:
    """Maximal-polarization spin-j state along the (theta, phi) direction.

    The state |j, j> rotated by theta about the axis (-sin phi, cos phi, 0),
    so <J> = j * (sin theta cos phi, sin theta sin phi, cos theta).
    """
    psi = _coherent_state(_check_spin(j), theta, phi)
    return StateVector((psi.size,), psi)


def _coherent_state(j: float, theta: float, phi: float, levels=None) -> np.ndarray:
    """Amplitudes of the coherent state of a checked spin j on its top `levels` levels (all by default).

    The amplitude of |m> is e^(i phi (j-m)) d^j_(mj)(theta), with
    d^j_(mj)(theta) = sqrt(C(2j, j-m)) cos^(j+m)(theta/2) sin^(j-m)(theta/2)
    (Radcliffe 1971; Arecchi et al. 1972).  The magnitudes are built by the
    ratio a[i+1]/a[i] = sqrt((2j-i)/(i+1)) |tan(theta/2)|, i = j - m,
    outward from the mode of the binomial weights, then normalized; the
    signs of cos and sin restore theta outside (0, pi).  The caller gates the
    norm.  |j, j> costs O(levels); every other state O(j).
    """
    n = round(2 * j)
    if theta == 0.0:   # |j, j>
        psi = np.zeros(n + 1 if levels is None else levels, dtype=np.complex128)
        psi[0] = 1.0
        return psi
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
    return (mag * np.exp(1j * phi * i))[:levels]


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
    return _spread(psi, ops.m, _ladder_matvecs(ops, psi)[0])


def _spread(psi: np.ndarray, m: np.ndarray, jx_psi: np.ndarray) -> AngularSpread:
    """`angular_spread` of amplitudes psi, from the Jz diagonal m and Jx psi."""
    jz_mean = float(np.abs(psi) ** 2 @ m)
    if jz_mean <= 0.0:
        raise ValueError(
            f"<Jz> = {jz_mean:.6g} <= 0: orientation undefined for this estimator"
        )
    var = np.vdot(jx_psi, jx_psi).real - np.vdot(psi, jx_psi).real ** 2
    delta_l = math.sqrt(max(var, 0.0))
    return AngularSpread(delta_l=delta_l, delta_theta=delta_l / jz_mean)
