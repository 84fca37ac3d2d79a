"""Spin-j operator algebras, coherent spin states, and the Bloch map.

The apparatus in the measurement model is a single large spin-L, so the
same ladder-operator construction serves both the measured particle
(j = 1/2) and the device (j = L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import NUMERICS
from .kernel import Operator, StateVector, apply, expm_hermitian

__all__ = [
    "SpinOperators",
    "SpinLadder",
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
    """(a, b) as complex numbers, if |a|^2 + |b|^2 = 1 to the state tolerance."""
    a = complex(a)
    b = complex(b)
    nrm2 = abs(a) ** 2 + abs(b) ** 2
    if abs(nrm2 - 1.0) > NUMERICS.state_atol:
        raise ValueError(f"spinor not normalized: |a|^2 + |b|^2 = {nrm2!r}")
    return a, b


@dataclass(frozen=True)
class SpinOperators:
    """The spin-j algebra: Jx, Jy, Jz and ladder operators, dimension 2j+1."""

    j: float
    jx: Operator
    jy: Operator
    jz: Operator
    jplus: Operator
    jminus: Operator

    @property
    def dim(self) -> int:
        return self.jz.dim


@dataclass(frozen=True)
class SpinLadder:
    """The spin-j algebra as its two bands, in O(j) memory.

    m is the Jz diagonal j, j-1, ..., -j; jplus is the J+ superdiagonal,
    jplus[i] = <m_i|J+|m_(i+1)>.  Jx, Jy and J- follow from these two.
    """

    j: float
    m: np.ndarray
    jplus: np.ndarray

    @property
    def dim(self) -> int:
        return self.m.size


def _ladder(j: float) -> SpinLadder:
    """Closed-form bands of a checked half-integer spin j.

    <m+1|J+|m> = sqrt(j(j+1) - m(m+1)); every dense spin-j matrix in the
    package is built from these same numbers.
    """
    m = j - np.arange(round(2 * j + 1), dtype=np.float64)
    jplus = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    m.setflags(write=False)
    jplus.setflags(write=False)
    return SpinLadder(j=j, m=m, jplus=jplus)


def _ladder_matvec(lad: SpinLadder, v: np.ndarray, k: int, axis: int = -1) -> np.ndarray:
    """J_k v along one axis of v (k = 0, 1, 2 for x, y, z), from the bands in O(v.size)."""
    v = np.moveaxis(v, axis, -1)
    if k == 2:
        return np.moveaxis(lad.m * v, -1, axis)
    # Jx = (J+ + J-)/2, Jy = (J+ - J-)/2i
    out = np.zeros(v.shape, dtype=np.complex128)
    out[..., :-1] = lad.jplus * v[..., 1:]
    lowered = lad.jplus * v[..., :-1]
    if k == 0:
        out[..., 1:] += lowered
        out /= 2
    else:
        out[..., 1:] -= lowered
        out /= 2j
    return np.moveaxis(out, -1, axis)


def _ladder_bands(lad: SpinLadder) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jx, Jy and Jz of a ladder in the `_bands` layout (widths 1, 1 and 0)."""
    d = lad.dim
    x = np.zeros((3, d), dtype=np.complex128)
    y = np.zeros((3, d), dtype=np.complex128)
    x[2, :-1] = x[0, 1:] = lad.jplus / 2
    y[2, :-1] = lad.jplus / 2j
    y[0, 1:] = -lad.jplus / 2j
    return x, y, lad.m[None, :].astype(np.complex128)


def _bands(a: np.ndarray, width: int) -> np.ndarray:
    """Diagonals of a as a (2 width + 1, d) array: row width+k holds a[i, i+k], 0 out of range."""
    d = a.shape[0]
    out = np.zeros((2 * width + 1, d), dtype=np.complex128)
    for k in range(-width, width + 1):
        out[width + k, max(0, -k):d - max(0, k)] = np.diagonal(a, k)
    return out


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Diagonals of the product of two matrices given by their `_bands`."""
    wa, wb = a.shape[0] // 2, b.shape[0] // 2
    d = a.shape[1]
    out = np.zeros((2 * (wa + wb) + 1, d), dtype=np.complex128)
    for ka in range(-wa, wa + 1):
        # A[i, i+ka] B[i+ka, i+ka+kb] lands on diagonal ka+kb, for 0 <= i+ka < d
        lo, hi = max(0, -ka), d - max(0, ka)
        out[wa + ka:wa + ka + 2 * wb + 1, lo:hi] += a[wa + ka, lo:hi] * b[:, lo + ka:hi + ka]
    return out


def _check_algebra(j: float, jx: np.ndarray, jy: np.ndarray, jz: np.ndarray) -> None:
    """Raise unless [Jx, Jy] = i Jz and J^2 = j(j+1) hold to rounding.

    Jx and Jy must be tridiagonal and Jz diagonal, entry for entry; the
    residuals are then computed from the diagonals alone (`_check_bands`).
    """
    x, y, z = _bands(jx, 1), _bands(jy, 1), _bands(jz, 0)
    off_band = sum(np.count_nonzero(full) - np.count_nonzero(band)
                   for full, band in ((jx, x), (jy, y), (jz, z)))
    if off_band:
        raise ValueError(
            f"spin algebra failed self-check at j={j}: {off_band} entries off the band"
        )
    _check_bands(j, x, y, z)


def _check_bands(j: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> None:
    """The spin self-check on Jx, Jy (tridiagonal) and Jz (diagonal) given as `_bands`.

    The entries of the products grow as j (commutator) and j(j+1)
    (Casimir), and so does their float error, so each residual is gated
    at the operator tolerance times that scale.
    """
    # the products have five diagonals; row 2 is the main one.  Each
    # residual is reduced before the next is formed, to bound the memory
    comm = _band_product(x, y)
    comm -= _band_product(y, x)
    comm[2] -= 1j * z[0]
    comm = np.max(np.abs(comm))
    casimir = _band_product(x, x)
    casimir += _band_product(y, y)
    casimir[2] += z[0] ** 2 - j * (j + 1)
    casimir = np.max(np.abs(casimir))
    if (comm > NUMERICS.operator_atol * max(1.0, j)
            or casimir > NUMERICS.operator_atol * max(1.0, j * (j + 1))):
        raise ValueError(
            f"spin algebra failed self-check at j={j}: comm={comm:.3e}, "
            f"casimir={casimir:.3e}"
        )


def spin_operators(j) -> SpinOperators:
    """Standard ladder-operator construction of the spin-j algebra.

    Jz is diagonal with entries j, j-1, ..., -j and the ladder elements
    are <m+-1|J+-|m> = sqrt(j(j+1) - m(m+-1)).  The commutation relations
    and the Casimir identity are verified before the result is returned.
    """
    j = _check_spin(j)
    lad = _ladder(j)
    jz = np.diag(lad.m.astype(np.complex128))
    jp = np.diag(lad.jplus.astype(np.complex128), 1)
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j

    _check_algebra(j, jx, jy, jz)
    return SpinOperators(
        j=j,
        jx=Operator(jx, hermitian=True),
        jy=Operator(jy, hermitian=True),
        jz=Operator(jz, hermitian=True),
        jplus=Operator(jp),
        jminus=Operator(jm),
    )


def coherent_spin_state(j, theta: float, phi: float) -> StateVector:
    """Maximal-polarization spin-j state along the (theta, phi) direction.

    Built by rotating the highest-weight state |j, j> by theta about the
    axis (-sin phi, cos phi, 0), reusing the spectral exponential, so
    <J> = j * (sin theta cos phi, sin theta sin phi, cos theta).
    """
    return _coherent_state(_check_spin(j), theta, phi)


def _coherent_state(j: float, theta: float, phi: float) -> StateVector:
    """Coherent state of a checked spin j; dense spin-j operators only when theta != 0."""
    dim = round(2 * j + 1)
    top = np.zeros(dim, dtype=np.complex128)
    top[0] = 1.0
    if theta == 0.0:
        return StateVector((dim,), top)
    ops = spin_operators(j)
    gen = Operator(
        -math.sin(phi) * ops.jx.entries + math.cos(phi) * ops.jy.entries,
        hermitian=True,
    )
    rot = expm_hermitian(gen, theta)
    return apply(rot, StateVector((dim,), top))


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


def angular_spread(apparatus_state: StateVector,
                   ops: SpinOperators | SpinLadder) -> AngularSpread:
    """Transverse angular-momentum spread and the orientation angle it implies.

    delta_l is the standard deviation of Jx; delta_theta = delta_l / <Jz>
    is the operational orientation uncertainty of a device polarized
    roughly along +z.  Requires <Jz> > 0, otherwise the orientation of the
    state is undefined for this estimator.  Only ops.j and ops.dim are
    read: the moments come from the spin-j ladder bands in O(j), with
    <Jx^2> = |Jx psi|^2.
    """
    if apparatus_state.dim != ops.dim:
        raise ValueError(
            f"state dimension {apparatus_state.dim} does not match spin-"
            f"{ops.j} operators (dim {ops.dim})"
        )
    lad = _ladder(ops.j)
    psi = apparatus_state.amplitudes
    jz_mean = float(np.abs(psi) ** 2 @ lad.m)
    if jz_mean <= 0.0:
        raise ValueError(
            f"<Jz> = {jz_mean:.6g} <= 0: orientation undefined for this estimator"
        )
    jx_psi = _ladder_matvec(lad, psi, 0)
    var = np.vdot(jx_psi, jx_psi).real - np.vdot(psi, jx_psi).real ** 2
    delta_l = math.sqrt(max(var, 0.0))
    return AngularSpread(delta_l=delta_l, delta_theta=delta_l / jz_mean)
