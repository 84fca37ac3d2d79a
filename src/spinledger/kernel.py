"""Dense complex linear algebra over small tensor-product Hilbert spaces.

States are unit vectors labelled by an ordered tuple of subsystem
dimensions; operators are dense square matrices carrying verified
structure flags.  Everything is immutable after construction and safe to
share between workers.  hbar = 1 throughout the simulation layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NUMERICS

__all__ = [
    "ConservationError",
    "StateVector",
    "Operator",
    "identity",
    "basis_state",
    "random_state",
    "kron",
    "apply",
    "expectation",
    "bracket",
    "partial_trace",
]


class ConservationError(RuntimeError):
    """An internal conservation audit failed.

    This signals a broken model or build, never a physical result; the
    CLI maps it to a distinct exit code.
    """


def _frozen_complex(values, shape=None) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, order="C")
    if shape is not None:
        arr = arr.reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite amplitude encountered")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitude vector over a tensor-product basis.

    dims is the ordered list of subsystem dimensions; the amplitude
    layout follows the usual kron convention (leftmost factor is the
    slowest index).
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid subsystem dimensions {dims}")
        amps = _frozen_complex(self.amplitudes, shape=(-1,))
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude length {amps.size} does not match dims {dims} "
                f"(product {math.prod(dims)})"
            )
        nrm2 = float(np.real(np.vdot(amps, amps)))
        if abs(nrm2 - 1.0) > NUMERICS.state_atol:
            raise ValueError(f"state not normalized: |psi|^2 = {nrm2!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, dims, amplitudes) -> "StateVector":
        """Build a state from an unnormalized amplitude vector."""
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        nrm = np.linalg.norm(amps)
        if nrm < 1e-300:
            raise ValueError("cannot normalize a zero vector")
        return cls(tuple(dims), amps / nrm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def tensor(self) -> np.ndarray:
        """Read-only view shaped by subsystem."""
        return self.amplitudes.reshape(self.dims)

    def overlap(self, other: "StateVector") -> complex:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class Operator:
    """Dense square matrix with verified structure flags.

    The hermitian/unitary flags are checked at construction against the
    global tolerances, so a flagged operator is guaranteed to have the
    claimed structure (within rounding), not merely asserted to.
    """

    entries: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        mat = _frozen_complex(self.entries)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        if self.hermitian:
            dev = np.max(np.abs(mat - mat.conj().T))
            if dev > NUMERICS.state_atol:
                raise ValueError(f"hermitian flag violated: max|A - A^dag| = {dev:.3e}")
        if self.unitary:
            dev = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
            if dev > NUMERICS.operator_atol:
                raise ValueError(f"unitary flag violated: max|U^dag U - 1| = {dev:.3e}")
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def dagger(self) -> "Operator":
        return Operator(self.entries.conj().T, hermitian=self.hermitian,
                        unitary=self.unitary)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim), hermitian=True, unitary=True)


def basis_state(dims, occupation) -> StateVector:
    """Computational basis state |occupation[0], occupation[1], ...>."""
    dims = tuple(int(d) for d in dims)
    occ = tuple(int(i) for i in occupation)
    if len(occ) != len(dims) or any(not 0 <= i < d for i, d in zip(occ, dims)):
        raise ValueError(f"occupation {occ} invalid for dims {dims}")
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    flat = 0
    for i, d in zip(occ, dims):
        flat = flat * d + i
    amps[flat] = 1.0
    return StateVector(dims, amps)


def random_state(dims, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state (normalized complex Gaussian amplitudes)."""
    n = math.prod(int(d) for d in dims)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector.normalized(dims, amps)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product with the left factor as the slow index."""
    total = a.dim * b.dim
    if total > NUMERICS.max_total_dim:
        raise ValueError(
            f"kron refused: {a.dim} x {b.dim} = {total} exceeds the configured "
            f"maximum total dimension {NUMERICS.max_total_dim}"
        )
    return Operator(np.kron(a.entries, b.entries),
                    hermitian=a.hermitian and b.hermitian,
                    unitary=a.unitary and b.unitary)


def apply(a: Operator, psi: StateVector) -> StateVector:
    if a.dim != psi.dim:
        raise ValueError(f"dimension mismatch: operator {a.dim}, state {psi.dim}")
    return StateVector(psi.dims, a.entries @ psi.amplitudes)


def expectation(psi: StateVector, a: Operator) -> complex:
    """<psi|A|psi>.  Real up to rounding when A is flagged Hermitian."""
    if a.dim != psi.dim:
        raise ValueError(f"dimension mismatch: operator {a.dim}, state {psi.dim}")
    return complex(np.vdot(psi.amplitudes, a.entries @ psi.amplitudes))


def bracket(phi: StateVector, a: Operator, psi: StateVector) -> complex:
    """General matrix element <phi|A|psi>."""
    if a.dim != phi.dim or a.dim != psi.dim:
        raise ValueError(
            f"dimension mismatch: operator {a.dim}, bra {phi.dim}, ket {psi.dim}"
        )
    return complex(np.vdot(phi.amplitudes, a.entries @ psi.amplitudes))


def partial_trace(psi: StateVector, keep) -> np.ndarray:
    """Reduced density matrix over the kept subsystems (in listed order)."""
    keep = [int(k) for k in keep]
    n = len(psi.dims)
    if any(not 0 <= k < n for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"invalid subsystem selection {keep} for {n} subsystems")
    t = psi.tensor()
    rest = [i for i in range(n) if i not in keep]
    perm = keep + rest
    t = np.transpose(t, perm)
    d_keep = math.prod(psi.dims[k] for k in keep)
    t = t.reshape(d_keep, -1)
    return t @ t.conj().T
