"""States over tensor-product Hilbert spaces and their partial trace.

A state is a read-only unit vector labelled by an ordered tuple of
subsystem dimensions.  No operator matrix is formed here: each layer
applies its operators as bands, sector block stacks or functions on the
amplitudes.  hbar = 1 throughout the simulation layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NUMERICS

__all__ = ["ConservationError", "StateVector", "partial_trace"]


class ConservationError(RuntimeError):
    """An internal conservation audit failed.

    This signals a broken model or build, never a physical result; the
    CLI maps it to a distinct exit code.
    """


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
        amps = np.array(self.amplitudes, dtype=np.complex128, order="C").reshape(-1)
        if not np.all(np.isfinite(amps)):
            raise ValueError("non-finite amplitude encountered")
        amps.setflags(write=False)
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
