"""Record amplification into an environment and cross-term suppression.

Macroscopic distinguishability is modelled by copying the record into n
environment qubits with a tunable per-qubit overlap o between the two
conditional environment states.  Matrix elements of any operator between
the two macroscopic branches then pick up a factor o^n: orthogonal
copies (o = 0) kill them outright, near-identical copies (o close to 1)
only suppress them geometrically.  The environment carries no angular
momentum, so amplification leaves every conservation audit untouched.
Each branch's environment is a product state and is kept as its n
factor kets, so amplification and the cross term cost O(pa_dim + n).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .apparatus import CompositeSystem, decompose_branches
from .config import NUMERICS
from .kernel import StateVector

__all__ = [
    "AmplifiedRecord",
    "EnvironmentConfig",
    "amplify_record",
    "cross_term_curve",
    "macroscopic_cross_term",
    "overlap_decay_curve",
]


@dataclass(frozen=True)
class EnvironmentConfig:
    """n_qubits record copies with per-qubit conditional overlap copy_fidelity.

    copy_fidelity = 0 means each qubit is a perfect (orthogonal) copy of
    the record; values approaching 1 mean the qubit barely registers it;
    exactly 1 means the environment carries no record at all.
    """

    n_qubits: int
    copy_fidelity: float

    def __post_init__(self):
        if self.n_qubits < 0:
            raise ValueError(f"n_qubits must be >= 0, got {self.n_qubits!r}")
        if not 0.0 <= self.copy_fidelity <= 1.0:
            raise ValueError(
                f"copy_fidelity must lie in [0, 1], got {self.copy_fidelity!r}"
            )


@dataclass(frozen=True)
class AmplifiedRecord:
    """A premeasured state whose record has been copied into n qubits.

    Each record branch leaves the environment in a product state, so the
    environment is kept as its factor kets: env_kets[r, i] is qubit i's
    ket when the record reads r, shape (2, n, 2).  Memory is
    O(pa_dim + n); the 2^n amplitudes of the full state are never formed.
    """

    premeasured: StateVector
    env_kets: np.ndarray

    @property
    def dims(self) -> tuple[int, ...]:
        return self.premeasured.dims + (2,) * self.env_kets.shape[1]


def amplify_record(state: StateVector, sys: CompositeSystem,
                   env: EnvironmentConfig) -> StateVector | AmplifiedRecord:
    """Copy the record into env.n_qubits fresh qubits.

    Record up leaves each qubit in |0>; record down rotates it to
    cos(chi)|0> + sin(chi)|1> with cos(chi) = copy_fidelity.  The
    operation is a record-controlled product unitary, so branch weights
    and all angular-momentum expectations are unchanged, and `state`
    itself is returned for n = 0.  Factor kets of more than
    `NUMERICS.max_total_dim` amplitudes are refused before allocation.
    """
    if state.dims[:3] != sys.dims:
        raise ValueError(f"state dims {state.dims} do not match system {sys.dims}")
    if len(state.dims) != 3:
        raise ValueError("state already carries an environment register")
    size = 4 * env.n_qubits
    if size > NUMERICS.max_total_dim:
        raise ValueError(
            f"amplification refused: factor kets of 2 x {env.n_qubits} x 2 = {size} "
            f"amplitudes exceed the configured maximum {NUMERICS.max_total_dim}"
        )
    if env.n_qubits == 0:
        return state
    chi = math.acos(env.copy_fidelity)
    kets = np.empty((2, env.n_qubits, 2), dtype=np.complex128)
    kets[0] = (1.0, 0.0)
    kets[1] = (math.cos(chi), math.sin(chi))
    kets.setflags(write=False)
    return AmplifiedRecord(state, kets)


def cross_term_curve(state: StateVector | AmplifiedRecord,
                     a: Callable[[np.ndarray], np.ndarray],
                     sys: CompositeSystem,
                     env: EnvironmentConfig) -> list[complex]:
    """`macroscopic_cross_term` after the first n record copies, for n = 0..n_qubits.

    The branches are decomposed and the bracket taken once; entry n is the
    bracket times the running product of the first n per-qubit overlaps,
    one `np.cumprod` for the whole curve, so a table of n_qubits + 1 rows
    costs O(pa_dim + n_qubits).  Each entry equals the cross term of the
    state amplified with n qubits, bit for bit.
    """
    expected_dims = sys.dims + (2,) * env.n_qubits
    if state.dims != expected_dims:
        raise ValueError(
            f"state dims {state.dims} do not match system + environment "
            f"{expected_dims}"
        )
    premeasured = state.premeasured if isinstance(state, AmplifiedRecord) else state
    decomp = decompose_branches(premeasured, sys)
    if decomp.omitted:
        raise ValueError(f"record sector {decomp.omitted[0]} is empty")
    (_, up, _), (_, dn, _) = decomp.branches
    cross = complex(np.vdot(up.amplitudes, a(dn.amplitudes)))
    curve = [cross]
    if isinstance(state, AmplifiedRecord):
        kets = state.env_kets
        overlaps = np.cumprod(np.sum(kets[0].conj() * kets[1], axis=1))
        curve += [cross * product for product in overlaps.tolist()]
    return curve


def macroscopic_cross_term(state: StateVector | AmplifiedRecord,
                           a: Callable[[np.ndarray], np.ndarray],
                           sys: CompositeSystem,
                           env: EnvironmentConfig) -> complex:
    """<branch_up| A (x) 1_env |branch_dn> between normalized record sectors.

    a is the probe A as a function applying it to an amplitude vector of
    particle (x) apparatus, and is extended by the identity over the
    environment; the record label itself is factored out of each sector.
    The bracket is taken on particle (x) apparatus and multiplied by the
    product of the n per-qubit overlaps <e_up,i|e_dn,i>, so its magnitude
    is copy_fidelity**n_qubits times the unamplified value up to rounding.  It is the last entry of
    `cross_term_curve`.
    """
    return cross_term_curve(state, a, sys, env)[-1]


def overlap_decay_curve(o: float, n_max: int) -> list[tuple[int, float]]:
    """(n, o**n) for n = 0..n_max: the predicted cross-term suppression."""
    if not 0.0 <= o < 1.0:
        raise ValueError(f"overlap must lie in [0, 1), got {o!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max!r}")
    return [(n, o ** n) for n in range(n_max + 1)]
