"""Closed-form analysis of the idealized spin measurement.

An ideal z-measurement of a|up> + b|down> sends each eigenstate into a
definite macroscopic outcome state while conserving total angular
momentum in expectation.  Matching the spinor coefficients then forces
fixed off-diagonal matrix elements between the two outcome states, and
classifying where the books balance (per branch, in the branch average,
or only through those cross terms) yields the violation taxonomy used
throughout the rest of the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .angular import _check_spinor, bloch_vector
from .config import NUMERICS
from .kernel import ConservationError

__all__ = [
    "IdealBrackets",
    "ViolationKind",
    "ViolationReport",
    "ideal_forced_cross_terms",
    "weighted_branch_average",
    "classify_violation",
]

# per-branch angular momentum assumed for the two outcome states (hbar = 1)
_DIAG_UP = np.array([0.0, 0.0, +0.5])
_DIAG_DOWN = np.array([0.0, 0.0, -0.5])
# the forced off-diagonal elements <up-state|J_k|down-state>
_FORCED_CROSS = np.array([0.5, -0.5j, 0.0], dtype=np.complex128)


@dataclass(frozen=True)
class IdealBrackets:
    """Forced cross matrix elements of J between ideal outcome states."""

    cross_x: complex
    cross_y: complex
    cross_z: complex
    diag_u: np.ndarray
    diag_d: np.ndarray
    max_residual: float

    def cross(self) -> np.ndarray:
        return np.array([self.cross_x, self.cross_y, self.cross_z])


def ideal_forced_cross_terms(a: complex, b: complex) -> IdealBrackets:
    """Cross terms forced by expectation-value conservation, with audit.

    For any normalized spinor with both components present, matching the
    initial polarization (1/2)(2Re(a*b), 2Im(a*b), |a|^2-|b|^2) against
    |a|^2 <u|J|u> + 2Re[a*b <u|J|d>] + |b|^2 <d|J|d> forces
    <u|J|d> = (1/2, -i/2, 0), independent of a and b.  The returned
    residuals verify all three component equations for the given spinor.
    """
    a, b = _check_spinor(a, b)
    if a == 0 or b == 0:
        raise ValueError(
            "coefficient matching is underdetermined when a = 0 or b = 0: "
            "the cross terms never enter the expectation value"
        )
    initial = 0.5 * bloch_vector(a, b).as_array()
    reconstructed = (
        abs(a) ** 2 * _DIAG_UP
        + 2 * np.real(a.conjugate() * b * _FORCED_CROSS)
        + abs(b) ** 2 * _DIAG_DOWN
    )
    residual = float(np.max(np.abs(initial - reconstructed)))
    if residual > NUMERICS.state_atol:
        raise ConservationError(
            f"forced-bracket audit failed: residual {residual:.3e}"
        )
    return IdealBrackets(
        cross_x=complex(_FORCED_CROSS[0]),
        cross_y=complex(_FORCED_CROSS[1]),
        cross_z=complex(_FORCED_CROSS[2]),
        diag_u=_DIAG_UP.copy(),
        diag_d=_DIAG_DOWN.copy(),
        max_residual=residual,
    )


def weighted_branch_average(branches) -> np.ndarray:
    """Measure-weighted average sum_i |c_i|^2 v_i of per-branch values.

    branches: iterable of (coefficient, value) with sum |c_i|^2 = 1.
    """
    coeffs = np.array([complex(c) for c, _ in branches])
    values = np.array([np.asarray(v, dtype=float) for _, v in branches])
    weights = np.abs(coeffs) ** 2
    total = float(weights.sum())
    if not abs(total - 1.0) <= NUMERICS.operator_atol:   # a nan total fails too
        raise ValueError(f"branch weights not normalized: sum |c|^2 = {total!r}")
    return weights @ values


class ViolationKind(str, enum.Enum):
    NO_VIOLATION = "NoViolation"
    TYPE_I = "TypeI"
    TYPE_II = "TypeII"


@dataclass(frozen=True)
class ViolationReport:
    kind: ViolationKind
    conserved_initial: np.ndarray
    weighted_branch_average: np.ndarray
    required_cross_term_contribution: np.ndarray
    per_branch_values: tuple
    tolerance: float


def classify_violation(initial, branches, cross_contribution,
                       tolerance: float | None = None,
                       labels=None) -> ViolationReport:
    """Classify apparent nonconservation across decoherent branches.

    initial            conserved expectation value before the measurement
    branches           list of (coefficient, per-branch value 3-vector)
    cross_contribution complex 3-vector X = sum_{i<j} c_i* c_j <i|F|j>,
                       so the decomposition reads
                       <F> = sum_i |c_i|^2 <i|F|i> + 2 Re X
    tolerance          threshold below which X counts as zero

    The books must balance: weighted average + 2 Re X has to reproduce
    `initial`, otherwise the input model itself is inconsistent and a
    ConservationError is raised instead of a classification.
    """
    if tolerance is None:
        tolerance = NUMERICS.cross_term_tol
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    initial = np.asarray(initial, dtype=float)
    cross = np.asarray(cross_contribution, dtype=np.complex128)
    if initial.shape != (3,) or cross.shape != (3,):
        raise ValueError("initial and cross_contribution must be 3-vectors")
    if not (np.all(np.isfinite(initial)) and np.all(np.isfinite(cross.view(float)))):
        raise ValueError("non-finite input")

    branches = list(branches)
    if labels is None:
        labels = [f"branch-{i}" for i in range(len(branches))]
    avg = weighted_branch_average(branches)

    audit = np.max(np.abs(initial - (avg + 2 * np.real(cross))))
    if not audit <= NUMERICS.audit_atol:   # a nan branch value fails too
        raise ConservationError(
            f"inconsistent bookkeeping: weighted average + 2 Re(cross) misses "
            f"the initial value by {audit:.3e} (audit tolerance "
            f"{NUMERICS.audit_atol:g}); the input model does not conserve"
        )

    values = [np.asarray(v, dtype=float) for _, v in branches]
    cross_norm = float(np.linalg.norm(cross))
    if cross_norm > tolerance:
        kind = ViolationKind.TYPE_II
    else:
        spread = max(
            (float(np.max(np.abs(v - values[0]))) for v in values[1:]),
            default=0.0,
        )
        kind = ViolationKind.TYPE_I if spread > tolerance else ViolationKind.NO_VIOLATION

    return ViolationReport(
        kind=kind,
        conserved_initial=initial,
        weighted_branch_average=avg,
        required_cross_term_contribution=cross,
        per_branch_values=tuple((lbl, v) for lbl, v in zip(labels, values)),
        tolerance=float(tolerance),
    )
