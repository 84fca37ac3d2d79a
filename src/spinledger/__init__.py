"""spinledger: angular-momentum bookkeeping for quantum spin measurement.

A numerical laboratory for the question of whether quantum measurement
violates conservation laws.  The pieces:

* kernel      states over tensor-product spaces and their partial trace
* angular     the banded spin-j algebra, closed-form coherent states,
              the Bloch map
* ideal       the idealized-measurement algebra and violation taxonomy
* apparatus   an exactly conserving quantum measuring device, kept as its
              Clebsch-Gordan sector blocks (dense oracle: tests/dense_oracle.py)
* decoherence record amplification and cross-term suppression
* experiments satellite ledgers and lucky-streak post-selection
* cli         batch interface emitting CSV/JSON tables

The public names below are imported from their submodule on first
access (PEP 562), so `import spinledger` alone loads no numpy: it leaves
the BLAS thread pool, and the environment that sizes it, to the program
that imports it.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "angular": ("AngularSpread", "BlochVector", "SpinOperators", "angular_spread",
                    "bloch_vector", "coherent_spin_state", "spin_operators"),
        "apparatus": ("BranchDecomposition", "CompositeSystem", "ErrorAmplitudes",
                      "ThermalApparatus", "bracket_magnitude_scaling",
                      "build_measurement_unitary", "decompose_branches",
                      "extract_error_amplitudes", "premeasure",
                      "thermal_orientation_uncertainty", "verify_matching_equations"),
        "config": ("NUMERICS", "NumericsConfig"),
        "decoherence": ("AmplifiedRecord", "EnvironmentConfig", "amplify_record",
                        "cross_term_curve", "macroscopic_cross_term", "overlap_decay_curve"),
        "experiments": ("DEFAULT_SOURCE_TILT", "SatelliteRun", "StreakReport",
                        "entangled_source_emit", "lucky_streak_j2", "prepare_internal_source",
                        "satellite_run"),
        "ideal": ("IdealBrackets", "ViolationKind", "ViolationReport", "classify_violation",
                  "ideal_forced_cross_terms", "weighted_branch_average"),
        "kernel": ("ConservationError", "StateVector", "partial_trace"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name, or one of the submodules that define them, on first access."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
