"""Global numerics configuration.

All tolerances live in one place so the test suite is unambiguous about
what "equal" means.  State-level checks (norms, overlaps) use a tighter
tolerance than operator-level checks (unitarity, commutators), which
accumulate more rounding in matrix products.
"""

from dataclasses import dataclass


@dataclass
class NumericsConfig:
    # norm / amplitude checks on state vectors
    state_atol: float = 1e-12
    # unitarity, hermiticity, commutator checks on operators
    operator_atol: float = 1e-10
    # size cap checked before allocation: the device's full composite
    # 4(2L+1), amplification's 4 n_env factor-ket amplitudes, the
    # satellite's n, the streak's n, and a quarter of the internal streak's
    # (2K+1)^2 moments.
    # The CLI streams the satellite a block of rows at a time, so for it the
    # cap bounds the run time and the library's whole-run arrays, not memory
    max_total_dim: int = 2**20
    # a record below this Born weight is dropped as empty, and no audit
    # reads its amplitudes, which may lie far above the other tolerances
    branch_weight_floor: float = 1e-14
    # default threshold for "the cross-term contribution is zero":
    # far above kernel rounding, far below any physical bracket
    cross_term_tol: float = 1e-8
    # bookkeeping audit tolerance in the violation classifier
    audit_atol: float = 1e-8
    # conservation audits in simulations (expectation drift per step)
    conservation_atol: float = 1e-10


#: The single shared configuration instance.  Mutate fields here if a
#: different tolerance regime is needed; nothing else caches them.
NUMERICS = NumericsConfig()
