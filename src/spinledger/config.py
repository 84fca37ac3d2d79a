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
    # satellite's n, and a quarter of the internal streak's (2K+1)^2 moments
    max_total_dim: int = 2**20
    # branches below this Born weight are dropped as empty
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
