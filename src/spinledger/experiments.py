"""Repeated-measurement bookkeeping: satellite ledgers and lucky streaks.

Two seeded Monte Carlo studies over measurement branches:

* satellite_run feeds a stream of identically polarized particles into
  fresh measuring devices and keeps two ledgers side by side: the
  idealized account, in which the transverse polarization of every
  measured particle simply vanishes (so the books drift linearly with the
  particle count), and the full quantum account, in which the
  unconditioned totals never move at all.

* lucky_streak_j2 post-selects an all-up run of outcomes and asks
  whether the squared total angular momentum grows.  With externally
  supplied pure particles it does (the aligned post-selected spins add
  up).  With particles emitted by a finite spin-K source inside the
  system, the source is entangled with each emission and its ledger
  drops in step with every registered "up", so the combined books stay
  balanced for any streak.

The emission map sends |K, m> to an equal-amplitude pair
(|K-1/2, m-1/2>|up> + |K-1/2, m+1/2>|down>)/sqrt(2): each basis sector
of total Jz maps into itself, so total Jz is conserved exactly, and the
emitted particle is transversely polarized along the azimuth of the
source orientation.  A source prepared away from the register edges
makes the post-selected compensation exact rather than approximate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .angular import (
    SpinOperators,
    _check_spin,
    bloch_vector,
    coherent_spin_state,
    spin_operators,
)
from .apparatus import (
    _LABELS,
    _aligned_devices,
    _read_branches,
    _read_shot,
    _read_spin,
    build_measurement_unitary,
)
from .config import NUMERICS
from .ideal import _DIAG_DOWN, _DIAG_UP
from .kernel import ConservationError, StateVector

__all__ = [
    "DEFAULT_SOURCE_TILT",
    "SatelliteStep",
    "SatelliteRun",
    "StreakReport",
    "satellite_run",
    "entangled_source_emit",
    "prepare_internal_source",
    "lucky_streak_j2",
]

PRNG_ID = "numpy.random.PCG64"

# Polar angle of the internal source's coherent state.  Close enough to
# the equator that the emitted particle is nearly pure +x (the deviation
# falls off as 1/K), but strictly above it so the source orientation
# along +z stays positive.
DEFAULT_SOURCE_TILT = math.radians(85.0)

# The particle's dense (Sx, Sy, Sz) for the internal streak, with every zero +0.0
# as the ladder construction (J+ +- J-)/2 and /2i leaves it.
_SPIN_HALF_MATRICES = np.array([[[0, 0.5], [0.5, 0]],
                                [[0, complex(0, -0.5)], [complex(0, 0.5), 0]],
                                [[0.5, 0], [0, -0.5]]], dtype=np.complex128)
_SPIN_HALF_MATRICES.setflags(write=False)


# --------------------------------------------------------------------------
# satellite ledgers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SatelliteStep:
    step: int
    outcome: str
    branch_weight: float
    per_branch_j: tuple[float, float, float]
    ideal_ledger_j: tuple[float, float, float]
    full_ledger_j: tuple[float, float, float]
    audit_deviation: float


@dataclass(frozen=True)
class SatelliteRun:
    """A satellite run: the shot it repeats, and its rows replayed on demand.

    The shot is one fresh device's branches: `branch_info`, the audit and
    `step_rows`, where step_rows[0] and step_rows[1] are the ideal and full
    ledgers' per-step changes, each a (dn, up) pair of rows.  `blocks`
    replays the seeded run a block of rows at a time.  outcome_up[k] is True
    when particle k+1 registered up; ideal_ledger and full_ledger are the
    (n, 3) cumulative ledgers after each step.  The three arrays are built
    by one whole-run block on first read and kept, read-only; `trajectory`
    builds the per-step `SatelliteStep` records from them on each access,
    uncached.
    """

    n_particles: int
    L: float
    polarization: tuple[complex, complex]
    seed: int
    audit_deviation: float
    branch_info: dict
    step_rows: np.ndarray = field(repr=False)
    metadata: dict = field(repr=False)

    def blocks(self, size: int):
        """Yield (outcome_up, ideal_ledger, full_ledger) rows, `size` steps at a time.

        One PCG64 stream draws each block's outcomes with one
        `rng.random(m)`, the stream of n single draws; `_pcg64` draws
        numpy's bits without importing `numpy.random`.  Each block adds the
        previous block's last ledger row into its first step and then
        accumulates with `np.cumsum`, so every ledger entry is the same
        in-order sum, bit for bit, whatever the block size.  The first
        block adds +0.0, which turns a leading -0.0 step into +0.0.  Every
        block is fresh arrays.  A size below 1 raises ValueError.
        """
        if size < 1:
            raise ValueError(f"block size must be at least 1, got size={size!r}")
        from ._pcg64 import PCG64Stream

        rng = PCG64Stream(self.seed)
        w_up = self.branch_info["up"]["weight"]
        last = np.zeros((2, 3))
        for start in range(0, self.n_particles, size):
            up = rng.random(min(size, self.n_particles - start)) < w_up
            ledgers = self.step_rows[:, up.astype(np.intp)]
            ledgers[:, 0] += last
            np.cumsum(ledgers, axis=1, out=ledgers)
            last = ledgers[:, -1].copy()
            yield up, ledgers[0], ledgers[1]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        arrays = next(self.blocks(self.n_particles))
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    @property
    def outcome_up(self) -> np.ndarray:
        return self._arrays[0]

    @property
    def ideal_ledger(self) -> np.ndarray:
        return self._arrays[1]

    @property
    def full_ledger(self) -> np.ndarray:
        return self._arrays[2]

    @property
    def trajectory(self) -> tuple[SatelliteStep, ...]:
        branch = {label: (v["weight"], tuple(v["j"].tolist()))
                  for label, v in self.branch_info.items()}
        return tuple(
            SatelliteStep(
                step=k,
                outcome=label,
                branch_weight=branch[label][0],
                per_branch_j=branch[label][1],
                ideal_ledger_j=tuple(ideal),
                full_ledger_j=tuple(full),
                audit_deviation=self.audit_deviation,
            )
            for k, label, ideal, full in zip(
                range(1, self.n_particles + 1),
                ("up" if u else "dn" for u in self.outcome_up.tolist()),
                self.ideal_ledger.tolist(),
                self.full_ledger.tolist(),
            )
        )


def satellite_run(n: int, L, a: complex, b: complex, seed: int) -> SatelliteRun:
    """Measure n identically polarized particles, one fresh device each.

    Every step samples the record outcome by its Born weight and appends
    two cumulative ledgers: the idealized account discards the incoming
    transverse polarization (so its x-entry reaches -n/2 for +x input),
    while the full account adds the sampled branch's conditional change.
    The unconditioned totals are audited against their initial values at
    every step.  Trajectories are deterministic given (n, L, a, b, seed).
    This runs the shot, which every step repeats; the steps themselves are
    drawn and accumulated when read (`SatelliteRun.blocks`).  A run of more
    than `NUMERICS.max_total_dim` particles, or with a non-integer n or a
    seed that is not a non-negative integer, is refused before anything is
    allocated.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"need an integer n of at least one particle, got n={n!r}")
    if n > NUMERICS.max_total_dim:
        raise ValueError(
            f"satellite_run refused: n = {n} particles exceeds the configured "
            f"maximum total dimension {NUMERICS.max_total_dim}"
        )
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(
            f"satellite_run refused: seed must be a non-negative integer, got seed={seed!r}"
        )
    device = _aligned_devices([L])
    u_s = bloch_vector(a, b).as_array()

    # an empty record has weight 0 and the input's <J>
    coeffs, _, (*branch_j, initial_j) = _read_branches(a, b, device)
    info = {label: {"weight": coeff ** 2, "j": j}
            for label, coeff, j in zip(_LABELS, coeffs, branch_j)}

    # unconditioned final expectation: branch mixture, record cross terms
    # vanish identically in this model
    final_j = sum(v["weight"] * v["j"] for v in info.values())
    audit = float(np.max(np.abs(final_j - initial_j)))
    if audit > NUMERICS.conservation_atol:
        raise ConservationError(
            f"unconditioned totals drifted by {audit:.3e} in the satellite shot"
        )

    step_rows = np.array([
        np.array([_DIAG_DOWN, _DIAG_UP]) - 0.5 * u_s,
        [info["dn"]["j"] - initial_j, info["up"]["j"] - initial_j],
    ])
    step_rows.setflags(write=False)

    return SatelliteRun(
        n_particles=int(n),
        L=device.spins[0],
        polarization=(complex(a), complex(b)),
        seed=int(seed),
        audit_deviation=audit,
        branch_info=info,
        step_rows=step_rows,
        metadata={
            "prng": PRNG_ID,
            "seed": int(seed),
            "apparatus": "fresh device per particle; cumulative bookkeeping via ledgers",
            "ideal_ledger": "per step: (0,0,+-1/2) minus the incoming polarization/2",
            "full_ledger": "per step: sampled-branch <J> minus the shot's initial <J>",
        },
    )


# --------------------------------------------------------------------------
# entangled emission
# --------------------------------------------------------------------------

def _emission_bands(K: float) -> np.ndarray:
    """The two channels of the emission map, shape (2, 2K).

    Entry [p, i] is the amplitude with which register level i + p of spin K
    feeds level i of spin K-1/2 with the particle up (p = 0) or down
    (p = 1): 1/sqrt(2) for interior levels, 1 for the edge level that has
    only one outgoing channel.  Every channel keeps total Jz, so the map
    commutes with total Jz exactly.
    """
    bands = np.full((2, round(2 * K)), 1.0 / math.sqrt(2.0))
    bands[0, 0] = 1.0    # m = K can only emit up
    bands[1, -1] = 1.0   # m = -K can only emit down
    return bands


def entangled_source_emit(source_state: StateVector, K) -> StateVector:
    """Emit one transversely polarized particle from a spin-K source.

    Returns the entangled source (x) particle state, with the source
    register now spin K-1/2.  Total Jz is conserved exactly; for a large
    coherent source the particle's reduced state approaches the pure
    polarization along the source azimuth with infidelity of order 1/K.
    Requires an oriented source, <Kz> > 0.
    """
    K = _check_spin(K, 1.0, "source spin")
    d_in = round(2 * K + 1)
    if source_state.dims != (d_in,):
        raise ValueError(
            f"source dims {source_state.dims} do not match spin K={K} "
            f"(expected ({d_in},))"
        )
    kz_mean = float(np.abs(source_state.amplitudes) ** 2 @ spin_operators(K).m)
    if kz_mean <= 0.0:
        raise ValueError(
            f"<Kz> = {kz_mean:.6g} <= 0: source orientation undefined"
        )
    # output level i takes register level i (up) and level i + 1 (down)
    bands = _emission_bands(K)
    psi = source_state.amplitudes
    out = np.stack([bands[0] * psi[:-1], bands[1] * psi[1:]], axis=1)
    return StateVector((round(2 * K), 2), out.reshape(-1))


def prepare_internal_source(K, margin: int,
                            tilt: float = DEFAULT_SOURCE_TILT) -> StateVector:
    """Coherent source state with the register edges vacated.

    Zeroes all levels with |m| > K - margin and renormalizes.  A margin
    of n keeps the support strictly inside the register through n
    emissions for any outcome pattern, which is what makes the
    post-selected ledger compensation exact.
    """
    K = _check_spin(K, 1.0, "source spin")
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    if K - margin < 0:
        raise ValueError(
            f"source spin K={K} too small for edge margin {margin}"
        )
    amps = coherent_spin_state(K, tilt, 0.0).amplitudes.copy()
    # levels i = K - m with |m| > K - margin
    amps[:margin] = 0.0
    amps[amps.size - margin:] = 0.0
    nrm = np.linalg.norm(amps)
    if nrm < 1e-12:
        raise ValueError(
            f"truncation to |m| <= {K - margin} leaves no amplitude"
        )
    return StateVector((amps.size,), amps / nrm)


# --------------------------------------------------------------------------
# lucky streaks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StreakReport:
    pattern: str
    source_mode: str
    source_K: float | None
    postselected_j2: tuple[float, ...]
    postselected_jz: tuple[float, ...]
    combined_jz_ledger: tuple[float, ...] | None
    step_weights: tuple[float, ...]
    j2_band: tuple[float, float]
    metadata: dict = field(repr=False)


def _channel_weights(K: float) -> np.ndarray:
    """bands[p, i] bands[q, j] of the emission channels, shape (2, 2, 2K, 2K)."""
    bands = _emission_bands(K)
    return bands[:, None, :, None] * bands[None, :, None, :]


def _channel_pairs(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """E_p x E_q^dag for both emission channels p, q, as the rows (p, q) of a (4, d*d) array.

    E_p maps level i + p to level i with amplitude bands[p, i], so each
    product is the shifted slice x[p:p+d, q:q+d] scaled by the
    `_channel_weights`; the four slices are one strided view of x.
    """
    d = weights.shape[-1]
    windows = as_strided(x, (2, 2, d, d), x.strides * 2, writeable=False)
    return (windows * weights).reshape(4, d * d)


def _fold_coefficients(amp: np.ndarray, op: np.ndarray | None = None) -> np.ndarray:
    """The (1, 4) row of `_fold` for the Kraus maps M_s = sum_p amp[s, p] E_p.

    Entry (p, q) is sum_{s,s'} op[s', s] conj(amp[s', q]) amp[s, p], the
    coefficient of E_p x E_q^dag in the fold; op defaults to the identity.
    """
    gram = amp.conj().T @ (amp if op is None else op @ amp)
    return gram.T.reshape(1, 4)


def _fold(coeffs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """sum_{s,s'} op[s', s] M_s x M_s'^dag from its `_fold_coefficients` and x's `_channel_pairs`.

    One (1, 4) by (4, d*d) dot: the reshape-and-dot that
    `np.tensordot(gram.T, pairs, axes=2)` performs, bit for bit.
    """
    return np.dot(coeffs, pairs).reshape(math.isqrt(pairs.shape[1]), -1)


def _trace(x: np.ndarray) -> float:
    """Re Tr x."""
    return float(np.real(np.trace(x)))


def _ladder_trace(ops: SpinOperators, x: np.ndarray, axis: int) -> float:
    """Re Tr(K_axis x) (axis 0, 1, 2 for x, y, z), read from the spin-K bands in O(K)."""
    if axis == 2:
        return float(np.real(ops.m @ np.diagonal(x)))
    below, above = np.diagonal(x, -1), np.diagonal(x, 1)   # x[i+1, i], x[i, i+1]
    paired = below + above if axis == 0 else (below - above) / 1j
    return float(np.real(ops.raising @ paired)) / 2


def _external_streak(L, pattern: str) -> tuple:
    """Fresh pure +x particles; post-selected register moments.

    Each post-selected shot leaves the particle in the same conditional
    state, independent across shots (fresh devices), so the accumulated
    register is a product state and its moments follow in closed form
    from the single-shot reduced state.  Returns `_internal_streak`'s parts, with no ledger.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    coeffs, present, spins = _read_spin(inv_sqrt2, inv_sqrt2, _aligned_devices([L]))
    # each branch's weight, particle <S> and variance, read once per label
    by_label = {label: (coeff ** 2, m, 0.75 - float(m @ m))
                for coeff, have, m, label in zip(coeffs, present, spins.real, _LABELS) if have}

    j2_series = [0.0]
    jz_series = [0.0]
    weights = []
    mean_sum = np.zeros(3)
    var_sum = 0.0
    for ch in pattern:
        weight, m, var = by_label["up" if ch == "u" else "dn"]
        weights.append(weight)
        mean_sum = mean_sum + m
        var_sum += var
        # product state over shots: <J^2> = sum_i <S_i^2> + |sum_i <S_i>|^2
        #                                  - sum_i |<S_i>|^2
        j2_series.append(var_sum + float(mean_sum @ mean_sum))
        jz_series.append(float(mean_sum[2]))
    return j2_series, jz_series, None, weights, {
        "particles": "fresh pure +x input per shot",
        "register": "post-selected particles only",
    }


def _internal_streak(n: int, L, K: float, pattern: str) -> tuple:
    """Spin-K source feeding the device; moments carried on the source register.

    The post-measurement particle+device pair occupies a fixed
    four-dimensional slot per shot (particle (x) top-two apparatus
    levels), so a shot with record r acts on the source through the Kraus
    maps M_s = sum_p A[s, p] E_p: E_p are the two emission channels and
    A[s, p] the slot-s amplitude of the record-r shot of particle state p.
    The conditioned state is a matrix-product state whose bond is the
    source, and every reported moment is carried on the source alone.
    With rho = Tr_slots |Psi><Psi|, sigma = Tr_slots[(sum_a O^a) |Psi><Psi|]
    and tau the same with (sum_a O^a)^2, for a slot operator O, a shot maps

        rho'   = sum_s M_s rho M_s^dag
        sigma' = sum_s M_s sigma M_s^dag + sum_{s,s'} O_{s's} M_s rho M_s'^dag
        tau'   = sum_s M_s tau M_s^dag + 2 sum_{s,s'} O_{s's} M_s sigma M_s'^dag
                 + sum_{s,s'} (O^2)_{s's} M_s rho M_s'^dag

    and all three are divided by the step weight Tr rho'.  The slot sums
    fold into 2x2 coefficients on the four banded products E_p X E_q^dag.
    Those coefficients depend only on the record letter, so each letter's
    nine rows (all of particle (x) apparatus, the slot, jz_slot, and each
    axis's O and O^2) are formed once before the streak; a step then takes
    one strided view per moment matrix for its four products and one
    (1, 4) by (4, d*d) dot per fold, and costs O(K^2) time and memory.
    A source whose dense (2K+1)-square moments exceed 4 x
    `NUMERICS.max_total_dim` entries (K > 1023.5 at the default budget) is
    refused before anything is allocated.  Returns the <J^2>, <Jz> and ledger
    series, the step weights and this mode's metadata for `lucky_streak_j2`.
    """
    if K < n:
        raise ValueError(
            f"K too small for n in internal mode: the exact-compensation "
            f"construction needs an edge margin of n, so K >= n (got K={K}, "
            f"n={n})"
        )
    d_source = round(2 * K + 1)
    if d_source ** 2 > 4 * NUMERICS.max_total_dim:
        raise ValueError(
            f"internal streak refused: K={K} needs {d_source}-square source moment "
            f"matrices of {d_source ** 2} entries, more than 4 x the configured "
            f"maximum total dimension {NUMERICS.max_total_dim}"
        )
    sys = build_measurement_unitary(L)
    # U (particle (x) |L,L> (x) |rec 0>) per record, as (row, incoming
    # particle): all of particle (x) apparatus, and the slot
    shots, slots, jz = _read_shot(sys)
    jz_slot = np.diag(jz).astype(np.complex128)
    id2 = np.eye(2)
    s_slot = [np.kron(op, id2) for op in _SPIN_HALF_MATRICES]

    psi = prepare_internal_source(K, margin=n).amplitudes
    rho = np.outer(psi, psi.conj())
    sigma = [np.zeros_like(rho) for _ in s_slot]
    tau = [np.zeros_like(rho) for _ in s_slot]
    ledger_sigma = np.zeros_like(rho)
    k_cur = K

    def moments(slots: int) -> tuple[float, float, float]:
        """<J^2> and <Jz> of source + particles, and the combined Jz ledger."""
        ops = spin_operators(k_cur)
        # sum_a Tr(K_a^2 rho) is the Casimir K(K+1) Tr rho of the register
        j2 = k_cur * (k_cur + 1) * _trace(rho)
        for axis, (sig, ta) in enumerate(zip(sigma, tau)):
            j2 += 2 * _ladder_trace(ops, sig, axis) + _trace(ta)
        kz = _ladder_trace(ops, rho, 2)
        # the ledger also counts each device, less its initial <Lz> = L,
        # so it audits changes, not absolute offsets
        return j2, kz + _trace(sigma[2]), kz + _trace(ledger_sigma) - slots * sys.L

    def fold_rows(ch: str) -> tuple:
        """A record-ch shot's `_fold_coefficients`: whole shot, slot, jz_slot, each O and O^2."""
        r = 0 if ch == "u" else 1
        amp = slots[r]
        return (_fold_coefficients(shots[r]), _fold_coefficients(amp),
                _fold_coefficients(amp, jz_slot),
                [_fold_coefficients(amp, op) for op in s_slot],
                [_fold_coefficients(amp, op @ op) for op in s_slot])

    rows = {ch: fold_rows(ch) for ch in set(pattern)}
    series = [moments(0)]
    weights = []
    for step, ch in enumerate(pattern):
        full, slot, jz_row, s_rows, s2_rows = rows[ch]
        chan = _channel_weights(k_cur)
        rho_pairs = _channel_pairs(rho, chan)
        # record-r weight over all of particle (x) apparatus, slot or not
        w_full = _trace(_fold(full, rho_pairs))
        rho_new = _fold(slot, rho_pairs)
        w_slot = _trace(rho_new)
        if w_full - w_slot > NUMERICS.state_atol:
            raise ConservationError(
                f"conditioned state leaked out of the slot subspace by "
                f"{w_full - w_slot:.3e}"
            )
        if w_slot < NUMERICS.branch_weight_floor:
            raise ConservationError(
                f"post-selected pattern has vanishing weight at step {step}"
            )
        for axis, (s_row, s2_row) in enumerate(zip(s_rows, s2_rows)):
            sig_pairs = _channel_pairs(sigma[axis], chan)
            tau[axis] = (_fold(slot, _channel_pairs(tau[axis], chan))
                         + 2 * _fold(s_row, sig_pairs)
                         + _fold(s2_row, rho_pairs)) / w_slot
            sigma[axis] = (_fold(slot, sig_pairs) + _fold(s_row, rho_pairs)) / w_slot
        ledger_sigma = (_fold(slot, _channel_pairs(ledger_sigma, chan))
                        + _fold(jz_row, rho_pairs)) / w_slot
        rho = rho_new / w_slot
        k_cur -= 0.5
        weights.append(w_slot)
        series.append(moments(step + 1))

    j2_series, jz_series, ledger = zip(*series)
    return j2_series, jz_series, ledger, weights, {
        "source": f"spin-{K} coherent state, tilt {DEFAULT_SOURCE_TILT:.6f} rad, "
                  f"edge margin {n}",
        "register": "source + post-selected particles (J^2); combined ledger "
                    "additionally counts each device with its initial <Lz> "
                    "subtracted",
    }


def lucky_streak_j2(n: int, L, source_mode: str, K=None, seed: int = 0,
                    pattern: str | None = None) -> StreakReport:
    """Post-selected growth of <J^2> along an outcome streak.

    source_mode "external": fresh pure +x particles; the post-selected
    spin register's <J^2> grows quadratically along an all-up streak.
    source_mode "internal": particles come from a spin-K source inside
    the system via the conserving emission map; the combined
    source+particles books stay bounded and the combined Jz ledger is
    constant for every pattern.

    pattern defaults to the all-up streak of length n.  seed is recorded
    in the metadata (and the CLI header) for provenance; the post-selected
    analysis is deterministic and draws no random numbers.  A streak of
    more than `NUMERICS.max_total_dim` measurements is refused before
    anything is allocated.
    """
    if n < 1:
        raise ValueError(f"need at least one measurement, got n={n!r}")
    if n > NUMERICS.max_total_dim:
        raise ValueError(
            f"lucky_streak_j2 refused: n = {n} measurements exceeds the configured "
            f"maximum total dimension {NUMERICS.max_total_dim}"
        )
    if pattern is None:
        pattern = "u" * n
    if len(pattern) != n or any(ch not in "ud" for ch in pattern):
        raise ValueError(f"pattern must be n characters of 'u'/'d', got {pattern!r}")
    if source_mode == "external":
        j2, jz, ledger, weights, facts = _external_streak(L, pattern)
    elif source_mode == "internal":
        if K is None:
            raise ValueError("internal mode requires the source spin K")
        K = _check_spin(K, 1.0, "source spin")
        j2, jz, ledger, weights, facts = _internal_streak(n, L, K, pattern)
    else:
        raise ValueError(f"unknown source_mode {source_mode!r}")
    return StreakReport(
        pattern=pattern,
        source_mode=source_mode,
        source_K=K if source_mode == "internal" else None,
        postselected_j2=tuple(j2),
        postselected_jz=tuple(jz),
        combined_jz_ledger=ledger,
        step_weights=tuple(weights),
        j2_band=(min(j2), max(j2)),
        metadata={"prng": PRNG_ID, **facts, "seed": int(seed)},
    )
