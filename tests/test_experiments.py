import numpy as np
import pytest

import emission_oracle
import spinledger as sl
import spinledger.experiments as ex
from dense_oracle import spin_matrices

CONS_ATOL = 1e-10

# float pair whose product rounds so that 2 Re(a* b) is exactly 1.0:
# the +x polarization at the last ulp
PLUS_X = (0.7071067811865476, 0.7071067811865475)


# ---------------------------------------------------------------- satellite

def test_plus_x_pair_is_exact():
    u = sl.bloch_vector(*PLUS_X)
    assert u.ux == 1.0


def test_ideal_ledger_linear_drift():
    run = sl.satellite_run(200, 4, *PLUS_X, seed=3)
    for k, step in enumerate(run.trajectory, start=1):
        assert step.ideal_ledger_j[0] == -k / 2
    assert run.trajectory[-1].ideal_ledger_j[0] == -100.0


def test_unconditioned_totals_never_move():
    run = sl.satellite_run(50, 8, *PLUS_X, seed=11)
    assert all(s.audit_deviation <= CONS_ATOL for s in run.trajectory)


def test_branch_resum_reproduces_initial():
    # weighted branch values re-sum to the pre-step expectation
    run = sl.satellite_run(1, 8, *PLUS_X, seed=0)
    total = sum(v["weight"] * v["j"] for v in run.branch_info.values())
    # initial: <J> = (1/2, 0, L) for +x input and an aligned device
    assert np.allclose(total, [0.5, 0.0, 8.0], atol=CONS_ATOL)


def test_per_branch_values_l8_closed_forms():
    # up branch carries the whole transverse 1/2: <Jx>_up = (2L+1)/(2L+2)
    run = sl.satellite_run(1, 8, *PLUS_X, seed=0)
    up = run.branch_info["up"]
    dn = run.branch_info["dn"]
    assert up["weight"] == pytest.approx(9 / 17, abs=1e-12)
    assert up["j"][0] == pytest.approx(17 / 18, abs=1e-12)
    assert dn["j"][0] == pytest.approx(0.0, abs=1e-12)
    assert dn["j"][2] == pytest.approx(7.5, abs=1e-12)  # <Jz> in |L-1/2, L-1/2>


def test_full_ledger_mean_drift_vanishes():
    # E[full ledger step] = 0 exactly: the weighted branch changes cancel
    run = sl.satellite_run(1, 8, *PLUS_X, seed=0)
    info = run.branch_info
    initial = np.array([0.5, 0.0, 8.0])
    mean = sum(v["weight"] * (v["j"] - initial) for v in info.values())
    assert np.max(np.abs(mean)) <= CONS_ATOL


def test_seeded_determinism():
    r1 = sl.satellite_run(64, 4, *PLUS_X, seed=42)
    r2 = sl.satellite_run(64, 4, *PLUS_X, seed=42)
    assert [s.outcome for s in r1.trajectory] == [s.outcome for s in r2.trajectory]
    assert all(
        s1.full_ledger_j == s2.full_ledger_j and s1.ideal_ledger_j == s2.ideal_ledger_j
        for s1, s2 in zip(r1.trajectory, r2.trajectory)
    )


def test_different_seed_differs():
    r1 = sl.satellite_run(64, 4, *PLUS_X, seed=1)
    r2 = sl.satellite_run(64, 4, *PLUS_X, seed=2)
    assert [s.outcome for s in r1.trajectory] != [s.outcome for s in r2.trajectory]


def test_born_fraction_within_binomial_bounds():
    n = 10_000
    run = sl.satellite_run(n, 8, *PLUS_X, seed=12345)
    ups = sum(1 for s in run.trajectory if s.outcome == "up")
    p = 9 / 17
    assert abs(ups / n - p) <= 3 * np.sqrt(p * (1 - p) / n)


def test_satellite_rejects_bad_n():
    with pytest.raises(ValueError, match="at least one"):
        sl.satellite_run(0, 2, *PLUS_X, seed=0)


# ---------------------------------------------------------------- emission map

def dense_jz_mean(state, K):
    """<Jz> of a spin-K state, read with the dense Jz."""
    kz = spin_matrices(sl.spin_operators(K))[2]
    return np.vdot(state.amplitudes, kz @ state.amplitudes).real


def test_streak_spin_half_matrices_are_the_ladder_formulas_bit_for_bit():
    # signed zeros included: the literal -0.5j would carry a -0.0 real part
    want = np.stack(spin_matrices(sl.spin_operators(0.5))[:3])
    assert np.array_equal(ex._SPIN_HALF.view(np.uint64), want.view(np.uint64))


def test_emission_is_isometric_and_conserves_jz():
    for K in (2, 4, 8):
        src = sl.coherent_spin_state(K, sl.DEFAULT_SOURCE_TILT, 0.0)
        out = sl.entangled_source_emit(src, K)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12
        kz_in = dense_jz_mean(src, K)
        kz_reg = spin_matrices(sl.spin_operators(K - 0.5))[2]
        sz = np.diag([0.5, -0.5])
        jz_out = np.kron(kz_reg, np.eye(2)) + np.kron(np.eye(round(2 * K)), sz)
        after = np.real(out.amplitudes.conj() @ jz_out @ out.amplitudes)
        assert abs(after - kz_in) <= CONS_ATOL


@pytest.mark.parametrize("K", [1, 4, 16.5, 100])
@pytest.mark.parametrize("source", ["coherent", "random"])
def test_emission_bands_match_the_dense_isometry_bit_for_bit(K, source):
    # each output amplitude is one band entry times one register amplitude;
    # the dense product adds only exact zeros to it, and no output is zero
    if source == "coherent":
        src = sl.coherent_spin_state(K, sl.DEFAULT_SOURCE_TILT, 0.7)
    else:
        rng, n = np.random.default_rng(round(4 * K)), round(2 * K + 1)
        src = sl.StateVector.normalized((n,), rng.normal(size=n) + 1j * rng.normal(size=n))
        kz = np.abs(src.amplitudes) ** 2 @ sl.spin_operators(K).m
        if kz <= 0:   # flip the register so the source is oriented
            src = sl.StateVector(src.dims, src.amplitudes[::-1].copy())
    want = emission_oracle.emission_matrix(K) @ src.amplitudes
    assert np.all(want != 0)
    out = sl.entangled_source_emit(src, K)
    assert out.dims == (round(2 * K), 2)
    assert out.amplitudes.tobytes() == want.tobytes()


def test_emission_runs_at_a_macroscopic_source():
    # the dense isometry would be (4K) x (2K+1) complex entries, 64 GiB at K = 1e5
    K = 1e5
    src = sl.coherent_spin_state(K, sl.DEFAULT_SOURCE_TILT, 0.0)
    out = sl.entangled_source_emit(src, K)
    assert out.dims == (200000, 2)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12
    rho = out.amplitudes.reshape(-1, 2)
    # <sigma_x> of the emitted particle: 1 - O(1/K) toward the +x target
    assert 0.99 < 2 * float(np.vdot(rho[:, 0], rho[:, 1]).real) < 1.0


def test_emission_requires_oriented_source():
    src = sl.coherent_spin_state(4, 2.0, 0.0)  # below the equator: <Kz> < 0
    with pytest.raises(ValueError, match="orientation undefined"):
        sl.entangled_source_emit(src, 4)


@pytest.mark.parametrize("K,max_infidelity", [(4, 0.027), (8, 0.016), (16, 0.008), (32, 0.004)])
def test_emitted_particle_infidelity(K, max_infidelity):
    # direct partial-trace oracle against the pure +x target
    src = sl.coherent_spin_state(K, sl.DEFAULT_SOURCE_TILT, 0.0)
    out = sl.entangled_source_emit(src, K)
    rho = sl.partial_trace(out, keep=[1])
    plus_x = np.array([1, 1]) / np.sqrt(2)
    infidelity = 1 - float(np.real(plus_x.conj() @ rho @ plus_x))
    assert 0 < infidelity <= max_infidelity


def test_emitted_particle_infidelity_scaling():
    ks = np.array([4, 8, 16, 32])
    plus_x = np.array([1, 1]) / np.sqrt(2)
    infs = []
    for K in ks:
        src = sl.coherent_spin_state(K, sl.DEFAULT_SOURCE_TILT, 0.0)
        rho = sl.partial_trace(sl.entangled_source_emit(src, K), keep=[1])
        infs.append(1 - float(np.real(plus_x.conj() @ rho @ plus_x)))
    slope = np.polyfit(np.log(ks), np.log(infs), 1)[0]
    assert -1.15 <= slope <= -0.85


def test_source_drops_half_per_up_emission():
    # conditioning the emitted particle on "up" shifts the source by
    # exactly -1/2 regardless of the source profile (interior weights are
    # level-independent); two up-emissions drop it by 1 and the combined
    # source+particles books do not move at all
    src = sl.prepare_internal_source(4, margin=2, tilt=np.pi / 3)
    kz0 = dense_jz_mean(src, 4)
    state, K = src, 4.0
    for step in (1, 2):
        out = sl.entangled_source_emit(state, K)
        up_comp = out.amplitudes.reshape(round(2 * K), 2)[:, 0]
        K -= 0.5
        state = sl.StateVector.normalized((round(2 * K + 1),), up_comp)
        kz = dense_jz_mean(state, K)
        assert kz - kz0 == pytest.approx(-0.5 * step, abs=CONS_ATOL)
        combined = kz + 0.5 * step  # each conditioned particle carries +1/2
        assert combined - kz0 == pytest.approx(0.0, abs=CONS_ATOL)


def test_sequential_emissions_entangle_the_pair():
    src = sl.coherent_spin_state(4, sl.DEFAULT_SOURCE_TILT, 0.0)
    two = emission_oracle.sequential_emissions(src, 4, 2)
    assert two.dims == (7, 2, 2)
    rho = sl.partial_trace(two, keep=[1, 2])
    purity = float(np.real(np.trace(rho @ rho)))
    assert purity < 0.99


@pytest.mark.parametrize("K,margin", [(1, 0), (1, 1), (2.5, 1), (4, 2), (16, 8), (7.5, 7)])
def test_internal_source_vacates_exactly_the_edge_levels(K, margin):
    # reference: the level-by-level loop over |m| > K - margin
    amps = sl.coherent_spin_state(K, sl.DEFAULT_SOURCE_TILT, 0.0).amplitudes.copy()
    for i in range(amps.size):
        if abs(K - i) > K - margin + 1e-9:
            amps[i] = 0.0
    want = amps / np.linalg.norm(amps)
    got = sl.prepare_internal_source(K, margin).amplitudes
    assert np.array_equal(got, want)


def test_internal_source_preparation_validates():
    with pytest.raises(ValueError, match="margin"):
        sl.prepare_internal_source(4, margin=-1)
    with pytest.raises(ValueError, match="too small"):
        sl.prepare_internal_source(2, margin=5)


# ---------------------------------------------------------------- lucky streaks

def test_external_streak_growth_and_oracle():
    report = sl.lucky_streak_j2(6, 2, "external")
    series = report.postselected_j2
    assert series[0] == 0.0
    # growth is quadratic: close to the fully aligned value k(k+2)/4 = 12
    assert series[-1] == pytest.approx(12.0, abs=0.5)
    assert all(b > a for a, b in zip(series, series[1:]))

    # explicit-construction oracle: 6-fold product of the conditioned
    # branch state, J^2 of the particle register evaluated directly
    sys_m = sl.build_measurement_unitary(2)
    r = 1 / np.sqrt(2)
    decomp = sl.decompose_branches(sl.premeasure(r, r, sys_m), sys_m)
    up_state = next(s for c, s, lbl in decomp.branches if lbl == "up")
    psi = np.ones(1, dtype=complex)
    for _ in range(6):
        psi = np.kron(psi, up_state.amplitudes)
    d_pa = up_state.dim
    t = psi.reshape([d_pa] * 6)
    j2 = 0.0
    for op2 in spin_matrices(sl.spin_operators(0.5))[:3]:
        op = np.kron(op2, np.eye(d_pa // 2))
        acc = np.zeros_like(t)
        for ax in range(6):
            acc = acc + np.moveaxis(np.tensordot(op, t, axes=([1], [ax])), 0, ax)
        j2 += float(np.real(np.vdot(acc, acc)))
    assert series[-1] == pytest.approx(j2, abs=1e-10)


def test_external_streak_postselected_jz():
    report = sl.lucky_streak_j2(6, 2, "external")
    # six aligned halves minus the small per-shot error
    assert report.postselected_jz[-1] == pytest.approx(3.0, abs=0.3)


def test_internal_streak_combined_ledger_constant():
    report = sl.lucky_streak_j2(4, 2, "internal", K=8)
    ledger = report.combined_jz_ledger
    assert max(abs(v - ledger[0]) for v in ledger) <= CONS_ATOL


def test_internal_streak_ledger_constant_for_mixed_patterns():
    for pattern in ("ud", "du", "dd"):
        report = sl.lucky_streak_j2(2, 2, "internal", K=4, pattern=pattern)
        ledger = report.combined_jz_ledger
        assert max(abs(v - ledger[0]) for v in ledger) <= CONS_ATOL


def test_internal_streak_j2_does_not_grow():
    report = sl.lucky_streak_j2(4, 2, "internal", K=8)
    series = report.postselected_j2
    assert all(v <= series[0] + 1e-9 for v in series)
    assert report.j2_band[0] >= 0.0


def test_internal_requires_k_at_least_n():
    with pytest.raises(ValueError, match="K too small"):
        sl.lucky_streak_j2(3, 2, "internal", K=2)


def test_internal_requires_k():
    with pytest.raises(ValueError, match="requires the source spin"):
        sl.lucky_streak_j2(2, 2, "internal")


def test_streak_rejects_bad_mode_and_pattern():
    with pytest.raises(ValueError, match="source_mode"):
        sl.lucky_streak_j2(2, 2, "sideways")
    with pytest.raises(ValueError, match="pattern"):
        sl.lucky_streak_j2(2, 2, "external", pattern="ux")


def test_single_shot_statistics_agree_across_modes():
    # the up weight is source-independent by construction, so internal
    # and external agree at every K, not merely asymptotically
    ext = sl.lucky_streak_j2(1, 4, "external")
    for K in (2, 4, 8, 16):
        intr = sl.lucky_streak_j2(1, 4, "internal", K=K)
        assert abs(intr.step_weights[0] - ext.step_weights[0]) <= CONS_ATOL
