"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS/FAIL
lines.  Criterion 5 has two clauses and is split into 5a and 5b so the
verdicts are independently visible; 5b asserts the stated limit value
verbatim and is expected to fail (see README and the closed-form ratio
pinned in test_apparatus.py).
"""

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger.cli import main as cli_main
from spinledger.ideal import ViolationKind

PLUS_X = (0.7071067811865476, 0.7071067811865475)


def report(cid: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def random_spinor(rng):
    while True:
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        if abs(v[0]) > 1e-3 and abs(v[1]) > 1e-3:
            return complex(v[0]), complex(v[1])


def test_c01_thermal_estimate():
    th = sl.thermal_orientation_uncertainty(0.01, 300.0)
    ok = (
        abs(th.ikt - 4e-23) / 4e-23 <= 0.05
        and abs(th.delta_l - 6e-12) / 6e-12 <= 0.10
        and abs(th.delta_theta - th.hbar / th.delta_l) / th.delta_theta <= 1e-12
        and "order-of-magnitude" in th.note
    )
    report("1", ok,
           f"thermal estimate: IkT={th.ikt:.4e} (target 4e-23 +-5%), "
           f"delta_L={th.delta_l:.4e} (target 6e-12 +-10%), "
           f"delta_theta={th.delta_theta:.4e} flagged as rounding")


def test_c02_forced_ideal_brackets():
    rng = np.random.default_rng(20240201)
    worst = 0.0
    ok = True
    for _ in range(100):
        a, b = random_spinor(rng)
        br = sl.ideal_forced_cross_terms(a, b)
        worst = max(worst, br.max_residual)
        ok &= (
            br.cross_x == 0.5 and br.cross_y == -0.5j and br.cross_z == 0.0
            and br.max_residual <= 1e-12
        )
    report("2", ok,
           f"forced brackets (1/2, -i/2, 0); worst residual {worst:.2e} "
           f"over 100 random spinors (tol 1e-12)")


def test_c03_exact_conservation():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for L in (1, 2, 4, 8, 16, 32, 50):
        sys_m = sl.build_measurement_unitary(L)
        for _ in range(100):
            a, b = random_spinor(rng)
            initial = sl.StateVector(
                sys_m.dims,
                np.kron(np.kron([a, b], sys_m.apparatus_state.amplitudes), [1, 0]),
            )
            final = sl.premeasure(a, b, sys_m)
            for jk in dense_oracle.j_total(sys_m):
                drift = abs(np.vdot(final.amplitudes, jk @ final.amplitudes)
                            - np.vdot(initial.amplitudes, jk @ initial.amplitudes))
                worst = max(worst, drift)
    report("3", worst <= 1e-10,
           f"exact conservation over L in {{1..50}} x 100 spinors: "
           f"worst |<J>_final - <J>_initial| = {worst:.2e} (tol 1e-10)")


def test_c04_matching_equations():
    worst_res = 0.0
    worst_f = 0.0
    worst_br = 0.0
    for L in range(1, 51):
        sys_m = sl.build_measurement_unitary(L)
        res = sl.verify_matching_equations(sys_m)
        worst_res = max(worst_res, float(np.max(np.abs(res))))
        amps = sl.extract_error_amplitudes(sys_m)
        worst_f = max(worst_f, abs(amps.F - 1 / np.sqrt(2 * L + 1)))
        jx = dense_oracle.j_pa(sys_m)[0]
        mag = abs(np.vdot(amps.u.amplitudes, jx @ amps.u_err.amplitudes))
        worst_br = max(worst_br, abs(mag - np.sqrt(2 * L + 1) / 2))
    ok = worst_res <= 1e-10 and worst_f <= 1e-10 and worst_br <= 1e-10
    report("4", ok,
           f"matching equations for L=1..50: worst residual {worst_res:.2e}, "
           f"|F - 1/sqrt(2L+1)| <= {worst_f:.2e}, "
           f"|bracket - sqrt(2L+1)/2| <= {worst_br:.2e} (tol 1e-10)")


@pytest.fixture(scope="module")
def scaling_rows():
    return sl.bracket_magnitude_scaling(list(range(2, 51)))


def test_c05a_bracket_scaling_band(scaling_rows):
    ratios = [r.bracket_magnitude / r.inv_delta_theta for r in scaling_rows]
    in_band = all(0.2 <= r <= 5 for r in ratios)
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    report("5a", in_band and monotone,
           f"bracket/(1/delta_theta) stays in [0.2, 5] "
           f"({min(ratios):.4f}..{max(ratios):.4f}) and is monotone")


def test_c05b_bracket_scaling_sqrt2_limit(scaling_rows):
    # asserted verbatim from the acceptance criterion: the ratio at L=50
    # should be within 2% of sqrt(2).  The closed forms give
    # sqrt(2L+1)/2 / sqrt(L/2) = sqrt(1 + 1/(2L)) -> 1, so this fails;
    # see the decisions record and test_bracket_scaling_ratio_limit.
    row = next(r for r in scaling_rows if r.L == 50)
    ratio = row.bracket_magnitude / row.delta_l
    ok = abs(ratio - np.sqrt(2)) <= 0.02 * np.sqrt(2)
    report("5b", ok,
           f"bracket/delta_L at L=50 within 2% of sqrt(2): measured "
           f"{ratio:.6f} vs sqrt(2) = {np.sqrt(2):.6f}")


def test_c06_measurement_error_impossibility():
    f_values = []
    worst = 0.0
    for L in range(1, 41):
        amps = sl.extract_error_amplitudes(sl.build_measurement_unitary(L))
        f_values.append(amps.F)
        worst = max(worst, abs(amps.F ** 2 - 1 / (2 * L + 1)))
    ok = (
        all(f > 0 for f in f_values)
        and all(b < a for a, b in zip(f_values, f_values[1:]))
        and worst <= 1e-12
    )
    report("6", ok,
           f"error amplitude F > 0 and strictly decreasing over L=1..40; "
           f"worst |F^2 - 1/(2L+1)| = {worst:.2e} (tol 1e-12)")


def test_c07_violation_taxonomy():
    # TypeII on the idealized account
    r = 1 / np.sqrt(2)
    a = b = complex(r)
    br = sl.ideal_forced_cross_terms(a, b)
    ideal_report = sl.classify_violation(
        [0.5, 0, 0],
        [(a, br.diag_u), (b, br.diag_d)],
        a.conjugate() * b * br.cross(),
    )

    # TypeI on the apparatus model's Jz data
    systems = [sl.build_measurement_unitary(L) for L in (1, 2, 4, 8)]
    sys0 = systems[2]
    decomp = sl.decompose_branches(sl.premeasure(r, r, sys0), sys0)
    branches = [
        (c, [np.vdot(s.amplitudes, jk @ s.amplitudes).real for jk in dense_oracle.j_pa(sys0)])
        for c, s, _ in decomp.branches
    ]
    init = [0.5, 0.0, float(sys0.L)]
    jz_report = sl.classify_violation(init, branches, np.zeros(3, dtype=complex))

    # never TypeII across random apparatus configurations
    rng = np.random.default_rng(777)
    never_type_ii = True
    for i in range(1000):
        sys_m = systems[i % len(systems)]
        aa, bb = random_spinor(rng)
        final = sl.premeasure(aa, bb, sys_m)
        decomp = sl.decompose_branches(final, sys_m)
        branches = [
            (c, [np.vdot(s.amplitudes, jk @ s.amplitudes).real for jk in dense_oracle.j_pa(sys_m)])
            for c, s, _ in decomp.branches
        ]
        u_s = sl.bloch_vector(aa, bb).as_array()
        init = 0.5 * u_s + np.array([0.0, 0.0, float(sys_m.L)])
        rep = sl.classify_violation(init, branches, np.zeros(3, dtype=complex))
        never_type_ii &= rep.kind is not ViolationKind.TYPE_II
    ok = (
        ideal_report.kind is ViolationKind.TYPE_II
        and jz_report.kind is ViolationKind.TYPE_I
        and never_type_ii
    )
    report("7", ok,
           f"taxonomy: ideal data -> {ideal_report.kind.value}, apparatus Jz "
           f"-> {jz_report.kind.value}, no TypeII in 1000 random configs")


def test_c08_cross_term_suppression():
    sys_m = sl.build_measurement_unitary(2)
    r = 1 / np.sqrt(2)
    final = sl.premeasure(r, r, sys_m)
    probe = dense_oracle.check_hermitian(
        np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(sys_m.dims[1]))).__matmul__
    worst = 0.0
    for o in (0.5, 0.8, 0.99):
        baseline = sl.macroscopic_cross_term(final, probe, sys_m,
                                             sl.EnvironmentConfig(0, o))
        for n, bound in sl.overlap_decay_curve(o, 10):
            env = sl.EnvironmentConfig(n, o)
            amp = sl.amplify_record(final, sys_m, env)
            measured = sl.macroscopic_cross_term(amp, probe, sys_m, env)
            worst = max(worst, abs(abs(measured) - abs(baseline) * bound))
    env0 = sl.EnvironmentConfig(1, 0.0)
    zero = sl.macroscopic_cross_term(
        sl.amplify_record(final, sys_m, env0), probe, sys_m, env0)
    ok = worst <= 1e-10 and abs(zero) <= 1e-14
    report("8", ok,
           f"cross terms track o^n within {worst:.2e} (tol 1e-10) over "
           f"o in {{0.5, 0.8, 0.99}}, n = 0..10; exact zero at o = 0")


def test_c09_satellite_drift():
    run = sl.satellite_run(10_000, 8, *PLUS_X, seed=99)
    exact = all(s.ideal_ledger_j[0] == -s.step / 2 for s in run.trajectory)
    run100 = sl.satellite_run(100, 8, *PLUS_X, seed=5)
    worst = max(s.audit_deviation for s in run100.trajectory)
    ok = exact and worst <= 1e-10
    report("9", ok,
           f"ideal ledger x-drift is exactly -N/2 through N=10^4; "
           f"unconditioned <J> deviation {worst:.2e} per step at N=100, L=8")


def test_c10_internal_source_compensation():
    rep = sl.lucky_streak_j2(8, 4, "internal", K=16)
    ledger = rep.combined_jz_ledger
    drift = max(abs(v - ledger[0]) for v in ledger)

    plus_x = np.array([1, 1]) / np.sqrt(2)
    ks = np.array([4, 8, 16, 32])
    infs = []
    for K in ks:
        src = sl.coherent_spin_state(K, sl.DEFAULT_SOURCE_TILT, 0.0)
        rho = sl.partial_trace(sl.entangled_source_emit(src, K), keep=[1])
        infs.append(1 - float(np.real(plus_x.conj() @ rho @ plus_x)))
    slope = float(np.polyfit(np.log(ks), np.log(infs), 1)[0])
    ok = drift <= 1e-10 and -1.15 <= slope <= -0.85
    report("10", ok,
           f"internal source: combined Jz ledger drift {drift:.2e} "
           f"(K=16, n=8, tol 1e-10); infidelity slope {slope:.3f} "
           f"(target -1 +- 0.15)")


def test_c11_cli_determinism(tmp_path, capsys):
    files = []
    for name in ("one", "two"):
        path = tmp_path / f"{name}.csv"
        code = cli_main(["satellite", "--n", "50", "--L", "4", "--seed", "123",
                         "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        files.append(path.read_bytes())
    streak = []
    for name in ("s1", "s2"):
        path = tmp_path / f"{name}.json"
        code = cli_main(["streak", "--n", "3", "--L", "2", "--mode", "internal",
                         "--K", "4", "--seed", "11", "--format", "json",
                         "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        streak.append(path.read_bytes())
    ok = files[0] == files[1] and len(files[0]) > 0 and streak[0] == streak[1]
    report("11", ok,
           "seeded CLI runs repeated twice are byte-identical "
           f"({len(files[0])} bytes csv, {len(streak[0])} bytes json)")
