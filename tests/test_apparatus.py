import dataclasses

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger import apparatus
from spinledger.cli import main as cli_main

CONS_ATOL = 1e-10


def j_squared_pa(L):
    """Total J^2 over particle (x) apparatus, built independently."""
    s = dense_oracle.spin_matrices(sl.spin_operators(0.5))
    a = dense_oracle.spin_matrices(sl.spin_operators(L))
    n = a[0].shape[0]
    total = np.zeros((2 * n, 2 * n), dtype=complex)
    for sk, ak in zip(s[:3], a[:3]):
        jk = np.kron(sk, np.eye(n)) + np.kron(np.eye(2), ak)
        total += jk @ jk
    return total


def eig_projector_oracle(L):
    """Manifold projectors from brute-force diagonalization of J^2."""
    w, v = np.linalg.eigh(j_squared_pa(L))
    j_plus = (L + 0.5) * (L + 1.5)
    plus_cols = v[:, np.abs(w - j_plus) < 1e-6]
    plus = plus_cols @ plus_cols.conj().T
    return plus, np.eye(plus.shape[0]) - plus


# ---------------------------------------------------------------- projectors

@pytest.mark.parametrize("L", [0.5, 1, 2, 5])
def test_projectors_match_eigendecomposition_oracle(L):
    plus, minus = dense_oracle.manifold_projectors(L)
    oplus, ominus = eig_projector_oracle(L)
    assert np.max(np.abs(plus - oplus)) <= 1e-12
    assert np.max(np.abs(minus - ominus)) <= 1e-12


@pytest.mark.parametrize("L", [0.5, 1, 3.5, 8])
def test_projector_algebra(L):
    plus, minus = dense_oracle.manifold_projectors(L)
    d = plus.shape[0]
    assert np.max(np.abs(plus + minus - np.eye(d))) <= 1e-12
    assert np.max(np.abs(plus @ plus - plus)) <= 1e-12
    assert np.trace(plus).real == pytest.approx(2 * L + 2, abs=1e-9)
    assert np.trace(minus).real == pytest.approx(2 * L, abs=1e-9)


def test_projector_ranks_two_spin_half():
    # two spin-1/2: triplet rank 3, singlet rank 1
    plus, minus = dense_oracle.manifold_projectors(0.5)
    assert np.trace(plus).real == pytest.approx(3, abs=1e-12)
    assert np.trace(minus).real == pytest.approx(1, abs=1e-12)


@pytest.mark.parametrize("L", [1, 2, 6])
def test_projectors_commute_with_total_j(L):
    plus, _ = dense_oracle.manifold_projectors(L)
    sys_m = sl.build_measurement_unitary(L)
    for jk in dense_oracle.j_pa(sys_m):
        assert dense_oracle.commutator_norm(plus, jk) <= 1e-12


def test_stretched_state_lies_in_plus_manifold():
    L = 3
    plus, _ = dense_oracle.manifold_projectors(L)
    psi = np.zeros(2 * (2 * L + 1), dtype=complex)
    psi[0] = 1.0  # |up> (x) |L, L>
    assert np.max(np.abs(plus @ psi - psi)) <= 1e-12


@pytest.mark.parametrize("L,expected", [(1, 1 / 3), (2, 1 / 5), (8, 1 / 17)])
def test_down_stretched_projection_weight(L, expected):
    # Clebsch-Gordan oracle: |<plus manifold| down,LL>|^2 = 1/(2L+1)
    plus, _ = dense_oracle.manifold_projectors(L)
    d_app = round(2 * L + 1)
    psi = np.zeros(2 * d_app, dtype=complex)
    psi[d_app] = 1.0  # |down> (x) |L, L>
    proj = plus @ psi
    assert np.real(np.vdot(proj, proj)) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- unitary

@pytest.mark.parametrize("L", [1, 2, 5, 10.5])
def test_measurement_unitary_conserves_all_components(L):
    sys_m = sl.build_measurement_unitary(L)
    for jk in dense_oracle.j_total(sys_m):
        assert dense_oracle.commutator_norm(dense_oracle.u_meas(sys_m), jk) <= 1e-12


@pytest.mark.parametrize("L", [1, 2, 4.5])
def test_interaction_variant_reproduces_projector_unitary(L):
    sys_m = sl.build_measurement_unitary(L)
    alt = dense_oracle.measurement_unitary_from_interaction(L)
    assert np.max(np.abs(dense_oracle.u_meas(sys_m) - alt)) <= 1e-10


def test_invalid_apparatus_spin():
    with pytest.raises(ValueError, match="half-integer"):
        sl.build_measurement_unitary(0.3)


# ---------------------------------------------------------------- premeasure

def test_premeasure_up_eigenstate_never_flips_record():
    sys_m = sl.build_measurement_unitary(3)
    final = sl.premeasure(1.0, 0.0, sys_m)
    decomp = sl.decompose_branches(final, sys_m)
    assert [b[2] for b in decomp.branches] == ["up"]
    assert decomp.omitted == ("dn",)
    assert decomp.branches[0][0] == pytest.approx(1.0, abs=1e-12)


def test_premeasure_down_eigenstate_flip_probability():
    # record flips with probability 2L/(2L+1): Clebsch-Gordan oracle
    sys_m = sl.build_measurement_unitary(1)
    final = sl.premeasure(0.0, 1.0, sys_m)
    weights = {lbl: c ** 2 for c, _, lbl in sl.decompose_branches(final, sys_m).branches}
    assert weights["dn"] == pytest.approx(2 / 3, abs=1e-12)
    assert weights["up"] == pytest.approx(1 / 3, abs=1e-12)


def test_premeasure_equal_superposition_flip_probability():
    sys_m = sl.build_measurement_unitary(4)
    r = 1 / np.sqrt(2)
    final = sl.premeasure(r, r, sys_m)
    weights = {lbl: c ** 2 for c, _, lbl in sl.decompose_branches(final, sys_m).branches}
    assert weights["dn"] == pytest.approx(4 / 9, abs=1e-12)  # (1/2)(2L/(2L+1))


def test_premeasure_conserves_expectations_random_spinors():
    rng = np.random.default_rng(99)
    for L in (1, 4):
        sys_m = sl.build_measurement_unitary(L)
        for _ in range(25):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            initial = sl.StateVector(
                sys_m.dims,
                np.kron(np.kron(v, sys_m.apparatus_state.amplitudes), [1, 0]),
            )
            final = sl.premeasure(v[0], v[1], sys_m)
            for jk in dense_oracle.j_total(sys_m):
                drift = abs(np.vdot(final.amplitudes, jk @ final.amplitudes)
                            - np.vdot(initial.amplitudes, jk @ initial.amplitudes))
                assert drift <= CONS_ATOL


def test_premeasure_transverse_expectation_preserved():
    # +x input: <Jx> = 1/2 before and after (apparatus contributes none)
    sys_m = sl.build_measurement_unitary(4)
    r = 1 / np.sqrt(2)
    final = sl.premeasure(r, r, sys_m)
    v = final.amplitudes
    assert np.vdot(v, dense_oracle.j_total(sys_m)[0] @ v).real == pytest.approx(0.5, abs=1e-12)


def test_premeasure_rejects_unnormalized():
    sys_m = sl.build_measurement_unitary(1)
    with pytest.raises(ValueError, match="not normalized"):
        sl.premeasure(1.0, 1.0, sys_m)


# ---------------------------------------------------------------- branches

def test_branch_reconstruction_many_random_spinors():
    rng = np.random.default_rng(7)
    sys_m = sl.build_measurement_unitary(2)
    for _ in range(50):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        final = sl.premeasure(v[0], v[1], sys_m)
        decomp = sl.decompose_branches(final, sys_m)  # reconstruction checked inside
        total = sum(c ** 2 for c, _, _ in decomp.branches)
        assert total == pytest.approx(1.0, abs=1e-10)
        if len(decomp.branches) == 2:
            ov = abs(decomp.branches[0][1].overlap(decomp.branches[1][1]))
            assert ov <= 1e-12


def test_branch_coefficients_approach_input_amplitudes():
    # N ~ |a|, M ~ |b| up to O(F) for a large device
    sys_m = sl.build_measurement_unitary(40)
    a, b = 0.6, 0.8
    decomp = sl.decompose_branches(sl.premeasure(a, b, sys_m), sys_m)
    coeffs = {lbl: c for c, _, lbl in decomp.branches}
    assert coeffs["up"] == pytest.approx(a, abs=0.01)
    assert coeffs["dn"] == pytest.approx(b, abs=0.01)


def test_record_sector_cross_terms_of_j_vanish():
    # the branches occupy different total-j manifolds, and J preserves
    # them, so every component's cross matrix element is exactly zero
    sys_m = sl.build_measurement_unitary(3)
    decomp = sl.decompose_branches(sl.premeasure(0.6, 0.8j, sys_m), sys_m)
    (c1, up, _), (c2, dn, _) = decomp.branches
    for jk in dense_oracle.j_pa(sys_m):
        assert abs(np.vdot(up.amplitudes, jk @ dn.amplitudes)) <= 1e-12


# ---------------------------------------------------------------- error amplitudes

def test_error_amplitudes_l1_closed_forms():
    amps = sl.extract_error_amplitudes(sl.build_measurement_unitary(1))
    assert amps.C == pytest.approx(1.0, abs=1e-12)
    assert amps.D == pytest.approx(0.0, abs=1e-12)
    assert amps.E == pytest.approx(np.sqrt(2 / 3), abs=1e-12)
    assert amps.F == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    assert amps.d_err is None  # no weight in the wrong sector for +z input


@pytest.mark.parametrize("L", [1, 2, 3, 5, 8, 12])
def test_error_amplitude_law(L):
    amps = sl.extract_error_amplitudes(sl.build_measurement_unitary(L))
    assert amps.F ** 2 == pytest.approx(1 / (2 * L + 1), abs=1e-12)
    assert amps.C ** 2 + amps.D ** 2 == pytest.approx(1.0, abs=1e-10)
    assert amps.E ** 2 + amps.F ** 2 == pytest.approx(1.0, abs=1e-10)


def test_error_amplitude_matches_angular_spread_scale():
    # F ~ delta_theta up to an O(1) factor
    L = 12
    sys_m = sl.build_measurement_unitary(L)
    amps = sl.extract_error_amplitudes(sys_m)
    spread = sl.angular_spread(sys_m.apparatus_state, sys_m.spin_app)
    assert amps.F == pytest.approx(0.2, abs=1e-12)
    assert 0.5 <= amps.F / spread.delta_theta <= 2.0


def test_error_amplitudes_with_tilted_apparatus():
    sys_m = sl.build_measurement_unitary(4, tilt=0.3)
    amps = sl.extract_error_amplitudes(sys_m)
    assert amps.D > 0.01
    assert amps.d_err is not None
    assert amps.C ** 2 + amps.D ** 2 == pytest.approx(1.0, abs=1e-10)
    # conservation still exact with the tilted device
    for jk in dense_oracle.j_total(sys_m):
        assert dense_oracle.commutator_norm(dense_oracle.u_meas(sys_m), jk) <= 1e-12


# ---------------------------------------------------------------- matching equations

@pytest.mark.parametrize("L", [1, 2, 3, 4, 7, 10, 25, 50])
def test_matching_equations_aligned(L):
    res = sl.verify_matching_equations(sl.build_measurement_unitary(L))
    assert np.max(np.abs(res)) <= CONS_ATOL
    assert abs(res[2]) <= 1e-12  # Jz equation vanishes identically


def test_matching_bracket_ladder_oracle():
    # <u|Jx|u_err> = sqrt(2L+1)/2 from the ladder element within j = L+1/2
    for L in (1, 4, 9):
        sys_m = sl.build_measurement_unitary(L)
        amps = sl.extract_error_amplitudes(sys_m)
        jx, jy, _ = dense_oracle.j_pa(sys_m)
        got = np.vdot(amps.u.amplitudes, jx @ amps.u_err.amplitudes)
        assert got == pytest.approx(np.sqrt(2 * L + 1) / 2, abs=1e-10)
        got_y = np.vdot(amps.u.amplitudes, jy @ amps.u_err.amplitudes)
        assert got_y == pytest.approx(-1j * np.sqrt(2 * L + 1) / 2, abs=1e-10)


def test_matching_equations_tilted_apparatus():
    res = sl.verify_matching_equations(sl.build_measurement_unitary(3, tilt=0.25))
    assert np.max(np.abs(res)) <= CONS_ATOL


# ---------------------------------------------------------------- scaling table

def test_bracket_scaling_l8_row():
    row = sl.bracket_magnitude_scaling([8])[0]
    assert row.bracket_magnitude == pytest.approx(np.sqrt(17) / 2, abs=1e-10)
    assert row.delta_l == pytest.approx(2.0, abs=1e-10)
    assert row.inv_delta_theta == pytest.approx(4.0, abs=1e-10)


def test_bracket_scaling_columns_monotone_and_comparable():
    rows = sl.bracket_magnitude_scaling([2, 4, 8, 16, 32, 50])
    for col in ("bracket_magnitude", "delta_l", "inv_delta_theta"):
        vals = [getattr(r, col) for r in rows]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    for r in rows:
        assert 0.2 <= r.bracket_magnitude / r.inv_delta_theta <= 5
        assert 0.2 <= r.bracket_magnitude / r.delta_l <= 5


def test_bracket_scaling_ratio_limit():
    # closed forms: sqrt(2L+1)/2 over sqrt(L/2) tends to 1 from above,
    # reaching sqrt(101/100) at L = 50
    row = sl.bracket_magnitude_scaling([50])[0]
    ratio = row.bracket_magnitude / row.delta_l
    assert ratio == pytest.approx(np.sqrt(101 / 100), abs=1e-10)


def test_bracket_scaling_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        sl.bracket_magnitude_scaling([])


# ---------------------------------------------------------------- thermal

def test_thermal_reference_point():
    th = sl.thermal_orientation_uncertainty(0.01, 300.0)
    assert th.ikt == pytest.approx(4.1421e-23, rel=1e-12)
    assert th.delta_l == pytest.approx(6.435914853383316e-12, rel=1e-12)
    assert th.delta_theta == pytest.approx(th.hbar / th.delta_l, rel=1e-12)
    assert th.delta_theta == pytest.approx(1.6386170793505823e-23, rel=1e-12)
    assert "order-of-magnitude" in th.note


def test_thermal_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        sl.thermal_orientation_uncertainty(-1.0, 300.0)
    with pytest.raises(ValueError, match="positive"):
        sl.thermal_orientation_uncertainty(0.01, 0.0)


# ---------------------------------------------------------------- record-block device

def _held_arrays(obj):
    """Every ndarray reachable through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _held_arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _held_arrays(item)


@pytest.mark.parametrize("tilt", [0.0, 0.4])
@pytest.mark.parametrize("L", [0.5, 1, 2.5, 7])
def test_premeasure_matches_dense_unitary(L, tilt):
    sys_m = sl.build_measurement_unitary(L, tilt=tilt)
    u = dense_oracle.u_meas(sys_m)
    rng = np.random.default_rng(round(4 * L) + round(10 * tilt))
    spinors = [(1.0, 0.0), (0.0, 1.0)]
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        spinors.append(tuple(v / np.linalg.norm(v)))
    for a, b in spinors:
        dense = u @ np.kron(np.kron([a, b], sys_m.apparatus_state.amplitudes), [1, 0])
        final = sl.premeasure(a, b, sys_m)
        assert final.dims == sys_m.dims
        assert np.max(np.abs(final.amplitudes - dense)) <= 1e-14


@pytest.mark.parametrize("L", [0.5, 3, 7.5])
def test_built_system_holds_no_record_level_matrix(L):
    sys_m = sl.build_measurement_unitary(L, tilt=0.4)
    side = 4 * round(2 * L + 1)
    names = {f.name for f in dataclasses.fields(sys_m)}
    assert "u_meas" not in names and "j_total" not in names
    arrays = list(_held_arrays(sys_m))
    assert arrays
    assert all(side not in arr.shape for arr in arrays)
    # the dense operators live only in the test oracle
    for name in ("proj_plus", "proj_minus", "j_pa", "u_meas", "j_total"):
        assert not hasattr(sys_m, name)


@pytest.mark.parametrize("L,tilt", [
    *(pytest.param(L, 0.0, id=f"{L:g}") for L in (0.5, 3, 40)),
    *(pytest.param(L, 0.4, id=f"{L:g}-tilt0.4") for L in (0.5, 3, 40)),
])
def test_default_build_holds_no_quadratic_array(L, tilt):
    # P+ and P- as one (2, 2, 2, 2L+2) sector stack are the largest arrays a
    # build keeps; no array has two axes of side 2(2L+1), the particle (x)
    # apparatus dimension, which a dense operator would
    arrays = list(_held_arrays(sl.build_measurement_unitary(L, tilt=tilt)))
    assert arrays and max(arr.size for arr in arrays) <= 8 * (2 * L + 2)
    assert all(sum(n >= 2 * (2 * L + 1) for n in arr.shape) < 2 for arr in arrays)


@pytest.mark.parametrize("L,tilt", [(0.5, 0.0), (2, 0.0), (7.5, 0.4)])
def test_every_array_a_device_holds_is_read_only(L, tilt):
    # a frozen device: writing P+-, the J+ blocks or the slot Jz in place
    # would leave premeasure's drift audit reading other blocks than the
    # build audited
    arrays = list(_held_arrays(sl.build_measurement_unitary(L, tilt=tilt)))
    assert len(arrays) >= 10
    assert not [arr.shape for arr in arrays if arr.flags.writeable]


@pytest.mark.parametrize("L,tilt", [(0.5, 0.0), (7.5, 0.4), (40, 0.4)])
def test_the_apparatus_state_is_held_once(L, tilt):
    # the stack's psi is the validated state's own amplitudes, not a copy
    sys_m = sl.build_measurement_unitary(L, tilt=tilt)
    assert np.shares_memory(sys_m.stack.psi, sys_m.apparatus_state.amplitudes)
    assert sys_m.spin_app is sys_m.stack.apps and sys_m.spin_app.j == L


def test_build_trips_conservation_on_jx_breaking_projectors(monkeypatch):
    real = apparatus._sector_projectors

    def rotated(spins, offsets, ident):
        # conjugating by a particle-only z rotation adds the small Hermitian
        # term -i eps [Sz (x) 1, P]: the pair stays complementary projectors
        # (so U stays unitary) and commutes with Jz, but not with Jx.  The
        # rotation is diagonal on the (up, down) slots of every sector.
        sz = dense_oracle.spin_matrices(sl.spin_operators(0.5))[2]
        v = dense_oracle.expm_hermitian(sz, 1e-6)
        blocks = np.array(real(spins, offsets, ident), dtype=np.complex128)
        # the device's sectors, as (P+-, sector, 2, 2) blocks
        device = blocks[..., offsets[0]:offsets[1]].transpose(2, 3, 0, 1)
        device[...] = [v @ p @ v.conj().T for p in device]
        return blocks

    monkeypatch.setattr(apparatus, "_sector_projectors", rotated)
    with pytest.raises(sl.ConservationError, match="does not conserve Jx"):
        sl.build_measurement_unitary(2)


def test_build_trips_unitarity_on_non_complementary_projectors(monkeypatch, capsys):
    real = apparatus._sector_projectors

    def leaky(spins, offsets, ident):
        # a multiple of the identity keeps every commutator at zero
        blocks = np.array(real(spins, offsets, ident))
        plus, minus = blocks[..., offsets[0]:offsets[1]].transpose(2, 3, 0, 1)
        minus += 1e-6 * np.eye(2)
        return blocks

    monkeypatch.setattr(apparatus, "_sector_projectors", leaky)
    with pytest.raises(sl.ConservationError, match="unitary flag violated"):
        sl.build_measurement_unitary(2)
    # a numerical-invariant failure: the CLI exits 2, not 1
    assert cli_main(["measure", "--L", "2"]) == 2
    err = capsys.readouterr().err
    assert "unitary flag violated" in err and "Traceback" not in err


def test_premeasure_trips_drift_on_swapped_projector():
    # an idealized device that records the particle's z spin alone loses
    # the transverse <Jx> = 1/2 of a +x input; its projector is diag(1, 0)
    # on the (up, down) slots of every sector
    sys_m = sl.build_measurement_unitary(2)
    up = np.zeros((sys_m.dims[1] + 1, 2, 2))
    up[:, 0, 0] = 1.0
    blocks = np.stack([up, np.eye(2) - up]).transpose(2, 3, 0, 1)   # entry-major, as a stack
    ideal = dataclasses.replace(sys_m, stack=sys_m.stack._replace(blocks=blocks))
    r = 1 / np.sqrt(2)
    sl.premeasure(r, r, sys_m)
    with pytest.raises(sl.ConservationError, match="Jx> drifted"):
        sl.premeasure(r, r, ideal)
