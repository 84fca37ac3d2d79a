"""The Clebsch-Gordan sector device against its dense oracles.

A build keeps P+ and P- as 2x2 sector blocks in its one-device sector
stack (`CompositeSystem.stack`) and the apparatus spin as its two ladder
bands; premeasure, the audits, the brackets, the branch means and the
spread run on those in O(L).  The oracle is dense: `dense_oracle`
builds U, J and P+- from S.L and the dense spin matrices, never from the
blocks.  The guards at the end keep every <J> in the sector layout and
the kron layout at the public boundary.
"""

import ast
import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest

import dense_oracle
import spinledger as sl
from spinledger import angular, apparatus, decoherence, kernel
from spinledger.cli import main as cli_main
from test_j_oracle import j_matvecs

L_VALUES = [0.5, 1, 2.5, 7, 40, 150]


def _spinors(seed):
    rng = np.random.default_rng(seed)
    out = [(1.0, 0.0), (0.0, 1.0)]
    for _ in range(3):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        out.append(tuple(v / np.linalg.norm(v)))
    return out


@pytest.fixture(scope="module", params=[(L, tilt) for L in L_VALUES for tilt in (0.0, 0.4)],
                ids=lambda p: f"L{p[0]:g}-tilt{p[1]:g}")
def device(request):
    L, tilt = request.param
    return sl.build_measurement_unitary(L, tilt=tilt)


def test_premeasure_matches_dense_unitary(device):
    u = dense_oracle.u_meas(device)
    for a, b in _spinors(round(4 * device.L)):
        dense = u @ np.kron(np.kron([a, b], device.apparatus_state.amplitudes), [1, 0])
        assert np.max(np.abs(sl.premeasure(a, b, device).amplitudes - dense)) <= 1e-12


def test_structured_j_matches_dense_j_pa(device):
    rng = np.random.default_rng(round(4 * device.L))
    v = rng.normal(size=device.pa_dim) + 1j * rng.normal(size=device.pa_dim)
    for k, jk in enumerate(dense_oracle.j_pa(device)):
        assert np.max(np.abs(j_matvecs(device, v)[k] - jk @ v)) <= 1e-12


def test_brackets_and_means_match_dense(device):
    amps = sl.extract_error_amplitudes(device)
    j_pa = dense_oracle.j_pa(device)
    pairs = [(amps.u, amps.u_err), (amps.d, amps.d_err)]
    for bra, ket in pairs:
        if bra is None or ket is None:
            continue
        for k, jk in enumerate(j_pa):
            got = np.vdot(bra.amplitudes, j_matvecs(device, ket.amplitudes)[k])
            assert abs(got - np.vdot(bra.amplitudes, jk @ ket.amplitudes)) <= 1e-12
        dense_means = [np.vdot(bra.amplitudes, jk @ bra.amplitudes).real for jk in j_pa]
        means = [np.vdot(bra.amplitudes, jv).real for jv in j_matvecs(device, bra.amplitudes)]
        assert np.max(np.abs(np.array(means) - dense_means)) <= 1e-12


@pytest.mark.parametrize("spinor", [(2 ** -0.5, 2 ** -0.5), (0.6, 0.8j), (1.0, 0.0)],
                         ids=["plus_x", "y_tilted", "plus_z"])
@pytest.mark.parametrize("tilt", [0.0, 0.4])
@pytest.mark.parametrize("L", [0.5, 1, 2.5, 7, 20])
def test_branch_and_input_means_match_dense(L, tilt, spinor):
    device = sl.build_measurement_unitary(L, tilt=tilt)
    coeffs, present, means = apparatus._read_branches(*spinor, device.stack)
    assert means.shape == (3, 3)
    j_pa = dense_oracle.j_pa(device)
    psi = np.kron(spinor, device.apparatus_state.amplitudes)
    records = (dense_oracle.u_meas(device) @ np.kron(psi, [1, 0])).reshape(-1, 2).T
    want = [np.vdot(psi, jk @ psi).real for jk in j_pa]
    assert np.max(np.abs(means[2] - want)) <= 1e-12
    for coeff, have, j, record in zip(coeffs, present, means, records):
        weight = np.vdot(record, record).real
        assert have == (weight >= sl.NUMERICS.branch_weight_floor)
        assert abs(coeff ** 2 - weight) <= 1e-12
        if have:
            state = record / coeff
            want = [np.vdot(state, jk @ state).real for jk in j_pa]
            assert np.max(np.abs(j - want)) <= 1e-12
        else:   # an empty record carries the input's <J>
            assert coeff == 0.0 and j.tobytes() == means[2].tobytes()
    # only +z on the aligned device leaves a record empty: D = 0
    assert present.all() != (spinor == (1.0, 0.0) and tilt == 0.0)


def test_angular_spread_matches_dense_jx_squared(device):
    psi = device.apparatus_state
    v = psi.amplitudes
    jx, _, jz, _, _ = dense_oracle.spin_matrices(device.spin_app)
    var = np.vdot(v, dense_oracle.check_hermitian(jx @ jx) @ v).real - np.vdot(v, jx @ v).real ** 2
    delta_l = math.sqrt(max(var, 0.0))
    spread = sl.angular_spread(psi, device.spin_app)
    assert spread.delta_l == pytest.approx(delta_l, abs=1e-12 * max(1.0, delta_l))
    theta = delta_l / np.vdot(v, jz @ v).real
    assert spread.delta_theta == pytest.approx(theta, abs=1e-12 * max(1.0, theta))
    assert sl.angular_spread(psi, sl.spin_operators(device.L)) == spread


@pytest.mark.parametrize("L", L_VALUES)
def test_sector_blocks_match_the_s_dot_l_projectors(L):
    s_dot_l = dense_oracle.s_dot_l(L)
    plus = (s_dot_l + (L + 1) / 2 * np.eye(s_dot_l.shape[0])) / (L + 0.5)
    sys_m = sl.build_measurement_unitary(L)
    plus_blocks, minus_blocks = sys_m.stack.blocks.transpose(2, 3, 0, 1)
    assert np.max(np.abs(dense_oracle.dense_blocks(plus_blocks) - plus)) <= 1e-12
    assert np.max(np.abs(dense_oracle.dense_blocks(minus_blocks)
                         - (np.eye(plus.shape[0]) - plus))) <= 1e-12


def test_no_build_uses_a_dense_audit_or_a_dense_spin_l(monkeypatch):
    # a spin has no dense form to build (test_src_keeps_one_device_representation)
    assert not any(hasattr(angular.SpinOperators, name) for name in DENSE_SPIN_ATTRIBUTES)

    def no_commutator(*args):
        raise AssertionError("a build called commutator_norm")

    assert not hasattr(kernel, "commutator_norm") and not hasattr(apparatus, "commutator_norm")
    monkeypatch.setattr(dense_oracle, "commutator_norm", no_commutator)
    for tilt in (0.0, 0.4):
        sys_m = sl.build_measurement_unitary(40, tilt=tilt)
        sl.extract_error_amplitudes(sys_m)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: sl.extract_error_amplitudes(sl.build_measurement_unitary(1e5, tilt=0.4)),
                 id="tilted-build-1e5"),
    pytest.param(lambda: sl.prepare_internal_source(1000, 10), id="internal-source-1000"),
])
def test_build_and_source_diagonalize_nothing(monkeypatch, call):
    def no_dense(*args, **kwargs):
        raise AssertionError("a dense diagonalization was called")

    monkeypatch.setattr(np.linalg, "eigh", no_dense)
    assert not hasattr(kernel, "expm_hermitian") and not hasattr(apparatus, "expm_hermitian")
    monkeypatch.setattr(dense_oracle, "expm_hermitian", no_dense)
    call()


REMOVED_NAMES = ("manifold_projectors", "measurement_unitary_from_interaction", "expm_hermitian",
                 "commutator_norm", "_dense_blocks", "_s_dot_l",
                 "Operator", "identity", "basis_state", "random_state", "kron", "apply",
                 "expectation", "bracket")
DENSE_ATTRIBUTES = ("proj_plus", "proj_minus", "j_pa", "u_meas", "j_total")
DENSE_SPIN_ATTRIBUTES = ("jx", "jy", "jz", "jplus", "jminus")


def test_src_keeps_one_device_representation():
    # the dense device and the dense operators live in the test oracle
    for module in (sl, apparatus, kernel):
        for name in REMOVED_NAMES:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ())
    for tilt in (0.0, 0.4):
        sys_m = sl.build_measurement_unitary(3, tilt=tilt)
        for name in DENSE_ATTRIBUTES:
            assert not hasattr(sys_m, name), (tilt, name)
        for name in DENSE_SPIN_ATTRIBUTES:
            assert not hasattr(sys_m.spin_app, name), (tilt, name)
            assert not hasattr(sys_m.spin_half, name), (tilt, name)
    for path in Path(sl.__file__).parent.glob("*.py"):
        assert not re.search(r"\bOperator\b", path.read_text()), path.name


SECTOR_LAYOUT_NAMES = {"_SectorStack", "_build_stack", "_premeasure_stack", "_sector_j_brackets"}


def test_sector_layout_stays_inside_apparatus():
    # the sector stack is apparatus.py's own layout: no other module names
    # its helpers or reads a device's `.stack`
    for path in Path(sl.__file__).parent.glob("*.py"):
        if path.name == "apparatus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
                if node.attr == "stack":   # np.stack is numpy's
                    assert isinstance(node.value, ast.Name) and node.value.id == "np", (
                        path.name, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
            else:
                continue
            assert not names & SECTOR_LAYOUT_NAMES, (path.name, node.lineno, names)


def _rows(path):
    return list(csv.DictReader(ln for ln in path.read_text().splitlines()
                               if ln and not ln.startswith("#")))


def test_measure_macroscopic_sweep_matches_closed_forms(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code = cli_main(["measure", "--L", "1,10,100,1000,10000,100000", "--output", str(path)])
    capsys.readouterr()
    assert code == 0
    rows = _rows(path)
    assert [float(r["L"]) for r in rows] == [1, 10, 100, 1000, 10000, 100000]
    for r in rows:
        L = float(r["L"])
        want = {
            "F": 1 / math.sqrt(2 * L + 1),
            "E": math.sqrt(2 * L / (2 * L + 1)),
            "bracket_jx_mag": math.sqrt(2 * L + 1) / 2,
            "delta_L": math.sqrt(L / 2),
        }
        for col, target in want.items():
            assert float(r[col]) == pytest.approx(target, rel=1e-12), (L, col)
        assert float(r["C"]) == 1.0 and float(r["D"]) == 0.0
        assert float(r["matching_residual_max"]) <= sl.NUMERICS.conservation_atol


def test_oversize_device_is_refused_before_it_allocates(monkeypatch, capsys):
    def no_alloc(*args):
        raise AssertionError("refused build allocated its device")

    monkeypatch.setattr(apparatus, "spin_operators", no_alloc)
    monkeypatch.setattr(apparatus, "_sector_projectors", no_alloc)
    monkeypatch.setattr(apparatus, "_spin_bands", no_alloc)
    # 4 (2L+1) = 8000004 > 2^20
    with pytest.raises(ValueError, match="exceeds the configured maximum total dimension 1048576"):
        sl.build_measurement_unitary(1e6)
    assert cli_main(["measure", "--L", "1000000"]) == 1
    assert "maximum total dimension" in capsys.readouterr().err


def test_oversize_device_in_a_sweep_is_named(capsys):
    # 4 x 600001 > 2^20: the refusal names the device among its neighbours
    assert cli_main(["measure", "--L", "1,300000,2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "apparatus spin refused" in out.err and "(L = 300000)" in out.err
    with pytest.raises(ValueError, match=r"maximum total dimension 1048576 \(L = 300000\)"):
        sl.bracket_magnitude_scaling([2, 300000])


def test_a_refused_spin_is_named_exactly(capsys):
    # one past the cap; six significant digits would name it 131072
    assert cli_main(["measure", "--L", "1,131072.5"]) == 1
    assert "(L = 131072.5)" in capsys.readouterr().err


def test_size_guard_follows_the_configured_maximum(monkeypatch, capsys):
    monkeypatch.setattr(sl.NUMERICS, "max_total_dim", 64)
    assert sl.build_measurement_unitary(7.5).dims == (2, 16, 2)   # 4 x 16 = 64
    with pytest.raises(ValueError, match="4 x 17 = 68 exceeds the configured maximum total "
                                         "dimension 64"):
        sl.build_measurement_unitary(8)
    assert cli_main(["measure", "--L", "7.5,8"]) == 1
    assert "68 exceeds" in capsys.readouterr().err


KRON_GATES = {"_to_kron", "_from_kron"}
KRON_BOUNDARY = {"premeasure", "decompose_branches", "extract_error_amplitudes"}
REMOVED_J_READERS = {"_j_means", "_pa_matvecs"}


def _top_level_names(path):
    """Each top-level statement of a module, with every name it defines, imports or reads."""
    for top in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
        yield top, names


def test_the_kron_layout_is_built_only_at_the_public_boundary():
    # every <J> is read in the sector layout (`_sector_j_brackets`); the
    # kron layout is only the form a StateVector leaves apparatus.py in
    users = set()
    for path in Path(sl.__file__).parent.glob("*.py"):
        for top, names in _top_level_names(path):
            assert not names & REMOVED_J_READERS, (path.name, top.lineno)
            if names & KRON_GATES:
                assert isinstance(top, ast.FunctionDef), (path.name, top.lineno)
                users.add((path.name, top.name))
    assert users == {("apparatus.py", name) for name in KRON_GATES | KRON_BOUNDARY}


READING_COMMANDS = (
    ["ideal", "--L", "8"],
    ["measure", "--L", "8"],
    ["decohere", "--L", "8", "--n-env", "5"],
    ["satellite", "--n", "10", "--L", "8", "--seed", "1"],
    ["streak", "--mode", "external", "--n", "4", "--L", "8"],
    ["streak", "--mode", "internal", "--n", "3", "--K", "4", "--L", "8"],
)


def test_every_subcommand_reads_in_the_sector_layout(monkeypatch, capsys):
    # one premeasure pass each, and no state gathered into the kron layout
    # (`thermal` reads no branch state)
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("_premeasure_stack", "decompose_branches", *KRON_GATES):
        spy(apparatus, name)
    spy(decoherence, "decompose_branches")
    for argv in READING_COMMANDS:
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert calls == ["_premeasure_stack"], argv
        calls.clear()


KRON_READERS = {"premeasure", "decompose_branches", "partial_trace", *KRON_GATES}


def test_commands_name_no_kron_reader():
    # the commands read branch states through apparatus.py's sector
    # readers; the kron readers serve the public functions that return or
    # take a StateVector (decoherence's public functions among them)
    for module in ("cli.py", "experiments.py", "decoherence.py"):
        for top, names in _top_level_names(Path(sl.__file__).parent / module):
            public = module == "decoherence.py" and not (
                isinstance(top, ast.FunctionDef) and top.name.startswith("_"))
            assert public or not names & KRON_READERS, (module, top.lineno, names & KRON_READERS)


POOL_MODULES = {"concurrent", "multiprocessing"}


def test_audits_raise_conservation_error_and_facts_have_one_source():
    # an `assert` or a raised AssertionError would escape the CLI's exit 2;
    # one function builds every StreakReport; the forced cross term
    # (1/2, -i/2, 0) is written only in ideal.py; every command runs in its
    # own process, so no module imports a process or thread pool
    builders = set()
    for path in Path(sl.__file__).parent.glob("*.py"):
        text = path.read_text()
        for top in ast.parse(text).body:
            for node in ast.walk(top):
                assert not isinstance(node, ast.Assert), (path.name, node.lineno)
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    modules = []
                for module in modules:
                    assert module.split(".")[0] not in POOL_MODULES, (path.name, node.lineno)
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    assert not (isinstance(exc, ast.Name) and exc.id == "AssertionError"), (
                        path.name, node.lineno)
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "StreakReport"):
                    builders.add((path.name, top.name))
        assert ("-0.5j" in text) == (path.name == "ideal.py"), path.name
    assert builders == {("experiments.py", "lucky_streak_j2")}
