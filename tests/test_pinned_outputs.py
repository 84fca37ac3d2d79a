"""Byte pins for the benchmarked commands, `satellite --L 10000` and JSON tables.

Each CSV sha256 is that of the command's CSV as written before the
three-component J pass and the streamed table writer; the two further
internal streaks are pinned as written by the tensordot fold, before the
per-fold dot, `measure --L 1000,10000` as written before both
eigenstate inputs were premeasured in one sector pass, and the mixed
`measure` sweeps as written by the per-device loop, before a sweep's
devices shared sector passes.  Each JSON
sha256 that of the output written whole by one `json.dumps`, before the
JSON writer streamed; a change that moves a single output byte turns a
test red.  Four pins are those of the sector-layout readout, whose
branch weights are sums in sector order instead of a kron-layout `vdot`:
`measure-64-small` and `measure-shared` (CSV and JSON), where the last
bits of a few E cells moved, and the JSON `satellite --n 50 --L 2`, whose
branch and full-ledger columns moved by at most 5e-15 relative.  The satellite's 40000-step pin lives in
`test_satellite_arrays.py`.  Reading the satellite's and `ideal`'s <J> in
the sector layout moved none of the pins here: `ideal` prints no branch
<J>, and the JSON `satellite --n 50 --L 2` and `satellite --L 10000`
rows came out byte-identical.  The two external streaks are pinned as
written with each branch's moments read at every letter of the pattern,
before they were read once per branch.
"""

import csv
import hashlib

import pytest

from spinledger import NUMERICS
from spinledger.cli import main

PINNED = {
    "measure-64-small": (
        ["measure", "--L", ",".join(f"{k / 2:g}" for k in range(1, 65))],
        "fe48ab7c9e612d909c3ef9146df46d99de3d07c0fc0f48303e160230a83d23fc"),
    "measure-large": (
        ["measure", "--L", "64,96,128,160"],
        "0b1205c32b13b49347be0758b564903252d5ad11e57d9e775b759947ea6d4aab"),
    "measure-macroscopic": (
        ["measure", "--L", "1000,10000"],
        "d67dd14c4aa846e2009b9eed1c875f074e7d4103f550ac50e7d5c842979bd74e"),
    # large devices between small ones, each alone in its pass
    "measure-mixed": (
        ["measure", "--L", "0.5,2500,7.5,2100,3"],
        "0d69752e1a0f6b6178afab59d79748784de6959037c6481248017ef75bcc4184"),
    # seven devices of mixed size in one shared pass
    "measure-shared": (
        ["measure", "--L", "3,1,7,2.5,600,0.5,33"],
        "8fc88e477d90adf3b3c111912525101aff33959b8d70e3d27be52a084eec04db"),
    "decohere": (
        ["decohere", "--L", "0.5", "--overlap", "0.8", "--n-env", "17"],
        "bb6648e8c6e13ff79b47030b302182e19be8b114448d7a6aeb542b140df7991a"),
    "ideal": (
        ["ideal"],
        "a43dcc2e85588e7c031859b2742bfaae15244e87ecbd1f138f920682daf1b276"),
    "streak-external": (
        ["streak", "--mode", "external", "--n", "12", "--L", "4"],
        "9af04d0c834c14b09fc2fcb675b663ce05775e1f4625113ad24559b42c28375a"),
    "streak-internal": (
        ["streak", "--mode", "internal", "--n", "8", "--K", "16", "--L", "4"],
        "8f292ba638545eee24e362836a2870a78a235f4041a98bffd16aec32e729a268"),
    "streak-internal-K40": (
        ["streak", "--mode", "internal", "--n", "6", "--K", "40", "--L", "8"],
        "4d92b28076a36474580269bf1279b33c03c089d0f8f32e2b5871856b25b0769e"),
    "streak-internal-n12": (
        ["streak", "--mode", "internal", "--n", "12", "--K", "24", "--L", "2"],
        "5e9e9faee71a76718eb3b12388b6130eb4982282f5a6785de8bf327cf32606a3"),
}

PINNED_JSON = {
    "satellite": (
        ["satellite", "--n", "50", "--L", "2"],
        "575b3bfbdb8b963207d99ea127b9a11e44b35f2971110c1985fb83d656c19a74"),
    "measure": (
        ["measure", "--L", "1.5"],
        "bba81d03901eae693a60df13db709107308d83bdee55bcbb4181165d50db39eb"),
    "measure-mixed": (
        ["measure", "--L", "0.5,2500,7.5,2100,3"],
        "79495abd0a1a0c538d83a89c782375d711347c062d10f8d8c66630e7e4fd4a5c"),
    "measure-shared": (
        ["measure", "--L", "3,1,7,2.5,600,0.5,33"],
        "39497e01240dde74ad9141bb8a79b3af71f878912a2c3340971121b147efd4af"),
    "decohere": (
        ["decohere", "--L", "3", "--overlap", "0.5", "--n-env", "6"],
        "4c7484df145278b6de57cdcd524392533d4ec626e17a654d1df9fc970cea4b53"),
    "streak-external": (
        ["streak", "--mode", "external", "--n", "6", "--L", "2.5"],
        "0db7bec209855e99804660fc5ced1c97083bc0494d678eb5a592a127286a0c17"),
    "streak-internal": (
        ["streak", "--mode", "internal", "--n", "5", "--K", "9", "--L", "2.5"],
        "3fa7fedd9eea6eb055f2fbdf6e8c07d311a863acbbf632abab9d1f4e598e92db"),
}


def run_to_file(argv, tmp_path, capsys):
    path = tmp_path / "out.csv"
    assert main([*argv, "--output", str(path)]) == 0
    capsys.readouterr()
    return path.read_bytes()


@pytest.mark.parametrize("name", PINNED)
def test_benchmarked_command_is_pinned(name, tmp_path, capsys):
    argv, digest = PINNED[name]
    assert hashlib.sha256(run_to_file(argv, tmp_path, capsys)).hexdigest() == digest


@pytest.mark.parametrize("name", PINNED_JSON)
def test_json_table_is_pinned(name, tmp_path, capsys):
    argv, digest = PINNED_JSON[name]
    text = run_to_file([*argv, "--format", "json"], tmp_path, capsys)
    assert hashlib.sha256(text).hexdigest() == digest


def test_satellite_at_macroscopic_l(tmp_path, capsys):
    text = run_to_file(["satellite", "--L", "10000"], tmp_path, capsys)
    assert hashlib.sha256(text).hexdigest() == (
        "6b0aab566c0e0a0ef609a8228a9c85153a960b1de31e6d5599da1ea617bbda72")
    lines = [ln for ln in text.decode().splitlines() if not ln.startswith("# ")]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 100
    for k, row in enumerate(rows, start=1):
        assert int(row["step"]) == k
        # +x input: the idealized books lose exactly 1/2 of Jx per particle
        assert float(row["ideal_x"]) == pytest.approx(-k / 2, rel=1e-12)
        assert float(row["audit_deviation"]) <= NUMERICS.conservation_atol
