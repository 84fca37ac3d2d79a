"""The block-spelled satellite table against the per-row table it replaced.

`cli._satellite_lines` spells each `_CHUNK_ROWS` block of the run with
one `%` call and hands the writer the block as one `str` of lines.  The
oracle here is the per-row generator it replaced: one tuple of cells per
step, spelled by `_format_rows`.  Both must write the same bytes, CSV and JSON.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

import spinledger.experiments as ex
from spinledger import cli
from spinledger.cli import main

SPINORS = {
    "plus_x": [],
    # a complex b puts the particle's polarization, and the ledgers, in y
    "y_tilted": ["--a-re", "0.6", "--b-re", "0", "--b-im", "0.8"],
    "up": ["--a-re", "1", "--b-re", "0"],
}


def satellite_rows(run, outcome_cells, audit_cell):
    """Satellite table rows, built from one `_CHUNK_ROWS` slice of the arrays at a time."""
    for start in range(0, run.n_particles, cli._CHUNK_ROWS):
        stop = start + cli._CHUNK_ROWS
        ups = run.outcome_up[start:stop].tolist()
        ledgers = np.hstack([run.ideal_ledger[start:stop], run.full_ledger[start:stop]]).tolist()
        for step, up, books in zip(itertools.count(start + 1), ups, ledgers):
            yield (step, outcome_cells[int(up)], *books, audit_cell)


def both_tables(argv, monkeypatch, tmp_path):
    """The table as `main` writes it, and as the per-row oracle writes it."""
    texts = []
    for lines in (cli._satellite_lines, satellite_rows):
        monkeypatch.setattr(cli, "_satellite_lines", lines)
        path = tmp_path / "sat.out"
        assert main([*argv, "--output", str(path)]) == 0
        texts.append(path.read_bytes())
    return texts


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("L", ["0.5", "8"])
@pytest.mark.parametrize("spinor", SPINORS)
def test_blocks_write_the_bytes_of_the_per_row_table(spinor, L, chunk, fmt, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
    argv = ["satellite", "--n", "4100", "--L", L, "--seed", "5", *SPINORS[spinor],
            "--format", fmt]
    blocks, rows = both_tables(argv, monkeypatch, tmp_path)
    assert blocks == rows
    if fmt == "json":
        payload = json.loads(blocks)
        assert len(payload["rows"]) == 4100
        assert all(len(row) == 13 for row in payload["rows"])
    if spinor == "y_tilted" and fmt == "csv":
        table = [line.split(",") for line in blocks.decode().splitlines()[-4100:]]
        assert any(float(row[4]) != 0.0 for row in table)         # branch_jy
        assert all(float(row[7]) != 0.0 for row in table)         # ideal_y


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_signed_zeros_spell_like_the_per_row_table(fmt, monkeypatch, tmp_path):
    # a branch <J> with -0.0 where the initial <J> has +0.0: the branch
    # cells spell "-0" while the ledgers, which start from +0.0, do not
    means = ex._j_means
    calls = []

    def signed_zero_means(sys, v):
        j = means(sys, v)
        calls.append(None)
        return j if len(calls) == 1 else np.where(j == 0.0, -0.0, j)

    monkeypatch.setattr(ex, "_j_means", signed_zero_means)
    texts = []
    for lines in (cli._satellite_lines, satellite_rows):
        calls.clear()
        monkeypatch.setattr(cli, "_satellite_lines", lines)
        path = tmp_path / "sat.out"
        assert main(["satellite", "--n", "64", "--L", "8", "--seed", "0",
                     "--format", fmt, "--output", str(path)]) == 0
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    assert (b",-0," if fmt == "csv" else b'"-0"') in texts[0]


def test_a_str_row_is_a_spelled_line(tmp_path):
    rows = [[1, "up", 0.1, -0.0], [2, "dn", 1e300, 2.5]]
    lines = list(cli._format_rows(rows))
    assert list(cli._format_rows([rows[0], lines[1]])) == lines
    for fmt in ("csv", "json"):
        texts = []
        for table in (rows, lines, [lines[0], rows[1]]):
            path = tmp_path / f"t.{fmt}"
            cli._write_table(cli.argparse.Namespace(format=fmt, output=str(path)),
                             {"version": "0"}, ["k", "o", "x", "y"], table)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("fmt,digest", [
    ("csv", "2e9de787aa159f3622ee35644fd013081780a54e9a27739a9deafa2eeb9ce9a2"),
    ("json", "548fd8930269c1c449c9186b3fbc29fb9b598a358c7b991bc2dc6e818f5b254d"),
])
def test_tilted_satellite_is_pinned(fmt, digest, tmp_path, capsys):
    # sha256 of this command's table as the per-row writer spelled it
    path = tmp_path / "sat.out"
    assert main(["satellite", "--n", "1000", "--L", "3.5", "--a-re", "0.6", "--b-im", "0.8",
                 "--seed", "2", "--format", fmt, "--output", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_a_block_row_passes_to_the_writer_as_it_stands(monkeypatch):
    # a str row of several lines is a block: not split, joined or copied
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    block = "1,up\n2,dn\n3,up"
    assert next(cli._blocks([block])) is block
    assert list(cli._blocks([[1, "up"], [2, "dn"], [3, "up"], block, [4, "dn"]])) == [
        block, block, "4,dn"]
