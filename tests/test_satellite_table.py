"""The block-spelled satellite table against the per-row table it replaced.

`cli._satellite_lines` spells each `_CHUNK_ROWS` block of the run with
one `%` call and hands the writer the block as one `str` of lines.  The
oracle here is the per-row generator it replaced: one tuple of cells per
step, spelled by `_format_rows`.  Both must write the same bytes, CSV and JSON.
The tilted pins moved when the satellite's <J> came to be read in the
sector layout: sums in sector order replaced a BLAS `vdot`, which moved
the branch columns by at most 1.5e-16 relative and the full ledger by
the n-step sum of that.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

import spinledger.experiments as ex
from spinledger import cli
from spinledger.cli import main
from test_satellite_arrays import signed_zero_branches

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
    monkeypatch.setattr(ex, "_read_branches", signed_zero_branches(ex._read_branches))
    texts = []
    for lines in (cli._satellite_lines, satellite_rows):
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
    ("csv", "648d8d5dd2b3ae909acf36ca725a6fa555e4b20043205ba62e24c8c45cf0a7ef"),
    ("json", "eb3ec3217d616adf0ae1d9540baa8406ab9fe8ba7fe49263735d296dcea0f6f0"),
])
def test_tilted_satellite_is_pinned(fmt, digest, tmp_path, capsys):
    # sha256 of this command's table as the per-row writer spelled it, its
    # <J> read in the sector layout (2e9de787... and 548fd893... with a
    # kron-layout vdot)
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
