"""The command line's fixed texts and its argv contract, run in process through `cli.main`.

The help, version and usage-error texts are pinned byte for byte (sha256
of stdout and of stderr, at 80 columns), so a change to how the parser is
built cannot change what it prints.  The argv contract: every numeric
option of every subcommand, at 0, -1, nan, inf, 1e300 and one past its
cap, exits 0, or exits 1 with one error line; no valid input exits 2, no
run prints a traceback, and a refused run leaves no `--output` file.
"""

import hashlib
import math

import pytest

from spinledger import NUMERICS, cli
from spinledger.cli import main

# (argv, exit code, sha256 of stdout, sha256 of stderr), first 16 hex digits
TEXTS = [
    (["--help"], 0, "d76dec2a7d6e5db8", "e3b0c44298fc1c14"),
    (["-h"], 0, "d76dec2a7d6e5db8", "e3b0c44298fc1c14"),
    (["--version"], 0, "e9dd8507f4bf0c6f", "e3b0c44298fc1c14"),
    (["ideal", "--help"], 0, "2ff8a014f0e665ac", "e3b0c44298fc1c14"),
    (["measure", "--help"], 0, "1e79a160ab1d991b", "e3b0c44298fc1c14"),
    (["thermal", "--help"], 0, "67f1379eba9f3099", "e3b0c44298fc1c14"),
    (["decohere", "--help"], 0, "72d168f5f4a0128e", "e3b0c44298fc1c14"),
    (["satellite", "--help"], 0, "ff760a7bce68c32f", "e3b0c44298fc1c14"),
    (["streak", "--help"], 0, "137736f2c4107dcd", "e3b0c44298fc1c14"),
    ([], 1, "e3b0c44298fc1c14", "65cc9c35791a2b4a"),
    (["bogus"], 1, "e3b0c44298fc1c14", "318cbed118679e7c"),
    (["--bogus"], 1, "e3b0c44298fc1c14", "65cc9c35791a2b4a"),
    (["measure", "--L", "x"], 1, "e3b0c44298fc1c14", "daa7a8024e78ee7e"),
    (["measure", "--bogus"], 1, "e3b0c44298fc1c14", "e5848055499b99bb"),
    (["measure", "--L"], 1, "e3b0c44298fc1c14", "6cadbe0a72e4acf6"),
    (["satellite", "--n", "1.5"], 1, "e3b0c44298fc1c14", "d8f3589493ed8019"),
    (["streak", "--mode", "sideways"], 1, "e3b0c44298fc1c14", "8afa61b91c6dab81"),
    (["ideal", "extra"], 1, "e3b0c44298fc1c14", "ca4db8559d183e6f"),
    (["measure", "--format", "xml"], 1, "e3b0c44298fc1c14", "5eaa7d70163287c0"),
    (["--version", "measure"], 0, "e9dd8507f4bf0c6f", "e3b0c44298fc1c14"),
    (["thermal", "--I"], 1, "e3b0c44298fc1c14", "d55ed97290400cb4"),
    (["decohere", "--n-env", "x"], 1, "e3b0c44298fc1c14", "99d0f454c35835fc"),
    (["measure", "--jobs", "2"], 1, "e3b0c44298fc1c14", "df1a7bfaf07ebf9f"),
]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("argv,code,out,err", TEXTS, ids=[" ".join(t[0]) or "none" for t in TEXTS])
def test_help_version_and_usage_texts_are_pinned(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    got = capsys.readouterr()
    assert (digest(got.out), digest(got.err)) == (out, err)


def test_only_the_invoked_subcommand_gets_its_arguments():
    parser = cli.build_parser("measure")
    assert parser is cli.build_parser("measure")
    sub = next(a for a in parser._actions if a.dest == "command")
    assert list(sub.choices) == ["ideal", "measure", "thermal", "decohere", "satellite", "streak"]
    sizes = {name: len(p._actions) for name, p in sub.choices.items()}
    assert sizes == {**dict.fromkeys(sub.choices, 0), "measure": 4}   # none, or -h and three


# the largest apparatus spin the size cap admits: 4 (2L + 1) <= max_total_dim
L_CAP = (NUMERICS.max_total_dim // 4 - 1) / 2
N_CAP = NUMERICS.max_total_dim
K_CAP = 1023.5   # (2K + 1)^2 <= 4 max_total_dim
N_ENV_CAP = NUMERICS.max_total_dim // 4

# (subcommand and the rest of a cheap valid run, option, its cap or None, the
# cap's run is under about 1 s): the option's value goes last and wins
SPINOR = ("--a-re", "--a-im", "--b-re", "--b-im")
OPTIONS = [
    *((["ideal"], opt, None, False) for opt in SPINOR),
    (["ideal"], "--L", L_CAP, True),
    (["measure"], "--L", L_CAP, True),
    (["thermal"], "--I", None, False),
    (["thermal"], "--T", None, False),
    (["decohere", "--n-env", "4"], "--L", L_CAP, True),
    (["decohere", "--n-env", "4"], "--overlap", None, False),
    (["decohere"], "--n-env", N_ENV_CAP, False),          # 1.8 s at the cap
    (["satellite", "--L", "2"], "--n", N_CAP, False),       # 4 s at the cap
    (["satellite", "--n", "3"], "--L", L_CAP, True),
    *((["satellite", "--n", "3", "--L", "2"], opt, None, False) for opt in SPINOR),
    (["satellite", "--n", "3", "--L", "2"], "--seed", None, False),
    (["streak", "--L", "2"], "--n", N_CAP, False),          # 8 s at the cap
    (["streak", "--n", "4"], "--L", L_CAP, True),
    (["streak", "--n", "4", "--L", "2"], "--seed", None, False),
    (["streak", "--mode", "internal", "--K", "4", "--L", "2"], "--n", None, False),
    (["streak", "--mode", "internal", "--n", "2", "--L", "2"], "--K", K_CAP, False),  # 1.5 GB at the cap
    (["streak", "--mode", "internal", "--n", "2", "--K", "4"], "--L", L_CAP, True),
]


def cases():
    for base, opt, cap, run_cap in OPTIONS:
        values = ["0", "-1", "nan", "inf", "1e300"]
        if cap is not None:
            values += [repr(cap + 1)] + ([repr(cap)] if run_cap else [])
        for value in values:
            yield pytest.param(base, opt, value, value == repr(cap), id=f"{' '.join(base)} {opt} {value}")


@pytest.mark.parametrize("base,opt,value,at_cap", cases())
def test_every_numeric_option_exits_zero_or_one_with_one_error_line(base, opt, value, at_cap, tmp_path,
                                                                     capsys):
    path = tmp_path / "out.csv"
    code = main([*base, opt, value, "--output", str(path)])
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert code in ((0,) if at_cap else (0, 1)), (code, err)
    if code == 0:
        assert err == "" and path.read_text().endswith("\n")
        return
    assert not path.exists()
    lines = err.splitlines()
    if lines[0].startswith("usage: "):
        # argparse's usage block, then its one error line
        assert lines[-1].startswith(f"spinledger {base[0]}: error: argument {opt}: ")
        assert all(ln.startswith(" ") for ln in lines[1:-1])
    else:
        assert lines == [lines[0]] and lines[0].startswith("spinledger: ")


def test_the_caps_are_the_sizes_the_library_admits():
    # one past each cap is refused, as the contract test above expects
    assert 4 * (2 * L_CAP + 1) == NUMERICS.max_total_dim
    assert (2 * K_CAP + 1) ** 2 <= 4 * NUMERICS.max_total_dim < (2 * K_CAP + 2) ** 2
    assert 4 * N_ENV_CAP == NUMERICS.max_total_dim and math.isfinite(L_CAP)
