"""One half-integer spin check behind every entry point that takes a spin."""

import contextlib
import io

import pytest

import spinledger as sl
from spinledger.cli import main


def _cli_measure(L):
    """`spinledger measure --L L` as a call: exit 1 raises ValueError with stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["measure", "--L", repr(L)])
    if code == 1:
        # refused while parsing --L, before any device is built
        assert "argument --L" in err.getvalue()
        raise ValueError(err.getvalue())
    assert code == 0


ENTRY_POINTS = [
    pytest.param(sl.spin_operators, 0.0, id="spin_operators"),
    pytest.param(sl.build_measurement_unitary, 0.5, id="build_measurement_unitary"),
    pytest.param(lambda K: sl.prepare_internal_source(K, margin=0), 1.0,
                 id="prepare_internal_source"),
    pytest.param(_cli_measure, 0.5, id="cli-measure"),
]


@pytest.mark.parametrize("entry,minimum", ENTRY_POINTS)
@pytest.mark.parametrize("offset", [None, 0.3, 0.7, 1e-10, float("inf"), float("nan")])
def test_rejects_non_half_integer_and_below_minimum(entry, minimum, offset, capsys):
    # offset None: the half-integer just below the entry point's minimum
    value = minimum - 0.5 if offset is None else 2 + offset
    with pytest.raises(ValueError, match=f"half-integer >= {minimum:g}, got"):
        entry(value)


@pytest.mark.parametrize("entry,minimum", ENTRY_POINTS)
def test_accepts_value_within_gate_of_half_integer(entry, minimum, capsys):
    entry(2.5 + 2e-13)
    entry(minimum + 2e-13)
