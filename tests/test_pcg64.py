"""The satellite's PCG64 stream against numpy.random, its oracle.

`spinledger._pcg64` reproduces `np.random.Generator(np.random.PCG64(seed))
.random` without importing `numpy.random`: SeedSequence's hash of the
seed, PCG64's seeding, a jump-ahead over blocks of 4096 states and the
XSL-RR output.  Every draw must have numpy's bits, for seeds of one to
five 32-bit words and for draws split across block edges, and
`SatelliteRun.blocks` must give the blocks that a numpy generator gives.
"""

import numpy as np
import pytest

import spinledger as sl
from spinledger._pcg64 import PCG64Stream, _seed_words

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3,
         1234567890123456789012345678901234567890]
# successive draws, one straddling the first block edge, and an empty draw
SPLITS = [1, 1023, 0, 1024, 1025, 4097]


def numpy_generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_gives_numpys_state_and_increment(seed):
    state = numpy_generator(seed).bit_generator.state["state"]
    assert _seed_words(seed) == (state["state"], state["inc"])


@pytest.mark.parametrize("seed", SEEDS)
def test_split_and_whole_draws_have_numpys_bits(seed):
    want = numpy_generator(seed).random(sum(SPLITS))
    stream = PCG64Stream(seed)
    split = [stream.random(m) for m in SPLITS]
    assert [len(x) for x in split] == SPLITS
    assert np.concatenate(split).tobytes() == want.tobytes()
    assert PCG64Stream(seed).random(len(want)).tobytes() == want.tobytes()


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="-1"):
        PCG64Stream(-1)


def numpy_blocks(run, size):
    """`SatelliteRun.blocks` with its outcomes drawn by numpy.random."""
    rng = numpy_generator(run.seed)
    w_up = run.branch_info["up"]["weight"]
    last = np.zeros((2, 3))
    for start in range(0, run.n_particles, size):
        up = rng.random(min(size, run.n_particles - start)) < w_up
        ledgers = run.step_rows[:, up.astype(np.intp)]
        ledgers[:, 0] += last
        np.cumsum(ledgers, axis=1, out=ledgers)
        last = ledgers[:, -1].copy()
        yield up, ledgers[0], ledgers[1]


@pytest.mark.parametrize("size", [1, 7, 1024, "n"])
@pytest.mark.parametrize("seed", [0, 2**64 + 5])
def test_blocks_have_the_bits_of_numpys_generator(seed, size):
    run = sl.satellite_run(10000, 3.5, 0.6, 0.8, seed)
    size = run.n_particles if size == "n" else size
    got = list(run.blocks(size))
    want = list(numpy_blocks(run, size))
    assert len(got) == len(want)
    for block, ref in zip(got, want):
        for arr, ref_arr in zip(block, ref):
            assert arr.dtype == ref_arr.dtype and arr.tobytes() == ref_arr.tobytes()
