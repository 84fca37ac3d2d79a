"""numpy's PCG64 uniform stream, drawn without importing numpy.random.

`PCG64Stream(seed).random(m)` returns the bits of
`np.random.Generator(np.random.PCG64(seed)).random(m)`, and successive
calls continue the stream as successive `Generator.random` calls do.
The first `import numpy.random` costs about 11 ms and 5.4 MB of resident
memory (numpy 2.4 on a 2-vCPU VM), and the satellite run needs nothing
else from it.

The generator is a 128-bit LCG, s -> M s + inc mod 2**128, read through
the XSL-RR output (O'Neill, PCG, HMC-CS-2014-0905) and seeded from the
SeedSequence hash of the seed.  An LCG jumps ahead in closed form
(Brown 1994): the i-th state after s is A_i s + inc S_i, with
A_i = M**i and S_i = 1 + M + ... + M**(i-1), so a block of `_BLOCK`
states is one vector product.  A_i and S_i do not depend on the seed and
are built once per process.  Every 128-bit vector is held as four 32-bit
limbs, least significant first, in uint64 rows, so each product of two
limbs is exact and no column of partial products overflows.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["PCG64Stream"]

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# States per jump, a power of two: enough to spread numpy's per-call cost
# over many draws, few enough that the tables stay at 128 KB each.
_BLOCK = 4096


def _seed_words(seed: int) -> tuple[int, int]:
    """(initial state, increment) of `np.random.PCG64(seed)`.

    The seed's 32-bit words, least significant first, go through
    SeedSequence's pool hash (pool size 4) and `generate_state(4, uint64)`;
    PCG64 takes state words 0-1 as the initial state and 2-3 as the
    stream selector, high word first.
    """
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    w = [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]
    inc = (w[2] << 64 | w[3]) << 1 & _M128 | 1
    # PCG's srandom: from state 0, one step, add the seed's state, one step
    return ((w[0] << 64 | w[1]) + inc) * _MULTIPLIER + inc & _M128, inc


def _limbs(value: int) -> np.ndarray:
    """(4, 1) uint64 limbs of a 128-bit int."""
    return np.array([[value >> 32 * j & _M32] for j in range(4)], dtype=np.uint64)


def _int(limbs: np.ndarray) -> int:
    """The int of one column of limbs."""
    return sum(int(v) << 32 * j for j, v in enumerate(limbs))


@cache
def _jump_tables() -> tuple[np.ndarray, np.ndarray]:
    """Limbs of A_i = M**i and S_i = 1 + M + ... + M**(i-1), i = 1.._BLOCK.

    Each pass doubles both tables: A_(n+i) = M**n A_i and
    S_(n+i) = S_n + M**n S_i.
    """
    powers, sums = _limbs(_MULTIPLIER), _limbs(1)
    while powers.shape[1] < _BLOCK:
        m_n = _int(powers[:, -1])
        powers = np.hstack([powers, _mul_add(powers, m_n, np.zeros_like(powers))])
        sums = np.hstack([sums, _mul_add(sums, m_n, np.broadcast_to(sums[:, -1:], sums.shape))])
    for table in (powers, sums):
        table.setflags(write=False)
    return powers, sums


def _mul_add(a: np.ndarray, k: int, c: np.ndarray) -> np.ndarray:
    """Limbs of a k + c mod 2**128 for limb rows a and c and an int k.

    The product of limb i of a and limb j of k adds its low half into
    column i + j and its high half into column i + j + 1; columns from 4
    up fall off mod 2**128.
    """
    cols = c.copy()
    for j in range(4):
        kj = np.uint64(k >> 32 * j & _M32)
        for i in range(4 - j):
            p = a[i] * kj
            cols[i + j] += p & _M32
            if i + j < 3:
                cols[i + j + 1] += p >> 32
    for i in range(3):
        cols[i + 1] += cols[i] >> 32
    cols &= _M32
    return cols


class PCG64Stream:
    """The `Generator(PCG64(seed)).random` stream of a non-negative int seed."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self._state, inc = _seed_words(seed)
        sums = _jump_tables()[1]
        # the seed's part of the jump: C_i = inc S_i
        self._steps = _mul_add(sums, inc, np.zeros_like(sums))
        self._ahead = np.empty(0)

    def _next_block(self) -> np.ndarray:
        """The next `_BLOCK` draws."""
        st = _mul_add(_jump_tables()[0], self._state, self._steps)
        self._state = _int(st[:, -1])
        # XSL-RR: the high word xor the low word, rotated right by the top
        # six bits; then numpy's 53-bit double
        x = (st[3] ^ st[1]) << 32 | st[2] ^ st[0]
        rot = st[3] >> 26
        x = x >> rot | x << (64 - rot & 63)
        return (x >> 11) * 2.0 ** -53

    def random(self, m: int) -> np.ndarray:
        """The next m draws in [0, 1), as `Generator.random(m)` spells them.

        Draws are made a block at a time; the rest of the last block waits
        for the next call.
        """
        out = np.empty(m)
        done = 0
        while done < m:
            if not len(self._ahead):
                self._ahead = self._next_block()
            take = min(m - done, len(self._ahead))
            out[done:done + take] = self._ahead[:take]
            self._ahead = self._ahead[take:]
            done += take
        return out
