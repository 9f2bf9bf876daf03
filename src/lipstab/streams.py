"""numpy's seeded PCG64 streams, set up for a whole array of keys at once.

``np.random.default_rng(key)`` hashes the key's 32-bit words with
``SeedSequence`` into four 64-bit words s_hi, s_lo, i_hi, i_lo and seeds
``PCG64`` with them (``pcg64_srandom_r``): inc = 2·i + 1 and
state = (inc + s)·M + inc mod 2^128.  Both steps are frozen by numpy's
stream-compatibility policy (NEP 19; O'Neill 2014 for PCG64), so they can be
reproduced bit for bit: here the hashing runs in uint32 numpy arithmetic
over every key of an array and the 128-bit step in Python ints, which the
``bit_generator.state`` setter takes anyway.  ``streams`` sets each state on
one reused generator, which then draws exactly what
``np.random.default_rng((*prefix, i))`` draws, at a fraction of the cost of
building a new one per key.

``tests/test_streams.py`` compares the states with ``default_rng`` over a
grid of keys (one- to three-word seeds, indices that take two words), so a
numpy release that changes either step fails there.
"""
from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_BLOCK = 1024  # keys whose states streams() computes at once


def _words(value) -> list:
    """SeedSequence's 32-bit words of one non-negative integer, low word first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _consts(init: int, mult: int, count: int):
    """The (xor, multiply) constants of ``count`` successive hash steps, as (count, 1) columns."""
    seq = [init]
    for _ in range(count):
        seq.append(seq[-1] * mult & _MASK32)
    seq = np.array(seq, dtype=np.uint32)[:, None]
    return seq[:-1], seq[1:]


_STATE_CONSTS = _consts(_INIT_B, _MULT_B, 2 * _POOL)
_STATE_ROWS = np.arange(2 * _POOL) % _POOL


def _hash(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(words).generate_state(4, uint64) for each row of (k, L) uint32 words.

    SeedSequence's constants advance the same way for every key, and each
    step of its pool mixing hashes one pool word into every other, so one
    array expression covers a step for every key and every target word.
    """
    k, length = entropy.shape
    # _POOL steps fill the pool, _POOL * (_POOL - 1) mix it, and each word
    # beyond the pool takes _POOL more
    xor, mul = _consts(_INIT_A, _MULT_A, _POOL * max(length, _POOL))

    def hashmix(values, j, count):
        """SeedSequence's hashmix as steps j .. j + count - 1, one per row of the result."""
        values = (values ^ xor[j:j + count]) * mul[j:j + count]
        return values ^ (values >> _SHIFT)

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ (out >> _SHIFT)

    pool = np.zeros((_POOL, k), dtype=np.uint32)
    pool[:min(length, _POOL)] = entropy[:, :_POOL].T
    pool = hashmix(pool, 0, _POOL)
    j = _POOL
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], j, _POOL - 1))
        j += _POOL - 1
    for src in range(_POOL, length):
        pool = mix(pool, hashmix(entropy[:, src], j, _POOL))
        j += _POOL
    # generate_state(4, uint64): eight uint32 words drawn round the pool,
    # then read pairwise as little-endian uint64 words
    xor, mul = _STATE_CONSTS
    state = (pool[_STATE_ROWS] ^ xor) * mul
    state = (state ^ (state >> _SHIFT)).astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def pcg64_states(prefix, indices) -> list:
    """The ``bit_generator.state`` of ``np.random.default_rng((*prefix, i))`` for each i."""
    head = [w for value in prefix for w in _words(value)]
    idx = np.asarray(indices)
    if idx.dtype.kind in "iu" and (idx.size == 0 or 0 <= idx.min() <= idx.max() <= _MASK32):
        entropy = np.empty((idx.size, len(head) + 1), dtype=np.uint32)
        entropy[:, :-1] = head
        entropy[:, -1] = idx
        words = _hash(entropy).tolist()
    else:  # indices of another word count: numpy's own SeedSequence, key by key
        words = [np.random.SeedSequence((*prefix, i)).generate_state(4, np.uint64).tolist()
                 for i in indices]
    states = []
    for s_hi, s_lo, i_hi, i_lo in words:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def streams(prefix, indices):
    """Yield, for each i, one reused Generator in the state ``default_rng((*prefix, i))`` starts in.

    The same object is yielded every time: finish drawing from one stream
    before advancing to the next.  ``indices`` is sliced into blocks of
    _BLOCK keys, whose states are computed together, so memory stays bounded
    however many streams are drawn.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for lo in range(0, len(indices), _BLOCK):
        for state in pcg64_states(prefix, indices[lo:lo + _BLOCK]):
            bit_generator.state = state
            yield rng
