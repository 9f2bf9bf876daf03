"""numpy's seeded PCG64 streams for a whole array of keys at once, and the
draws decoded from their raw words.

Seeding.  ``np.random.default_rng(key)`` hashes the key's 32-bit words with
``SeedSequence`` into four 64-bit words s_hi, s_lo, i_hi, i_lo and seeds
``PCG64`` with them (``pcg64_srandom_r``): inc = 2·i + 1 and
state = (inc + s)·M + inc mod 2^128.  ``seeded`` runs both for every key of
an array: the hashing in uint32 numpy arithmetic, the 128-bit step on
(high, low) uint64 halves whose products are formed from 32-bit limbs.

Words.  PCG64 steps state -> state·M + inc mod 2^128 and outputs the XSL-RR
mix of the new state: the xor of its halves, rotated right by its top six
bits (O'Neill 2014).  Step j is state·M^j + inc·(1 + M + ... + M^(j-1)), so
``raw_words`` computes the first K words of many keys at once from cached
jump constants.  Above _WIDE words per key, one ``random_raw(K)`` per key on
a reused generator is faster, and is used instead.

Draws.  A Generator turns words into draws by algorithms frozen by numpy's
stream-compatibility policy (NEP 19).  Three are decoded here:
- a uniform is (w >> 11)·2^-53 (done by the caller);
- ``integers(k)``, 1 < k < 2^32, is Lemire's method (Lemire 2019) on a
  32-bit draw: the low half of a fresh word, and the next such draw takes
  the same word's high half.  ``lemire`` decodes it and flags the rare
  rejection, which would read another draw;
- ``normal()`` is a ziggurat (Marsaglia & Tsang 2000).  One word gives the
  layer idx = w & 0xff, a sign bit and a 52-bit rabs; when rabs < ki[idx]
  it returns ±rabs·wi[idx] (then 0.0 + 1.0·x), otherwise a slow path reads
  more words.  ``normals`` decodes the one-word case and flags the rest.
A draw outside these cases is redrawn by numpy itself, on a generator set
to the key's state (``generators``).  numpy does not expose the
ziggurat tables, so ``_ziggurat`` probes them from the installed numpy the
first time they are needed: importing this module does no such work.

``tests/test_streams.py`` compares the states with ``default_rng`` (one- to
three-word seeds, indices that take two words) and ``tests/test_draws.py``
the words and draws (all 256 ziggurat layers, Lemire rejections), so a numpy
release that changes any step fails there.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

from .model import read_only

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
# raw_words steps _CELLS words per pass: its 64 KB arrays stay in cache,
# where larger ones cost up to 1.6x more per word.  The steps cost about
# 40 ns a word and one random_raw call about 3.5 us a key, so they break
# even near 100 words per key (measured between 96 and 128 on 273 and 528
# keys); above _WIDE words, one random_raw per key is used.
_WIDE = 128
_CELLS = 8192


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


def _halves(values) -> np.ndarray:
    """128-bit integers as a (2, len) uint64 array of high and low halves."""
    return np.array([[v >> 64 for v in values], [v & _MASK64 for v in values]],
                    dtype=np.uint64)


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a·b of uint64 arrays, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _mul(x, c):
    """x·c mod 2^128 for (high, low) pairs of uint64 arrays that broadcast."""
    (xh, xl), (ch, cl) = x, c
    return xh * cl + xl * ch + _mulhi(xl, cl), xl * cl


def _add(x, y):
    """x + y mod 2^128 for (high, low) pairs of uint64 arrays."""
    low = x[1] + y[1]
    return x[0] + y[0] + (low < y[1]), low


def seeded(prefix, indices) -> np.ndarray:
    """The PCG64 state and inc of ``np.random.default_rng((*prefix, i))`` for each i.

    A (4, k) uint64 array whose rows are the state's high and low halves
    and the inc's high and low halves; column i is one key.
    """
    head = [w for value in prefix for w in _words(value)]
    idx = np.asarray(indices)
    if idx.dtype.kind in "iu" and (idx.size == 0 or 0 <= idx.min() <= idx.max() <= _MASK32):
        entropy = np.empty((idx.size, len(head) + 1), dtype=np.uint32)
        entropy[:, :-1] = head
        entropy[:, -1] = idx
        words = _hash(entropy)
    else:  # indices of another word count: numpy's own SeedSequence, key by key
        words = np.array([np.random.SeedSequence((*prefix, i)).generate_state(4, np.uint64)
                          for i in indices], dtype=np.uint64).reshape(-1, 4)
    s_hi, s_lo, i_hi, i_lo = words.T
    inc = (i_hi << 1 | i_lo >> 63, i_lo << 1 | 1)
    state = _add(_mul(_add((s_hi, s_lo), inc), _halves([_PCG_MULT])), inc)
    return np.array([*state, *inc], dtype=np.uint64).reshape(4, -1)


def _state_dict(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def pcg64_states(prefix, indices) -> list:
    """The ``bit_generator.state`` of ``np.random.default_rng((*prefix, i))`` for each i."""
    return [_state_dict(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
            for s_hi, s_lo, i_hi, i_lo in seeded(prefix, indices).T.tolist()]


def generators(keys):
    """Yield one reused Generator, set in turn to the state of each column of ``keys``.

    ``keys`` is a (4, k) array as ``seeded`` returns.  The same object is
    yielded every time: finish drawing from one stream before advancing to
    the next.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in keys.T.tolist():
        bit_generator.state = _state_dict(s_hi << 64 | s_lo, i_hi << 64 | i_lo)
        yield rng


@functools.cache
def _jumps() -> tuple:
    """(M^j, 1 + M + ... + M^(j-1)) mod 2^128 for j = 1 .. _WIDE, as (2, 1, _WIDE) halves.

    Cached, and read-only: every caller shares them (as _ziggurat's tables).
    """
    mult, add = [1], [0]
    for _ in range(_WIDE):
        mult.append(mult[-1] * _PCG_MULT & _MASK128)
        add.append((add[-1] * _PCG_MULT + 1) & _MASK128)
    return read_only(_halves(mult[1:])[:, None, :]), read_only(_halves(add[1:])[:, None, :])


def raw_words(keys, count: int) -> np.ndarray:
    """The first ``count`` raw 64-bit words of each key's stream, as a (k, count) array.

    Row i is ``random_raw(count)`` of a generator in the state of column i
    of ``keys`` (a ``seeded`` array).
    """
    out = np.empty((keys.shape[1], count), dtype=np.uint64)
    if count > _WIDE:
        for row, rng in zip(out, generators(keys)):
            row[:] = rng.bit_generator.random_raw(count)
        return out
    mult, add = (jump[..., :count] for jump in _jumps())
    rows = max(1, _CELLS // max(count, 1))
    for lo in range(0, len(out), rows):
        block = keys[:, lo:lo + rows, None]
        high, low = _add(_mul(block[:2], mult), _mul(block[2:], add))
        mixed, rot = high ^ low, high >> 58
        out[lo:lo + rows] = mixed >> rot | mixed << (-rot & 63)
    return out


@functools.cache
def _ziggurat() -> tuple:
    """numpy's normal() tables (wi, ki), probed from the installed numpy.

    A probe sets a state whose next word is chosen: the stepped state is
    the word itself (high half 0, so no rotation), stepped back once with
    inc = 1.  With rabs = 1, layer idx returns wi[idx] exactly.  ki[idx] is
    the least rabs whose normal reads a second word.  It lies within one of
    2^52·wi[idx - 1]/wi[idx] on most layers: two probes bracket it there
    and two more bisect the bracket.  Layers 0 and 1 are bisected over
    every rabs.  Layer 1 has ki = 0: its normals always take the slow path,
    so its wi is never used.  About 1400 probes, 5-10 ms, once per process.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    inverse = pow(_PCG_MULT, -1, 1 << 128)

    def probe(idx, rabs):
        """(normal(), whether it read one word) when the next word holds idx, sign 0 and rabs."""
        word = rabs << 9 | idx
        bit_generator.state = _state_dict((word - 1) * inverse & _MASK128, 1)
        value = rng.normal()
        return value, bit_generator.state["state"]["state"] == word

    wi = np.array([probe(idx, 1)[0] for idx in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        lo, hi = 0, 1 << 52  # rabs below lo read one word, rabs from hi on read more
        near = int(min(2.0 ** 52 * wi[idx - 1] / wi[idx], 2.0 ** 52)) if idx else 0
        if 2 <= near < (1 << 52) - 2 and probe(idx, near - 2)[1] and not probe(idx, near + 2)[1]:
            lo, hi = near - 1, near + 2
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if probe(idx, mid)[1] else (lo, mid)
        ki[idx] = lo
    return read_only(wi), read_only(ki)


def normals(words):
    """numpy's normal() from each raw word, and whether its ziggurat took that one word.

    Where the second array is False, normal() reads more words and the
    first array's entry is not its value.
    """
    wi, ki = _ziggurat()
    idx = words & 0xFF
    rabs = words >> 9 & (1 << 52) - 1
    x = rabs * wi[idx]
    x = 0.0 + 1.0 * np.where(words >> 8 & 1, -x, x)  # normal(loc=0, scale=1): loc + scale * x
    # in C order whatever the words' order: a batched matmul's row sums
    # depend on the layout, and callers take norms of the rows
    return np.ascontiguousarray(x), rabs < ki[idx]


def lemire(bits, k: int):
    """numpy's integers(k) from 32-bit draws (the low 32 bits of ``bits``), and their acceptance.

    For 1 < k < 2^32 (integers(1) draws nothing).  A rejected draw would
    be followed by another; its value here is not numpy's.
    """
    m = (bits & _MASK32) * np.uint64(k)
    return (m >> 32).astype(np.intp), (m & _MASK32) >= (2 ** 32 - k) % k


def normal_rows(prefix, indices, size: int) -> np.ndarray:
    """Row i is ``np.random.default_rng((*prefix, i)).normal(size=size)``, for each i.

    Decoded from raw words; a row with a slow-path normal is redrawn from
    its own stream.
    """
    keys = seeded(prefix, indices)
    values, fast = normals(raw_words(keys, size))
    slow = np.flatnonzero(~fast.all(axis=1))
    for row, rng in zip(slow, generators(keys[:, slow])):
        values[row] = rng.normal(size=size)
    return values
