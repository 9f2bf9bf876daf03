"""Words and draws decoded from PCG64 states must be numpy's own, bit for bit.

A probe state is one whose raw word at a chosen position is a chosen value,
so each decoding rule is checked against numpy on the words that exercise
it: every ziggurat layer at both sides of its fast-path threshold, Lemire
rejections, and the word-count rule of ``raw_words``.  The tables' digest
is pinned too, so a numpy release that changes them fails here.
"""
import hashlib

import numpy as np
import pytest

from conftest import generator, probe_key
from lipstab import streams
from lipstab.streams import lemire, normal_rows, normals, raw_words, seeded

TABLES_SHA256 = "c42158fec99c675f02ef73a973556f473c2c0dc0451a710862af14650f1c76be"


def reads_one_word(key, draw) -> bool:
    """Whether ``draw(rng)`` moves a generator in the key's state by exactly one word."""
    rng, twin = generator(key), generator(key)
    draw(rng)
    twin.bit_generator.random_raw(1)
    return rng.bit_generator.state["state"] == twin.bit_generator.state["state"]


def test_probe_keys_put_the_word_in_place():
    rng = np.random.default_rng(3)
    for word, position in zip(rng.integers(0, 2**63, 20).tolist(), range(20)):
        key = probe_key(word, position)
        assert generator(key).bit_generator.random_raw(position + 1)[-1] == word
        assert raw_words(key, position + 1)[0, -1] == word


def test_ziggurat_tables_are_pinned():
    wi, ki = streams._ziggurat()
    assert wi.dtype == np.float64 and ki.dtype == np.uint64 and wi.shape == ki.shape == (256,)
    assert int(ki[0]) == 0x000EF33D8025EF6A and int(ki[1]) == 0
    assert hashlib.sha256(wi.tobytes() + ki.astype("<u8").tobytes()).hexdigest() \
        == TABLES_SHA256


def test_every_ziggurat_layer_against_numpy():
    # each layer at both signs, at rabs 0, 1, ki - 1, ki and the largest:
    # normal() reads one word and returns the decoded value iff rabs < ki
    wi, ki = streams._ziggurat()
    for idx in range(256):
        bound = int(ki[idx])
        for rabs in sorted({0, 1, max(bound - 1, 0), min(bound, 2**52 - 1), 2**52 - 1}):
            for sign in (0, 1):
                word = rabs << 9 | sign << 8 | idx
                key = probe_key(word)
                value, fast = normals(np.array([word], dtype=np.uint64))
                assert fast[0] == (rabs < bound) == reads_one_word(key, lambda g: g.normal())
                if fast[0]:
                    ref = generator(key).normal()
                    assert value[0].tobytes() == np.float64(ref).tobytes(), (idx, rabs, sign)
                    assert value[0] == (-1) ** sign * rabs * wi[idx]


def test_normals_flag_exactly_the_slow_words():
    keys = seeded((9, 4), range(3000))
    words = raw_words(keys, 3)
    values, fast = normals(words)
    rows = fast.all(axis=1)
    assert 0 < (~rows).sum() < 0.1 * len(rows)
    for i in range(len(rows)):
        rng = np.random.default_rng((9, 4, i))
        ref = rng.normal(size=3)
        if rows[i]:
            assert values[i].tobytes() == ref.tobytes()
        else:  # the first slow normal read a second word
            first = int(np.argmin(fast[i]))
            assert values[i, :first].tobytes() == ref[:first].tobytes()
            assert not reads_one_word(probe_key(int(words[i, first])), lambda g: g.normal())
    assert values.flags.c_contiguous


@pytest.mark.parametrize("size", [1, 4, 300])
def test_normal_rows_are_default_rng_normals(size):
    # 300 normals take the per-key random_raw branch of raw_words
    indices = range(5, 405)
    got = normal_rows((2**32 + 7, 0, 3), indices, size)
    ref = np.array([np.random.default_rng((2**32 + 7, 0, 3, i)).normal(size=size)
                    for i in indices])
    assert got.tobytes() == ref.tobytes() and got.flags.c_contiguous


@pytest.mark.parametrize("count", [1, 2, 9, streams._WIDE - 1, streams._WIDE,
                                   streams._WIDE + 1, 300])
def test_raw_words_are_random_raw(count):
    # a whole 1024-key block, on both sides of the width rule, in one pass
    # of the array steps or in several (_CELLS words each)
    keys = seeded((11, 2), range(1024))
    ref = np.array([np.random.default_rng((11, 2, i)).bit_generator.random_raw(count)
                    for i in range(1024)]).reshape(1024, count)
    got = raw_words(keys, count)
    assert got.dtype == np.uint64 and np.array_equal(got, ref)


def test_raw_words_of_two_word_indices_and_no_keys():
    indices = [2**32, 2**32 + 1, 3 * 2**40]
    ref = [np.random.default_rng((1, i)).bit_generator.random_raw(7) for i in indices]
    assert np.array_equal(raw_words(seeded((1,), indices), 7), ref)
    assert raw_words(seeded((1,), []), 7).shape == (0, 7)


@pytest.mark.parametrize("k", [2, 3, 7, 1000, 2**31 + 5, 2**32 - 1])
def test_lemire_is_integers(k):
    # low halves that accept and that reject (0 is rejected whenever 2^32 mod k > 0)
    rng = np.random.default_rng(k)
    lows = [0, 1, 2**32 - 1, *rng.integers(0, 2**32, 40).tolist()]
    highs = rng.integers(0, 2**32, len(lows)).tolist()
    rejected = 0
    for low, high in zip(lows, highs):
        word = high << 32 | low
        value, accepted = lemire(np.array([word], dtype=np.uint64), k)
        got = generator(probe_key(word)).integers(k)
        if accepted[0]:
            assert got == value[0]
        else:  # numpy drew again, from the same word's high half
            rejected += 1
            again, ok = lemire(np.array([high], dtype=np.uint64), k)
            assert got == again[0] or not ok[0]
    assert rejected >= (2**32 % k > 0)


def test_the_next_integers_takes_the_high_half():
    # after a random_raw in between, as the linf sample's two pinned indices do
    for word in np.random.default_rng(5).integers(0, 2**63, 20).tolist():
        rng = generator(probe_key(word))
        first = rng.integers(6)
        rng.bit_generator.random_raw(4)
        second = rng.integers(1000)
        assert first == lemire(np.array([word], dtype=np.uint64), 6)[0][0]
        assert second == lemire(np.array([word >> 32], dtype=np.uint64), 1000)[0][0]
