"""Hash function tests: vectorised fast paths vs references."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.secure.hashes import (
    _BLOCK,
    Djb2,
    Sdbm,
    djb2,
    djb2_reference,
    fnv1a,
    sdbm,
    sdbm_reference,
)


def test_djb2_known_values():
    # h = 5381; empty input leaves it untouched.
    assert djb2(b"") == 5381
    assert djb2(b"a") == (5381 * 33 + ord("a")) & ((1 << 64) - 1)


#: Row and block edges of the float32 fold: a partial, a full and a
#: spilling 256-byte row, one block +-1, and 256 KiB +-1 (four blocks).
BOUNDARY_LENGTHS = (
    255, 256, 257, _BLOCK - 1, _BLOCK, _BLOCK + 1, (1 << 18) - 1, 1 << 18, (1 << 18) + 1
)


def _random_bytes(length, seed):
    return random.Random(seed).randbytes(length)


#: One input longer than a block, for the split-point checks.
LONG_DATA = _random_bytes(_BLOCK + 300, 0)
LONG_DJB2 = djb2_reference(LONG_DATA)


def test_djb2_matches_reference_basic():
    data = bytes(range(256)) * 10
    assert djb2(data) == djb2_reference(data)
    for length in BOUNDARY_LENGTHS:
        data = _random_bytes(length, length)
        assert djb2(data) == djb2_reference(data), length


def test_sdbm_matches_reference_basic():
    data = bytes(range(256)) * 10
    assert sdbm(data) == sdbm_reference(data)
    for length in BOUNDARY_LENGTHS:
        data = _random_bytes(length, length)
        assert sdbm(data) == sdbm_reference(data), length


def test_djb2_crosses_table_boundary():
    data = b"\xab" * ((1 << 16) + 17)
    assert djb2(data) == djb2_reference(data)
    # All-0xFF drives every limb column to the largest sum its table
    # allows (at most 256*255*255, under float32's 2^24 exact-integer
    # limit), for both multipliers.
    worst = b"\xff" * (_BLOCK + 17)
    assert djb2(worst) == djb2_reference(worst)
    assert sdbm(worst) == sdbm_reference(worst)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=4096))
def test_djb2_property_vs_reference(data):
    assert djb2(data) == djb2_reference(data)


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=2048))
def test_sdbm_property_vs_reference(data):
    assert sdbm(data) == sdbm_reference(data)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=2048), st.integers(min_value=1, max_value=500))
def test_incremental_equals_oneshot(data, split):
    split = min(split, len(data))
    hasher = Djb2()
    hasher.update(data[:split])
    hasher.update(data[split:])
    assert hasher.digest() == djb2(data)
    # Random split points across several updates, over more than a block.
    rng = random.Random(split)
    cuts = sorted(rng.randrange(len(LONG_DATA) + 1) for _ in range(4))
    hasher = Djb2()
    for start, end in zip([0] + cuts, cuts + [len(LONG_DATA)]):
        hasher.update(LONG_DATA[start:end])
    assert hasher.digest() == LONG_DJB2


def test_incremental_sdbm():
    hasher = Sdbm()
    hasher.update(b"hello ")
    hasher.update(b"world")
    assert hasher.digest() == sdbm(b"hello world")
    data = _random_bytes(2 * _BLOCK + 5, 12)
    for cuts in ([1, 255, 257, _BLOCK + 2], [_BLOCK - 1, _BLOCK, 2 * _BLOCK + 1]):
        hasher = Sdbm()
        for start, end in zip([0] + cuts, cuts + [len(data)]):
            hasher.update(data[start:end])
        assert hasher.digest() == sdbm_reference(data), cuts


def test_concurrent_hashing_matches_serial():
    # The fold stages rows in a per-thread float32 scratch; threads that
    # hash multi-block buffers at once must not see each other's rows.
    buffers = [_random_bytes(4 * _BLOCK + 1000 * i + 7, i) for i in range(4)]
    serial = [djb2(data) for data in buffers]
    results = [[] for _ in buffers]
    start = threading.Barrier(len(buffers))

    def work(i):
        start.wait(timeout=30)
        for _ in range(20):
            results[i].append(djb2(buffers[i]))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(buffers))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[digest] * 20 for digest in serial]


def test_single_byte_change_changes_digest():
    data = bytearray(b"\x00" * 1000)
    before = djb2(data)
    data[500] ^= 1
    assert djb2(data) != before


def test_memoryview_input():
    data = bytearray(b"some kernel bytes")
    assert djb2(memoryview(data)) == djb2(bytes(data))


def test_fnv1a_known_vectors():
    # Official FNV-1a 64 test vectors.
    assert fnv1a(b"") == 0xCBF29CE484222325
    assert fnv1a(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a(b"foobar") == 0x85944171F73967E8


def test_hashes_differ_from_each_other():
    data = b"collision check"
    assert len({djb2(data), sdbm(data), fnv1a(data)}) == 3
