"""Hash function tests: vectorised fast paths vs references."""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.secure.hashes as hashes
from repro.secure.hashes import (
    _BLOCK,
    DJB2_INIT,
    DJB2_MULT,
    SDBM_MULT,
    Djb2,
    LinearHasher,
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
    # The fold stages rows in a per-thread float32 scratch, and each thread
    # memoises its last input; threads that hash multi-block buffers at
    # once must not see each other's rows or slots.  Each thread hashes an
    # input twice, then a copy differing in one byte: from the second round
    # on, the second call is a memo hit and the first and third must miss.
    buffers = [_random_bytes(4 * _BLOCK + 1000 * i + 7, i) for i in range(4)]
    mutated = [_flip(data, len(data) // 2) for data in buffers]
    serial = [
        (djb2_reference(data), djb2_reference(other))
        for data, other in zip(buffers, mutated)
    ]
    results = [[] for _ in buffers]
    start = threading.Barrier(len(buffers))

    def work(i):
        start.wait(timeout=30)
        for _ in range(10):
            results[i].append(djb2(buffers[i]))
            results[i].append(djb2(buffers[i]))
            results[i].append(djb2(mutated[i]))

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
    assert results == [[clean, clean, dirty] * 10 for clean, dirty in serial]


def _flip(data, index):
    """``data`` with the byte at ``index`` changed."""
    changed = bytearray(data)
    changed[index] ^= 0x5A
    return bytes(changed)


def _linear_reference(data, mult, init):
    h = init
    for byte in bytes(data):
        h = (h * mult + byte) & ((1 << 64) - 1)
    return h


def _memoise(data):
    """Hash ``data`` twice: the slot copies an input once its key repeats."""
    djb2(data)
    return djb2(data)


def test_memo_reuses_a_digest_only_for_identical_bytes():
    # Each pair shares the memo key (multiplier, value in, length); only
    # the byte comparison tells the second input from the first.
    for index in (0, len(LONG_DATA) - 1):
        assert _memoise(LONG_DATA) == LONG_DJB2
        changed = _flip(LONG_DATA, index)
        assert djb2(changed) == djb2_reference(changed), index
    assert _memoise(LONG_DATA) == LONG_DJB2
    # An equal input in a different object is a hit, and still exact.
    assert djb2(bytes(bytearray(LONG_DATA))) == LONG_DJB2


def test_memo_sees_in_place_mutation():
    buffer = bytearray(LONG_DATA)
    assert _memoise(buffer) == LONG_DJB2
    buffer[_BLOCK + 7] ^= 1
    assert djb2(buffer) == djb2_reference(buffer) != LONG_DJB2

    array = np.frombuffer(LONG_DATA, dtype=np.uint8).copy()
    view = memoryview(array)
    assert _memoise(view) == LONG_DJB2
    view[-1] = (view[-1] + 1) % 256
    assert djb2(view) == djb2_reference(array.tobytes()) != LONG_DJB2


def test_memo_key_includes_the_multiplier():
    # The same input, value in and length under djb2's and sdbm's
    # multipliers: a slot keyed without the multiplier would hand the
    # second hasher the first one's digest.
    data = _random_bytes(3000, 5)
    for first, second in ((DJB2_MULT, SDBM_MULT), (SDBM_MULT, DJB2_MULT)):
        for mult in (first, first, second):
            digest = LinearHasher(mult, DJB2_INIT).update(data).digest()
            assert digest == _linear_reference(data, mult, DJB2_INIT), mult


def test_incremental_update_after_a_memo_hit():
    assert _memoise(LONG_DATA) == LONG_DJB2
    hasher = Djb2()
    hasher.update(LONG_DATA)  # a hit: value in, length and bytes match
    hasher.update(b"tail")
    assert hasher.digest() == djb2_reference(LONG_DATA + b"tail")
    hasher = Djb2().update(LONG_DATA).update(LONG_DATA)
    assert hasher.digest() == djb2_reference(LONG_DATA * 2)


def test_memo_holds_one_input_per_thread(monkeypatch):
    folds = []
    fold = hashes._fold_block

    def counting_fold(h, block, mult):
        folds.append(len(block))
        return fold(h, block, mult)

    djb2(b"evict")  # whatever an earlier test left in this thread's slot
    monkeypatch.setattr(hashes, "_fold_block", counting_fold)
    other = _flip(LONG_DATA, 0)
    # Two blocks per fold.  The first call keys the slot, the second
    # copies the input, the third reuses its digest.
    assert [djb2(LONG_DATA) for _ in range(3)] == [LONG_DJB2] * 3
    assert len(folds) == 4
    # Another thread's inputs do not evict this thread's slot.
    thread = threading.Thread(target=_memoise, args=(other,))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert len(folds) == 8
    assert djb2(LONG_DATA) == LONG_DJB2
    assert len(folds) == 8
    # One slot: a second input here evicts the first.
    djb2(other)
    assert djb2(LONG_DATA) == LONG_DJB2
    assert len(folds) == 12


def test_inputs_hashed_once_are_not_copied():
    # A trusted boot hashes each area once; only a key that repeats the
    # previous call's gets its input copied.
    djb2(b"evict")
    for length in (300, 500, 700):
        djb2(LONG_DATA[:length])
        assert hashes._memo_local.slot[1] is None
    djb2(LONG_DATA[:700])
    assert hashes._memo_local.slot[1] == LONG_DATA[:700]


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
