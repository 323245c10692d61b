"""Hash functions used by the secure-world integrity checker.

The paper hashes kernel memory with djb2 [31].  We implement djb2 *really*
(the detection experiments depend on actual byte-level mismatches), with a
vectorised numpy fast path: djb2 is linear over Z/2^64 —

    h_out = h_in * 33^L  +  sum_i  c_i * 33^(L-1-i)   (mod 2^64)

so a whole chunk folds in as one exact float32 matrix product:

* the input is cut into rows of 256 bytes, the first row zero-padded at
  the *front* (leading zeros add nothing to the sum, so a partial row
  needs no separate path);
* the rows, as float32, multiply a 256x8 table whose column ``k`` holds
  byte ``k`` (the 8-bit limb) of ``mult^(255-j)`` mod 2^64;
* each row's 8 limb sums combine with one wrapping uint64 ``np.dot``
  against ``(mult^(256*(rows-1-b)) << 8k) mod 2^64``.

The float32 product is exact: a limb column sums at most
256 * 255 * 255 < 2^24, and every partial sum on the way is an integer
float32 represents exactly, so the digest does not depend on the order or
the number of threads BLAS sums in.  The fold runs in 64 KiB blocks: the
float32 scratch stays at 256 KiB per hashing thread, and each product is
small enough that OpenBLAS computes it on the calling thread.  From
128 KiB up, OpenBLAS 0.3 wakes a second thread: on a 2-vCPU host that
doubled the CPU time per byte, saved no wall time, and took the core of
the other campaign worker (``docs/performance.md``, "Scan hashing").

Each hashing thread keeps a one-slot memo of the last input it hashed,
keyed by ``(mult, value_in, len)``, with the value it produced.  An
:meth:`LinearHasher.update` whose key matches compares its input with the
slot's copy byte for byte and reuses the value only when they are equal,
so the memo is exact: it trusts no write counter or sample and cannot go
stale.  A digest is reused only for an input proven identical to one
already hashed.  The copy is a private ``bytearray`` that nothing else
references, taken only when a key repeats the previous call's, so inputs
hashed once (a trusted boot's distinct areas, a chunked scan's 4 KiB
steps) cost no copy.  A Table I trial hashes the same 1 MiB area 60
times; comparing it costs about a tenth of folding it.  The slot holds
one input per thread (the thread-backend executor's threads never share
one).

A pure-Python reference implementation cross-checks it in the tests.
sdbm (same structure, multiplier 65599) and fnv1a (non-linear, pure
Python) are provided as alternatives.
"""

from __future__ import annotations

import functools
import threading
from typing import Dict, Tuple, Union

import numpy as np

_MASK64 = (1 << 64) - 1

#: djb2 initial value and multiplier.
DJB2_INIT = 5381
DJB2_MULT = 33

#: sdbm multiplier (h = h * 65599 + c).
SDBM_MULT = 65599

#: fnv1a-64 parameters.
FNV1A_INIT = 0xCBF29CE484222325
FNV1A_PRIME = 0x100000001B3

#: Bytes per row of the float32 product (one limb-table row per byte).
_ROW = 256
#: Bytes folded per block: 64 KiB, so the float32 scratch is 256 KiB.
_BLOCK = 1 << 16
_BLOCK_ROWS = _BLOCK // _ROW

_fold_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

Buffer = Union[bytes, bytearray, memoryview]


def _tables(mult: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(limbs, weights)`` for ``mult``, built once per multiplier.

    ``limbs`` is the (256, 8) float32 table of the byte limbs of
    ``mult^(255-j)``; ``weights`` is the flat uint64 table
    ``(mult^(256*(_BLOCK_ROWS-1-b)) << 8k) mod 2^64``, whose last
    ``rows * 8`` entries combine a block of ``rows`` rows.
    """
    tables = _fold_tables.get(mult)
    if tables is None:
        powers = np.array(
            [pow(mult, _ROW - 1 - j, 1 << 64) for j in range(_ROW)], dtype="<u8"
        )
        limbs = powers.view(np.uint8).reshape(_ROW, 8).astype(np.float32)
        row_powers = np.array(
            [pow(mult, _ROW * (_BLOCK_ROWS - 1 - b), 1 << 64) for b in range(_BLOCK_ROWS)],
            dtype=np.uint64,
        )
        # uint64 shifts drop the bits shifted past 2^64: the mod is free.
        weights = (row_powers[:, None] << np.arange(0, 64, 8, dtype=np.uint64)).ravel()
        tables = _fold_tables[mult] = (limbs, weights)
    return tables


@functools.lru_cache(maxsize=256)
def _mult_pow(mult: int, n: int) -> int:
    """``mult^n mod 2^64``; scans repeat a handful of block lengths."""
    return pow(mult, n, 1 << 64)


#: Float32 staging rows for :func:`_fold_block`.  The thread-backend
#: campaign executor runs whole trials on concurrent threads, so each
#: hashing thread gets its own buffer.
_scratch_local = threading.local()

#: Per-thread one-slot memo: ``((mult, value_in, len), copy, value_out)``
#: for the last input :meth:`LinearHasher.update` folded on this thread;
#: ``copy`` is ``None`` until the key repeats.
_memo_local = threading.local()


def _fold_block(h: int, block: Buffer, mult: int) -> int:
    """Fold one block (<= ``_BLOCK`` bytes) into ``h`` for multiplier ``mult``."""
    data = np.frombuffer(block, dtype=np.uint8)
    n = data.shape[0]
    if n == 0:
        return h
    scratch = getattr(_scratch_local, "rows", None)
    if scratch is None:
        scratch = _scratch_local.rows = np.empty(_BLOCK, dtype=np.float32)
    rows = -(-n // _ROW)
    pad = rows * _ROW - n
    scratch[:pad] = 0
    scratch[pad : pad + n] = data
    limbs, weights = _tables(mult)
    sums = scratch[: rows * _ROW].reshape(rows, _ROW).dot(limbs)
    # uint64 array products wrap mod 2^64 without a warning.
    contrib = int(sums.astype(np.uint64).ravel().dot(weights[-rows * 8 :]))
    return (h * _mult_pow(mult, n) + contrib) & _MASK64


class LinearHasher:
    """Incremental hasher for multiplier-based (djb2/sdbm) hashes."""

    __slots__ = ("mult", "value")

    def __init__(self, mult: int, init: int) -> None:
        self.mult = mult
        self.value = init

    def update(self, data: Buffer) -> "LinearHasher":
        view = memoryview(data)
        key = (self.mult, self.value, len(view))
        slot = getattr(_memo_local, "slot", None)
        repeated = slot is not None and slot[0] == key
        # ``bytearray == buffer`` is one memcmp; ``memoryview == bytes``
        # compares item by item and costs more than the fold.
        if repeated and slot[1] is not None and slot[1] == view:
            self.value = slot[2]
            return self
        for start in range(0, len(view), _BLOCK):
            self.value = _fold_block(self.value, view[start : start + _BLOCK], self.mult)
        # Copy an input only when its key repeats the previous call's: the
        # distinct areas a trusted boot hashes once each then cost no copy.
        _memo_local.slot = (key, bytearray(view) if repeated else None, self.value)
        return self

    def digest(self) -> int:
        return self.value


class Djb2(LinearHasher):
    """Incremental djb2 (the paper's hash function)."""

    def __init__(self) -> None:
        super().__init__(DJB2_MULT, DJB2_INIT)


class Sdbm(LinearHasher):
    """Incremental sdbm."""

    def __init__(self) -> None:
        super().__init__(SDBM_MULT, 0)


def djb2(data: Buffer) -> int:
    """One-shot djb2 over ``data`` (numpy fast path)."""
    return Djb2().update(data).digest()


def sdbm(data: Buffer) -> int:
    """One-shot sdbm over ``data``."""
    return Sdbm().update(data).digest()


def fnv1a(data: Buffer) -> int:
    """One-shot FNV-1a 64 (non-linear; pure Python, for small inputs)."""
    h = FNV1A_INIT
    for byte in bytes(data):
        h = ((h ^ byte) * FNV1A_PRIME) & _MASK64
    return h


def djb2_reference(data: Buffer) -> int:
    """Textbook djb2 loop; cross-checks the vectorised path in tests."""
    h = DJB2_INIT
    for byte in bytes(data):
        h = (h * DJB2_MULT + byte) & _MASK64
    return h


def sdbm_reference(data: Buffer) -> int:
    """Textbook sdbm loop (h = c + (h << 6) + (h << 16) - h)."""
    h = 0
    for byte in bytes(data):
        h = (byte + (h << 6) + (h << 16) - h) & _MASK64
    return h
