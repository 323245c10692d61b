"""The kernel image resident in simulated DRAM.

The image's bytes are deterministic pseudo-random data (standing in for
instruction/rodata bytes), with the system call table and exception vector
table written at their System.map symbol offsets.  All mutation goes through
the world-checked physical memory, so the secure world's view is exactly
what an attacker-modified normal world wrote — the substrate of every
detection experiment.
"""

from __future__ import annotations

import os
import threading
from typing import BinaryIO, Dict, Tuple

import numpy as np

from repro.config import KernelConfig
from repro.errors import MemoryAccessError
from repro.hw.memory import PhysicalMemory
from repro.hw.world import World
from repro.kernel.systemmap import Section, SystemMap

#: Process-scoped cache of image *template files* keyed by what fully
#: determines them: ``(image_seed, size, region_size, offset)``.  A template
#: is an anonymous file (a ``memfd`` on Linux, an unlinked temporary file
#: elsewhere) as large as the DRAM region, sparse, reading as zeros except
#: for the image bytes at the image's offset.  The bytes are a pure function
#: of the key (a private PCG64 stream, no machine RNG involved), written in
#: :data:`_TEMPLATE_CHUNK` steps so no full-image temporary is ever built.
#: Campaign workers churning through seeds skip the ~12 MB regeneration per
#: trial, and a pristine DRAM region maps its template copy-on-write instead
#: of copying the image in.
_CONTENT_CACHE: Dict[Tuple[int, int, int, int], BinaryIO] = {}

#: Bound the cache so a long-lived worker sweeping image seeds cannot hold
#: an unbounded number of ~12 MB templates alive.  Closing an evicted file
#: is safe: every mapping of it holds its own descriptor.
_CONTENT_CACHE_MAX = 4

#: Guards the cache when trials run concurrently in one process (inline
#: jobs on ``repro serve``'s job threads): a template is built once, and is
#: not closed by an eviction while another thread maps or reads it.
_CONTENT_CACHE_LOCK = threading.Lock()

#: Template bytes written per step (a multiple of 8: whole PCG64 words).
_TEMPLATE_CHUNK = 1 << 20


def _template_file() -> BinaryIO:
    """A new anonymous read-write file to back one template."""
    if hasattr(os, "memfd_create"):
        return os.fdopen(os.memfd_create("repro-image"), "w+b")
    import tempfile  # off Linux only: keeps it off the trial import path

    return tempfile.TemporaryFile()


def _template(key: Tuple[int, int, int, int]) -> BinaryIO:
    """The template file for ``key``; the caller holds the cache lock."""
    template = _CONTENT_CACHE.get(key)
    if template is None:
        image_seed, size, region_size, offset = key
        template = _template_file()
        template.truncate(region_size)
        template.seek(offset)
        # The raw words' little-endian bytes are exactly what
        # ``Generator(PCG64(seed)).integers(0, 256, size, dtype=np.uint8)``
        # returns: numpy takes each word's low 32-bit half, then its high
        # half, and each half's bytes from the low one up.
        bits = np.random.PCG64(image_seed)
        for start in range(0, size, _TEMPLATE_CHUNK):
            step = min(_TEMPLATE_CHUNK, size - start)
            words = bits.random_raw(-(-step // 8)).astype("<u8", copy=False)
            template.write(words.view(np.uint8)[:step])
        template.flush()
        if len(_CONTENT_CACHE) >= _CONTENT_CACHE_MAX:
            _CONTENT_CACHE.pop(next(iter(_CONTENT_CACHE))).close()
        _CONTENT_CACHE[key] = template
    return template


class KernelImage:
    """The static kernel: bytes in DRAM plus its System.map."""

    def __init__(
        self,
        memory: PhysicalMemory,
        config: KernelConfig,
        system_map: "SystemMap | None" = None,
    ) -> None:
        self.memory = memory
        self.config = config
        self.system_map = system_map if system_map is not None else SystemMap(
            total=config.image_size, count=config.section_count
        )
        self.base = config.image_base
        self.size = self.system_map.total_size
        self._populate()

    def _populate(self) -> None:
        """Fill the image with deterministic pseudo-random content.

        The DRAM region must be pristine: it maps the cached template
        copy-on-write, counted as one write.
        """
        region = self.memory.region_at(self.base)
        if region is None or not region.contains(self.base, self.size):
            raise MemoryAccessError(
                f"kernel image [{self.base:#x}, {self.base + self.size:#x}) "
                "is outside the memory map"
            )
        offset = self.base - region.base
        key = (self.config.image_seed, self.size, region.size, offset)
        with _CONTENT_CACHE_LOCK:
            region.map_private(_template(key).fileno())

    @property
    def write_count(self) -> int:
        """Writes ever made to the backing region (a cheap mutation epoch).

        A fused scan samples this before and after its span to prove no
        write interleaved while its chunks were being hashed up front.
        """
        region = self.memory.region_at(self.base)
        return region.write_count if region is not None else 0

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------
    def addr_of(self, offset: int) -> int:
        """Physical address of image-relative ``offset``."""
        return self.base + offset

    def offset_of(self, addr: int) -> int:
        """Image-relative offset of physical address ``addr``."""
        return addr - self.base

    def symbol_addr(self, name: str) -> int:
        return self.addr_of(self.system_map.symbol(name))

    def section_at(self, offset: int) -> Section:
        return self.system_map.section_at(offset)

    # ------------------------------------------------------------------
    # World-checked byte access
    # ------------------------------------------------------------------
    def read(self, offset: int, length: int, world: World) -> bytes:
        return self.memory.read(self.addr_of(offset), length, world)

    def write(self, offset: int, data: bytes, world: World) -> None:
        self.memory.write(self.addr_of(offset), data, world)

    def view(self, offset: int, length: int, world: World) -> memoryview:
        """Zero-copy view for bulk hashing (secure-world introspection)."""
        return self.memory.view(self.addr_of(offset), length, world)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelImage base={self.base:#x} size={self.size}>"
