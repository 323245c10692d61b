"""The kernel image resident in simulated DRAM.

The image's bytes are deterministic pseudo-random data (standing in for
instruction/rodata bytes), with the system call table and exception vector
table written at their System.map symbol offsets.  All mutation goes through
the world-checked physical memory, so the secure world's view is exactly
what an attacker-modified normal world wrote — the substrate of every
detection experiment.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

from repro.config import KernelConfig
from repro.hw.memory import PhysicalMemory
from repro.hw.world import World
from repro.kernel.systemmap import Section, SystemMap

#: Process-scoped cache of generated image content keyed by what fully
#: determines it: ``(image_seed, size)``.  The bytes are a pure function of
#: the key (a private PCG64 stream, no machine RNG involved), so campaign
#: workers churning through seeds skip the ~12 MB regeneration per trial.
_CONTENT_CACHE: Dict[Tuple[int, int], bytes] = {}

#: Bound the cache so a long-lived worker sweeping image seeds cannot hold
#: an unbounded number of ~12 MB payloads alive.
_CONTENT_CACHE_MAX = 4

#: Guards cache mutation under the thread executor backend (concurrent
#: trials in one process); lookups stay lock-free.
_CONTENT_CACHE_LOCK = threading.Lock()


def image_content(image_seed: int, size: int) -> bytes:
    """Deterministic pseudo-random image bytes for ``(image_seed, size)``."""
    key = (image_seed, size)
    content = _CONTENT_CACHE.get(key)
    if content is None:
        rng = np.random.Generator(np.random.PCG64(image_seed))
        content = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        with _CONTENT_CACHE_LOCK:
            if len(_CONTENT_CACHE) >= _CONTENT_CACHE_MAX:
                _CONTENT_CACHE.pop(next(iter(_CONTENT_CACHE)))
            _CONTENT_CACHE[key] = content
    return content


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
        """Fill the image with deterministic pseudo-random content."""
        content = image_content(self.config.image_seed, self.size)
        # The boot loader owns memory before the OS runs; write as SECURE
        # (trusted boot stage) so this works regardless of region attributes.
        self.memory.write(self.base, content, World.SECURE)

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
