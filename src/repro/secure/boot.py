"""Trusted boot: the authorized hash table.

During the (trusted) boot stage, before any normal-world code runs, the
secure world hashes each introspection area of the pristine kernel image
and stores the digests in secure SRAM.  The table is physically backed by
bytes in the secure region — the normal world cannot even read them, which
a test asserts directly.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple

from repro.errors import IntrospectionError
from repro.hw.memory import PhysicalMemory
from repro.hw.world import World
from repro.kernel.image import KernelImage
from repro.secure.hashes import djb2

#: (offset, length) pair describing one introspection area.
AreaSpan = Tuple[int, int]

#: Module-level boot counters read by the end-to-end benchmark harness.
#: Every boot hashes every area (``misses``); ``hits`` stays 0 because no
#: digest table is ever reused across boots.
DIGEST_CACHE_STATS = {"hits": 0, "misses": 0}


class AuthorizedHashStore:
    """Per-area benign digests, resident in secure SRAM."""

    ENTRY_SIZE = 8

    def __init__(
        self,
        memory: PhysicalMemory,
        table_base: int,
        capacity_entries: int = 64,
    ) -> None:
        region = memory.region_at(table_base)
        if region is None or not region.secure:
            raise IntrospectionError("hash table must live in secure memory")
        if not region.contains(table_base, capacity_entries * self.ENTRY_SIZE):
            raise IntrospectionError("hash table exceeds its secure region")
        self.memory = memory
        self.table_base = table_base
        self.capacity_entries = capacity_entries
        self._spans: List[AreaSpan] = []
        self._index_of: Dict[AreaSpan, int] = {}

    # ------------------------------------------------------------------
    def compute_at_boot(self, image: KernelImage, areas: Sequence[AreaSpan]) -> None:
        """Hash the image per area and persist the digests in secure SRAM."""
        if len(areas) > self.capacity_entries:
            raise IntrospectionError(
                f"{len(areas)} areas exceed table capacity {self.capacity_entries}"
            )
        self._spans = list(areas)
        self._index_of = {span: i for i, span in enumerate(self._spans)}
        DIGEST_CACHE_STATS["misses"] += 1
        for i, (offset, length) in enumerate(self._spans):
            digest = djb2(image.view(offset, length, World.SECURE))
            self.memory.write(
                self.table_base + i * self.ENTRY_SIZE,
                struct.pack("<Q", digest),
                World.SECURE,
            )

    # ------------------------------------------------------------------
    def expected_digest(self, span: AreaSpan, world: World = World.SECURE) -> int:
        """Authorized digest of an area (secure-world access only)."""
        index = self._index_of.get(span)
        if index is None:
            raise IntrospectionError(f"no authorized digest for area {span}")
        raw = self.memory.read(
            self.table_base + index * self.ENTRY_SIZE, self.ENTRY_SIZE, world
        )
        return struct.unpack("<Q", raw)[0]

    @property
    def spans(self) -> List[AreaSpan]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)
