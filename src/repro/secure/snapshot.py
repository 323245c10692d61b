"""Snapshot-based introspection primitive.

Traditional hardware-assisted introspection copies the target memory into a
protected buffer and analyses the copy (HyperCheck/SPECTRE style); on
TrustZone the secure world can instead hash normal memory *directly*.
Table I compares the two per-byte costs; this module implements the
snapshot variant: a region of secure SRAM receives the copy, and the copy
(not live kernel memory) is hashed afterwards.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple

from repro.errors import IntrospectionError
from repro.hw.core import Core
from repro.hw.memory import PhysicalMemory
from repro.hw.world import World
from repro.secure.hashes import Djb2
from repro.sim.process import cpu


class SecureSnapshotBuffer:
    """A staging area in secure SRAM for kernel-memory snapshots."""

    def __init__(self, memory: PhysicalMemory, base: int, capacity: int) -> None:
        region = memory.region_at(base)
        if region is None or not region.secure:
            raise IntrospectionError("snapshot buffer must live in secure memory")
        if not region.contains(base, capacity):
            raise IntrospectionError("snapshot buffer exceeds its secure region")
        self.memory = memory
        self.base = base
        self.capacity = capacity
        self.snapshots_taken = 0
        #: Fault hook: ``(chunk_offset, chunk) -> chunk`` applied to each
        #: chunk as it lands in the buffer — models the copy (not live
        #: kernel memory) being corrupted in flight.  The returned bytes
        #: (same length as the chunk) are both stored and hashed, so a
        #: corrupted copy mismatches its authorized digest while a direct
        #: re-scan still verifies clean.
        self.fault_hook: Optional[Callable[[int, bytes], bytes]] = None

    def take_and_hash(
        self,
        core: Core,
        source_addr: int,
        length: int,
        chunk_size: int = 4096,
    ) -> Generator[Any, Any, Tuple[int, memoryview]]:
        """Copy ``length`` bytes into the buffer and djb2-hash the copy.

        A coroutine for secure-world execution: each chunk is copied from
        live kernel memory at its position in the scan timeline (so a
        concurrent attacker race resolves at chunk granularity) and hashed
        where it landed, then the combined copy+hash cost is charged per
        Table I's snapshot column.

        Returns ``(digest, copy)``, where ``copy`` is a read-only view of
        the secure SRAM the snapshot was staged in: it stays valid until
        the next snapshot overwrites the buffer.
        """
        if length > self.capacity:
            raise IntrospectionError(
                f"snapshot of {length} bytes exceeds buffer capacity {self.capacity}"
            )
        self.snapshots_taken += 1
        hasher = Djb2()
        memory = self.memory
        offset = 0
        while offset < length:
            step = min(chunk_size, length - offset)
            target = self.base + offset
            memory.copy(source_addr + offset, target, step, World.SECURE)
            staged = memory.view(target, step, World.SECURE)
            if self.fault_hook is not None:
                chunk = self.fault_hook(offset, bytes(staged))
                if len(chunk) != step:
                    raise IntrospectionError(
                        f"snapshot fault hook returned {len(chunk)} bytes "
                        f"for a {step}-byte chunk"
                    )
                staged[:] = chunk
            hasher.update(staged)
            yield cpu(step * core.perf.snapshot_byte())
            offset += step
        staged = memory.view(self.base, length, World.SECURE).toreadonly()
        return hasher.digest(), staged
