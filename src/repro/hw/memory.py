"""Physical memory with TrustZone secure/normal partitioning.

The TZASC (TrustZone Address Space Controller) is modelled as a per-region
``secure`` flag: a secure region is readable/writable only when the access
originates from the secure world; normal regions are accessible from both
worlds (the secure world has full visibility of normal memory — the property
all TrustZone introspection builds on).

A region's bytes are backed either by lazily zeroed anonymous memory or,
for a region that nothing has touched yet, by a private (copy-on-write)
mapping of a file: a kernel image template is mapped this way, so stacks
share its pages until one of them writes.

:meth:`PhysicalMemory.release` drops every region's backing (and with a
mapped region its duplicated file descriptor) the moment it is called,
without waiting for the cyclic collector: a finished machine is a cycle
of cores, timers and callbacks, and a campaign trial releases its
machines' memory when it ends.  A released memory raises
:class:`~repro.errors.MemoryAccessError` on every access.
"""

from __future__ import annotations

import mmap
from typing import List, Optional

import numpy as np

from repro.errors import MemoryAccessError, SecureAccessError
from repro.hw.world import World


class MemoryRegion:
    """A contiguous physical region with a security attribute."""

    __slots__ = ("name", "base", "size", "secure", "_backing", "data",
                 "read_count", "write_count", "viewed")

    def __init__(self, name: str, base: int, size: int, secure: bool) -> None:
        if size <= 0:
            raise MemoryAccessError(f"region {name!r}: size must be positive")
        if base < 0:
            raise MemoryAccessError(f"region {name!r}: negative base address")
        self.name = name
        self.base = base
        self.size = size
        self.secure = secure
        # numpy's zeros() gets calloc'd (lazily zeroed) pages, so building a
        # 256 MB DRAM region costs microseconds instead of a full memset the
        # way ``bytearray(size)`` does; accesses go through the memoryview,
        # which supports the same slicing/assignment the bytearray did.
        self._backing = np.zeros(size, dtype=np.uint8)
        self.data = memoryview(self._backing)
        self.read_count = 0
        self.write_count = 0
        self.viewed = False

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    @property
    def pristine(self) -> bool:
        """No access has read, written or viewed the region yet."""
        return not (self.read_count or self.write_count or self.viewed)

    def map_private(self, fd: int) -> None:
        """Back the region with a private mapping of the first ``size``
        bytes of file ``fd``, counted as one write.

        Pages are shared with the file until written, and a write never
        reaches the file.  Only a pristine region can be remapped: a view
        taken earlier would keep pointing at the old backing.

        The mapping holds its own duplicate of ``fd`` (so the caller may
        close ``fd``) until the region's backing is freed: one open
        descriptor per mapped region, released with the region.
        """
        if not self.pristine:
            raise MemoryAccessError(
                f"region {self.name!r}: only a pristine region can be mapped"
            )
        mapping = mmap.mmap(fd, self.size, access=mmap.ACCESS_COPY)
        self._backing = np.frombuffer(mapping, dtype=np.uint8)
        self.data = memoryview(self._backing)
        self.write_count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "secure" if self.secure else "normal"
        return f"<MemoryRegion {self.name} [{self.base:#x}, {self.end:#x}) {kind}>"


class PhysicalMemory:
    """The board's physical address space as a set of disjoint regions."""

    def __init__(self) -> None:
        self._regions: List[MemoryRegion] = []
        self.released = False

    def add_region(self, name: str, base: int, size: int, secure: bool = False) -> MemoryRegion:
        """Register a new region; overlapping an existing region is an error."""
        region = MemoryRegion(name, base, size, secure)
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise MemoryAccessError(
                    f"region {name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        return region

    def release(self) -> None:
        """Drop every region's backing; a second call is a no-op.

        A backing is freed as soon as no view taken from it is alive.
        Afterwards the address map is empty, so every read, write, view
        and copy raises :class:`MemoryAccessError`.
        """
        for region in self._regions:
            region._backing = region.data = None
        self._regions = []
        self.released = True

    def region_named(self, name: str) -> MemoryRegion:
        for region in self._regions:
            if region.name == name:
                return region
        raise MemoryAccessError(f"no region named {name!r}")

    def region_at(self, addr: int) -> Optional[MemoryRegion]:
        for region in self._regions:
            if region.contains(addr):
                return region
        return None

    def _resolve(self, addr: int, length: int, world: World, write: bool) -> MemoryRegion:
        if length < 0:
            raise MemoryAccessError(f"access at {addr:#x}: negative length {length}")
        region = self.region_at(addr)
        if region is None or not region.contains(addr, length):
            if self.released:
                raise MemoryAccessError(
                    f"access at {addr:#x}: the memory was released"
                )
            raise MemoryAccessError(
                f"access [{addr:#x}, {addr + length:#x}) is outside the memory map"
            )
        if region.secure and world is not World.SECURE:
            op = "write" if write else "read"
            raise SecureAccessError(
                f"normal world cannot {op} secure region {region.name!r}"
            )
        return region

    # ------------------------------------------------------------------
    # World-checked accessors
    # ------------------------------------------------------------------
    def read(self, addr: int, length: int, world: World) -> bytes:
        """Read ``length`` bytes at ``addr`` on behalf of ``world``."""
        region = self._resolve(addr, length, world, write=False)
        region.read_count += 1
        offset = addr - region.base
        return bytes(region.data[offset : offset + length])

    def write(self, addr: int, data: bytes, world: World) -> None:
        """Write ``data`` at ``addr`` on behalf of ``world``."""
        region = self._resolve(addr, len(data), world, write=True)
        region.write_count += 1
        offset = addr - region.base
        region.data[offset : offset + len(data)] = data

    def view(self, addr: int, length: int, world: World) -> memoryview:
        """Zero-copy world-checked view; the fast path for bulk hashing.

        The secure world uses this to hash megabytes of kernel memory
        without copying; mutation through the view is possible and is
        equivalent to :meth:`write` at the same address.
        """
        region = self._resolve(addr, length, world, write=False)
        region.viewed = True
        offset = addr - region.base
        return memoryview(region.data)[offset : offset + length]

    def copy(self, src: int, dst: int, length: int, world: World) -> None:
        """Copy ``length`` bytes from ``src`` to ``dst`` on behalf of ``world``.

        One memcpy, counted like :meth:`read` at ``src`` followed by
        :meth:`write` at ``dst``.
        """
        source = self._resolve(src, length, world, write=False)
        target = self._resolve(dst, length, world, write=True)
        source.read_count += 1
        target.write_count += 1
        s = src - source.base
        d = dst - target.base
        target.data[d : d + length] = source.data[s : s + length]

    @property
    def regions(self) -> List[MemoryRegion]:
        return list(self._regions)
