"""Physical memory and TrustZone partitioning tests."""

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryAccessError, SecureAccessError
from repro.hw.memory import PhysicalMemory
from repro.hw.world import World


@pytest.fixture
def memory():
    mem = PhysicalMemory()
    mem.add_region("normal", 0x1000, 0x1000, secure=False)
    mem.add_region("secure", 0x8000, 0x1000, secure=True)
    return mem


def test_write_read_roundtrip(memory):
    memory.write(0x1100, b"hello", World.NORMAL)
    assert memory.read(0x1100, 5, World.NORMAL) == b"hello"


def test_regions_initialised_to_zero(memory):
    assert memory.read(0x1000, 16, World.NORMAL) == bytes(16)


def test_overlapping_regions_rejected():
    mem = PhysicalMemory()
    mem.add_region("a", 0x0, 0x100)
    with pytest.raises(MemoryAccessError):
        mem.add_region("b", 0x80, 0x100)


def test_zero_size_region_rejected():
    with pytest.raises(MemoryAccessError):
        PhysicalMemory().add_region("empty", 0x0, 0)


def test_secure_region_blocked_from_normal_world(memory):
    with pytest.raises(SecureAccessError):
        memory.read(0x8000, 4, World.NORMAL)
    with pytest.raises(SecureAccessError):
        memory.write(0x8000, b"\x00", World.NORMAL)
    with pytest.raises(SecureAccessError):
        memory.view(0x8000, 4, World.NORMAL)


def test_secure_world_sees_everything(memory):
    memory.write(0x8000, b"key", World.SECURE)
    assert memory.read(0x8000, 3, World.SECURE) == b"key"
    # The secure world also reads normal memory (TrustZone asymmetry).
    memory.write(0x1000, b"os", World.NORMAL)
    assert memory.read(0x1000, 2, World.SECURE) == b"os"


def test_out_of_map_access_raises(memory):
    with pytest.raises(MemoryAccessError):
        memory.read(0x5000, 4, World.NORMAL)


def test_access_straddling_region_end_raises(memory):
    with pytest.raises(MemoryAccessError):
        memory.read(0x1FFE, 4, World.NORMAL)


def test_view_is_zero_copy_and_writable(memory):
    memory.write(0x1000, b"abcd", World.NORMAL)
    view = memory.view(0x1000, 4, World.SECURE)
    assert bytes(view) == b"abcd"
    view[0] = ord("z")
    assert memory.read(0x1000, 4, World.NORMAL) == b"zbcd"


def test_region_lookup(memory):
    assert memory.region_at(0x1800).name == "normal"
    assert memory.region_at(0x7000) is None
    assert memory.region_named("secure").secure
    with pytest.raises(MemoryAccessError):
        memory.region_named("missing")


def test_access_counters(memory):
    region = memory.region_named("normal")
    memory.read(0x1000, 1, World.NORMAL)
    memory.write(0x1000, b"x", World.NORMAL)
    assert region.read_count == 1 and region.write_count == 1


def test_negative_length_rejected(memory):
    with pytest.raises(MemoryAccessError):
        memory.read(0x1800, -16, World.NORMAL)
    with pytest.raises(MemoryAccessError):
        memory.view(0x1800, -16, World.NORMAL)
    with pytest.raises(MemoryAccessError):
        memory.copy(0x1800, 0x1900, -16, World.NORMAL)


def test_copy_is_world_checked_and_counted(memory):
    normal = memory.region_named("normal")
    secure = memory.region_named("secure")
    memory.write(0x1100, b"kernel", World.NORMAL)
    with pytest.raises(SecureAccessError):
        memory.copy(0x1100, 0x8000, 6, World.NORMAL)
    memory.copy(0x1100, 0x8010, 6, World.SECURE)
    assert memory.read(0x8010, 6, World.SECURE) == b"kernel"
    assert (normal.read_count, normal.write_count) == (1, 1)
    assert (secure.read_count, secure.write_count) == (1, 1)


def test_map_private_is_copy_on_write():
    with tempfile.TemporaryFile() as backing:
        backing.truncate(0x1000)
        backing.write(b"image")
        backing.flush()
        mem = PhysicalMemory()
        region = mem.add_region("r", 0x0, 0x1000)
        assert region.pristine
        region.map_private(backing.fileno())
        assert region.write_count == 1 and not region.pristine
        assert mem.read(0x0, 8, World.NORMAL) == b"image\0\0\0"
        mem.write(0x0, b"E", World.NORMAL)
        assert mem.read(0x0, 5, World.NORMAL) == b"Emage"
        assert os.pread(backing.fileno(), 5, 0) == b"image"


@pytest.mark.parametrize("touch", ["read", "write", "view"])
def test_map_private_refuses_a_touched_region(touch):
    mem = PhysicalMemory()
    region = mem.add_region("r", 0x0, 0x1000)
    if touch == "read":
        mem.read(0x0, 1, World.NORMAL)
    elif touch == "write":
        mem.write(0x0, b"x", World.NORMAL)
    else:
        mem.view(0x0, 1, World.NORMAL)
    with tempfile.TemporaryFile() as backing:
        backing.truncate(0x1000)
        with pytest.raises(MemoryAccessError):
            region.map_private(backing.fileno())


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=0xF00),
    data=st.binary(min_size=1, max_size=256),
)
def test_roundtrip_property(offset, data):
    mem = PhysicalMemory()
    mem.add_region("r", 0x0, 0x1000)
    if offset + len(data) <= 0x1000:
        mem.write(offset, data, World.NORMAL)
        assert mem.read(offset, len(data), World.NORMAL) == data
