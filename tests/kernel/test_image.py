"""Kernel image tests."""

import gc
import hashlib
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.attacks.rootkit import EVIL_SYSCALL_HANDLER
from repro.config import KernelConfig
from repro.errors import MemoryAccessError
from repro.hw.memory import PhysicalMemory
from repro.hw.platform import build_machine
from repro.hw.world import World
from repro.kernel import image as image_module
from repro.kernel.image import KernelImage
from repro.kernel.os import boot_rich_os
from repro.kernel.syscalls import ENTRY_SIZE, NR_GETTID
from tests.conftest import SMALL_KERNEL_SIZE, small_config
from tests.hw.test_release import open_fds

DRAM_BASE = 0x8000_0000
DRAM_SIZE = 32 * 1024 * 1024


def _build(image_seed: int = KernelConfig.image_seed) -> KernelImage:
    memory = PhysicalMemory()
    memory.add_region("dram", DRAM_BASE, DRAM_SIZE)
    config = KernelConfig(image_size=SMALL_KERNEL_SIZE, image_seed=image_seed)
    return KernelImage(memory, config)


@pytest.fixture
def image():
    return _build()


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty template cache whose files are closed afterwards."""
    cache = {}
    monkeypatch.setattr(image_module, "_CONTENT_CACHE", cache)
    yield cache
    for template in cache.values():
        template.close()


def _template_bytes(key):
    with image_module._CONTENT_CACHE_LOCK:
        fd = image_module._template(key).fileno()
    return os.pread(fd, key[2] + 1, 0)  # a byte past the region reads nothing


def test_content_is_deterministic(image):
    memory2 = PhysicalMemory()
    memory2.add_region("dram", 0x8000_0000, 32 * 1024 * 1024)
    image2 = KernelImage(memory2, KernelConfig(image_size=SMALL_KERNEL_SIZE))
    assert image.read(0, 4096, World.NORMAL) == image2.read(0, 4096, World.NORMAL)


def test_different_seed_changes_content():
    memory = PhysicalMemory()
    memory.add_region("dram", 0x8000_0000, 32 * 1024 * 1024)
    other = KernelImage(
        memory, KernelConfig(image_size=SMALL_KERNEL_SIZE, image_seed=7)
    )
    memory2 = PhysicalMemory()
    memory2.add_region("dram", 0x8000_0000, 32 * 1024 * 1024)
    default = KernelImage(memory2, KernelConfig(image_size=SMALL_KERNEL_SIZE))
    assert other.read(0, 1024, World.NORMAL) != default.read(0, 1024, World.NORMAL)


def test_addr_offset_roundtrip(image):
    addr = image.addr_of(1234)
    assert image.offset_of(addr) == 1234


def test_symbol_addr(image):
    sym = image.system_map.symbol("sys_call_table")
    assert image.symbol_addr("sys_call_table") == image.base + sym


def test_write_visible_to_both_worlds(image):
    image.write(100, b"evil", World.NORMAL)
    assert image.read(100, 4, World.SECURE) == b"evil"


def test_view_matches_read(image):
    view = image.view(0, 512, World.SECURE)
    assert bytes(view) == image.read(0, 512, World.NORMAL)


def test_section_lookup(image):
    section = image.section_at(0)
    assert section.index == 0


def test_read_past_dram_raises(image):
    with pytest.raises(MemoryAccessError):
        image.read(64 * 1024 * 1024, 8, World.NORMAL)


def test_size_matches_config(image):
    assert image.size == SMALL_KERNEL_SIZE


def test_images_from_one_template_are_copy_on_write():
    first, second = _build(), _build()
    assert first.write_count == second.write_count == 1
    original = first.read(0, SMALL_KERNEL_SIZE, World.SECURE)
    hijack = (
        first.system_map.symbol("sys_call_table") + NR_GETTID * ENTRY_SIZE
    )
    evil = struct.pack("<Q", EVIL_SYSCALL_HANDLER)
    assert first.read(hijack, ENTRY_SIZE, World.NORMAL) != evil
    first.write(hijack, evil, World.NORMAL)
    assert first.read(hijack, ENTRY_SIZE, World.NORMAL) == evil
    assert second.read(0, SMALL_KERNEL_SIZE, World.SECURE) == original
    assert _build().read(0, SMALL_KERNEL_SIZE, World.SECURE) == original
    offset = first.base - DRAM_BASE
    key = (KernelConfig.image_seed, SMALL_KERNEL_SIZE, DRAM_SIZE, offset)
    template = image_module._CONTENT_CACHE[key]
    assert os.pread(template.fileno(), SMALL_KERNEL_SIZE, offset) == original


def test_image_over_a_written_region_raises():
    memory = PhysicalMemory()
    region = memory.add_region("dram", DRAM_BASE, DRAM_SIZE)
    memory.write(region.end - 8, b"occupied", World.NORMAL)
    with pytest.raises(MemoryAccessError):
        KernelImage(memory, KernelConfig(image_size=SMALL_KERNEL_SIZE))


def test_dropped_stacks_release_their_descriptors():
    # Each mapped DRAM region holds one descriptor until the collector frees
    # the stack's reference cycle; none may outlive it.
    boot_rich_os(build_machine(small_config()))  # warm the template cache
    gc.collect()
    before = open_fds()
    for seed in range(8):
        boot_rich_os(build_machine(small_config(seed)))
    gc.collect()
    assert open_fds() <= before


def test_concurrent_builds_share_one_template(fresh_cache, monkeypatch):
    made = []
    real = image_module._template_file

    def counting():
        made.append(real())
        return made[-1]

    monkeypatch.setattr(image_module, "_template_file", counting)
    start = threading.Barrier(4)
    contents = []

    def build():
        start.wait()
        contents.append(_build(image_seed=99).read(0, SMALL_KERNEL_SIZE, World.SECURE))

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(made) == 1
    assert len(contents) == 4 and len(set(contents)) == 1
    assert contents[0] != bytes(SMALL_KERNEL_SIZE)


CHUNK = image_module._TEMPLATE_CHUNK


@pytest.mark.parametrize("size", [3, CHUNK + 5, 2 * CHUNK])
def test_streamed_template_equals_one_shot_integers(fresh_cache, size):
    seed, offset, tail = 0x5A71, 4099, 13
    template = _template_bytes((seed, size, offset + size + tail, offset))
    rng = np.random.Generator(np.random.PCG64(seed))
    image = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    assert template == bytes(offset) + image + bytes(tail)


def test_default_template_bytes_are_pinned(fresh_cache):
    config = KernelConfig()
    key = (config.image_seed, config.image_size, config.image_size, 0)
    digest = hashlib.sha256(_template_bytes(key)).hexdigest()
    assert digest == (
        "6ff8bd9a987196a15d3e6201ddb08a927597923addeb1ba481172d8f511f6995"
    )


def test_template_build_holds_no_full_image_temporary(fresh_cache):
    size = 12 * 1024 * 1024
    np.random.PCG64  # import numpy.random before tracing
    tracemalloc.start()
    try:
        with image_module._CONTENT_CACHE_LOCK:
            image_module._template((1, size, size, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 1024 * 1024
