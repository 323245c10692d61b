"""Trusted boot / authorized hash store tests."""

import pytest

from repro.config import KernelConfig
from repro.core.satin import install_satin
from repro.errors import IntrospectionError, SecureAccessError
from repro.hw.platform import SECURE_SRAM_BASE, build_machine
from repro.hw.world import World
from repro.kernel.os import boot_rich_os
from repro.secure.boot import AuthorizedHashStore
from repro.secure.hashes import djb2
from tests.conftest import SMALL_KERNEL_SIZE, small_config


@pytest.fixture
def store_and_image(stack):
    machine, rich_os = stack
    store = AuthorizedHashStore(machine.memory, SECURE_SRAM_BASE)
    areas = [(s.offset, s.size) for s in rich_os.image.system_map]
    store.compute_at_boot(rich_os.image, areas)
    return machine, rich_os, store, areas


def test_digests_match_djb2_of_pristine_areas(store_and_image):
    machine, rich_os, store, areas = store_and_image
    offset, length = areas[0]
    expected = djb2(rich_os.image.read(offset, length, World.SECURE))
    assert store.expected_digest((offset, length)) == expected


def test_digest_unchanged_after_normal_world_mutation(store_and_image):
    machine, rich_os, store, areas = store_and_image
    offset, length = areas[3]
    recorded = store.expected_digest((offset, length))
    rich_os.image.write(offset + 10, b"evil", World.NORMAL)
    assert store.expected_digest((offset, length)) == recorded
    live = djb2(rich_os.image.read(offset, length, World.SECURE))
    assert live != recorded  # the mutation is detectable


def test_normal_world_cannot_read_store(store_and_image):
    machine, rich_os, store, areas = store_and_image
    with pytest.raises(SecureAccessError):
        store.expected_digest(areas[0], world=World.NORMAL)


def test_unknown_span_raises(store_and_image):
    _, _, store, _ = store_and_image
    with pytest.raises(IntrospectionError):
        store.expected_digest((123, 456))


def test_store_must_live_in_secure_memory(stack):
    machine, _ = stack
    with pytest.raises(IntrospectionError):
        AuthorizedHashStore(machine.memory, machine.dram.base)


def test_capacity_enforced(stack):
    machine, rich_os = stack
    store = AuthorizedHashStore(machine.memory, SECURE_SRAM_BASE, capacity_entries=2)
    areas = [(s.offset, s.size) for s in rich_os.image.system_map]
    with pytest.raises(IntrospectionError):
        store.compute_at_boot(rich_os.image, areas)


def test_spans_enumeration(store_and_image):
    _, _, store, areas = store_and_image
    assert store.spans == areas
    assert len(store) == len(areas)


def test_clean_boot_after_dirty_boot_gets_a_fresh_table():
    """A pre-boot write in a middle area must not leak into a later boot.

    The dirty byte sits off every 64 KiB stride point, where a strided
    content sample of the image would not see it.  The image seed is
    private to this test, so no earlier boot in the process can have
    produced a table for it.
    """
    def booted_stack():
        config = small_config()
        config.kernel = KernelConfig(image_size=SMALL_KERNEL_SIZE, image_seed=0x7E57)
        machine = build_machine(config)
        rich_os = boot_rich_os(machine)
        return machine, rich_os

    def assert_table_is_fresh(satin, image):
        for offset, length in satin.store.spans:
            live = djb2(image.read(offset, length, World.SECURE))
            assert satin.store.expected_digest((offset, length)) == live

    dirty_machine, dirty_os = booted_stack()
    image = dirty_os.image
    spans = [(s.offset, s.size) for s in image.system_map]
    offset, length = spans[len(spans) // 2]
    target = offset + length // 2
    if target % (1 << 16) == 0:
        target += 1
    (byte,) = image.read(target, 1, World.SECURE)
    image.write(target, bytes([byte ^ 0xFF]), World.SECURE)
    assert_table_is_fresh(install_satin(dirty_machine, dirty_os), image)

    machine, rich_os = booted_stack()
    satin = install_satin(machine, rich_os)
    assert_table_is_fresh(satin, rich_os.image)
    machine.run(until=satin.policy.tp * 25)
    assert satin.detection_count == 0
