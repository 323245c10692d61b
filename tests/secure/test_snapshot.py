"""Snapshot buffer tests."""

import pytest

from repro.errors import IntrospectionError
from repro.hw.platform import SECURE_SRAM_BASE
from repro.hw.world import World
from repro.secure.hashes import djb2
from repro.secure.snapshot import SecureSnapshotBuffer
from repro.sim.process import run_coroutine


def test_buffer_must_be_secure(stack):
    machine, _ = stack
    with pytest.raises(IntrospectionError):
        SecureSnapshotBuffer(machine.memory, machine.dram.base, 4096)


def test_buffer_must_fit_region(stack):
    machine, _ = stack
    too_big = machine.config.secure_memory_size + 1
    with pytest.raises(IntrospectionError):
        SecureSnapshotBuffer(machine.memory, SECURE_SRAM_BASE, too_big)


def test_take_and_hash_copies_and_hashes(stack):
    machine, rich_os = stack
    buffer = SecureSnapshotBuffer(machine.memory, SECURE_SRAM_BASE, 1 << 16)
    source = rich_os.image.addr_of(0)
    length = 8192
    outcome = []

    def proc():
        digest, copy = yield from buffer.take_and_hash(
            machine.core(0), source, length
        )
        outcome.append((digest, copy))

    run_coroutine(machine.sim, proc())
    machine.run(until=machine.now + 1.0)
    digest, copy = outcome[0]
    original = rich_os.image.read(0, length, World.SECURE)
    assert copy == original
    assert copy.readonly
    assert digest == djb2(original)
    # The copy physically landed in secure SRAM.
    assert machine.memory.read(SECURE_SRAM_BASE, length, World.SECURE) == original


def test_capacity_exceeded_raises(stack):
    machine, rich_os = stack
    buffer = SecureSnapshotBuffer(machine.memory, SECURE_SRAM_BASE, 1024)

    def proc():
        yield from buffer.take_and_hash(machine.core(0), rich_os.image.addr_of(0), 2048)

    with pytest.raises(IntrospectionError):
        run_coroutine(machine.sim, proc())
        machine.run(until=machine.now + 1.0)


def test_snapshot_charges_time(stack):
    machine, rich_os = stack
    buffer = SecureSnapshotBuffer(machine.memory, SECURE_SRAM_BASE, 1 << 16)
    done = []

    def proc():
        yield from buffer.take_and_hash(machine.core(0), rich_os.image.addr_of(0), 8192)
        done.append(machine.now)

    start = machine.now
    run_coroutine(machine.sim, proc())
    machine.run(until=machine.now + 1.0)
    assert done[0] - start > 8192 * 5e-9  # at least ~per-byte cost


def _snapshot(machine, buffer, source, length, chunk_size=4096):
    outcome = []

    def proc():
        outcome.append((yield from buffer.take_and_hash(
            machine.core(0), source, length, chunk_size
        )))

    run_coroutine(machine.sim, proc())
    machine.run(until=machine.now + 1.0)
    return outcome[0]


def test_snapshot_copies_once_per_chunk(stack):
    machine, rich_os = stack
    buffer = SecureSnapshotBuffer(machine.memory, SECURE_SRAM_BASE, 1 << 16)
    source = rich_os.image.read(0, 10_000, World.SECURE)
    dram, sram = machine.dram, machine.secure_sram
    reads, writes = dram.read_count, sram.write_count
    digest, copy = _snapshot(machine, buffer, rich_os.image.addr_of(0), 10_000)
    assert bytes(copy) == source and digest == djb2(source)
    # Three chunks: one DRAM read and one SRAM write each, as read + write
    # counted them.
    assert dram.read_count - reads == 3
    assert sram.write_count - writes == 3


def test_wrong_length_fault_hook_raises(stack):
    machine, rich_os = stack
    buffer = SecureSnapshotBuffer(machine.memory, SECURE_SRAM_BASE, 1 << 16)
    buffer.fault_hook = lambda offset, chunk: chunk[:-1]
    with pytest.raises(IntrospectionError):
        _snapshot(machine, buffer, rich_os.image.addr_of(0), 8192)
