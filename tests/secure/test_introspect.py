"""Scanning primitive tests, including the byte-level race semantics."""

import pytest

from repro.hw.platform import SECURE_SRAM_BASE
from repro.hw.world import World
from repro.secure.boot import AuthorizedHashStore
from repro.secure.hashes import djb2, djb2_reference
from repro.secure.introspect import check_area, scan_area
from repro.secure.snapshot import SecureSnapshotBuffer
from repro.sim.process import run_coroutine


def _drive_secure(machine, core, gen):
    """Run a secure coroutine through the monitor; returns (result, end).

    ``end`` is the simulated time at which the coroutine finished, so
    duration measurements are immune to the clock advancing to ``until``.
    """
    results = []

    def payload(entered_core):
        value = yield from gen(entered_core)
        results.append((value, machine.sim.now))

    machine.monitor.request_secure_entry(core, payload)
    machine.sim.run(max_events=1_000_000)
    assert results, "secure payload did not complete"
    return results[0]


def test_scan_digest_matches_djb2(stack):
    machine, rich_os = stack
    length = 64 * 1024
    expected = djb2(rich_os.image.read(0, length, World.SECURE))
    digest, _ = _drive_secure(
        machine, machine.core(0),
        lambda core: scan_area(rich_os.image, core, 0, length),
    )
    assert digest == expected


def test_scan_detects_mutation(stack):
    machine, rich_os = stack
    length = 64 * 1024
    clean = djb2(rich_os.image.read(0, length, World.SECURE))
    rich_os.image.write(1000, b"\xff\xff", World.NORMAL)
    digest, _ = _drive_secure(
        machine, machine.core(0),
        lambda core: scan_area(rich_os.image, core, 0, length),
    )
    assert digest != clean


def test_scan_duration_scales_with_size(stack):
    machine, rich_os = stack
    core = machine.core(0)
    durations = []
    for length in (32 * 1024, 64 * 1024):
        start = machine.now
        _, end = _drive_secure(
            machine, core, lambda c, l=length: scan_area(rich_os.image, c, 0, l)
        )
        durations.append(end - start)
    # Double the bytes, roughly double the duration.
    assert 1.7 < durations[1] / durations[0] < 2.3


def test_scan_per_byte_cost_calibrated(juno_stack):
    machine, rich_os = juno_stack
    core = machine.big_core()  # A57
    length = 1 << 20
    start = machine.now
    _, end = _drive_secure(machine, core, lambda c: scan_area(rich_os.image, c, 0, length))
    per_byte = (end - start - 3.6e-6) / length  # minus the entry switch
    assert 6.6e-9 < per_byte < 7.6e-9  # Table I A57 range


def test_check_area_result_fields(stack):
    machine, rich_os = stack
    store = AuthorizedHashStore(machine.memory, SECURE_SRAM_BASE)
    span = (0, 32 * 1024)
    store.compute_at_boot(rich_os.image, [span])
    result, _ = _drive_secure(
        machine, machine.core(1),
        lambda core: check_area(rich_os.image, store, core, span[0], span[1]),
    )
    assert result.match
    assert result.core_index == 1
    assert result.length == span[1]
    assert result.end_time > result.start_time
    assert result.duration > 0


def test_race_restore_before_chunk_read_stays_clean(stack):
    """A byte restored before its chunk is read hashes clean."""
    machine, rich_os = stack
    length = 256 * 1024
    chunk = 4096
    clean = djb2(rich_os.image.read(0, length, World.SECURE))
    # Mutate a byte deep into the area, then restore it while the scan is
    # still in the early chunks.
    target = length - 100
    original = rich_os.image.read(target, 1, World.NORMAL)
    rich_os.image.write(target, b"\xee", World.NORMAL)

    digests = []

    def payload(core):
        digest = yield from scan_area(rich_os.image, core, 0, length, chunk)
        digests.append(digest)

    machine.monitor.request_secure_entry(machine.core(0), payload)
    # Let the scan begin, then restore early (well before the last chunk).
    machine.run(until=machine.now + 1e-4)
    rich_os.image.write(target, original, World.NORMAL)
    machine.run(until=machine.now + 5.0)
    assert digests[0] == clean


def test_race_restore_after_chunk_read_is_detected(stack):
    """A byte restored after its chunk was read still causes a mismatch."""
    machine, rich_os = stack
    length = 256 * 1024
    chunk = 4096
    clean = djb2(rich_os.image.read(0, length, World.SECURE))
    target = 10  # first chunk: read almost immediately
    original = rich_os.image.read(target, 1, World.NORMAL)
    rich_os.image.write(target, b"\xee", World.NORMAL)

    digests = []

    def payload(core):
        digest = yield from scan_area(rich_os.image, core, 0, length, chunk)
        digests.append(digest)

    machine.monitor.request_secure_entry(machine.core(0), payload)
    machine.run(until=machine.now + 1e-3)  # chunk 0 long since read
    rich_os.image.write(target, original, World.NORMAL)
    machine.run(until=machine.now + 5.0)
    assert digests[0] != clean


def test_snapshot_scan_matches_direct_scan(stack):
    machine, rich_os = stack
    buffer = SecureSnapshotBuffer(machine.memory, SECURE_SRAM_BASE + 0x10000, 1 << 20)
    length = 64 * 1024
    direct = djb2(rich_os.image.read(0, length, World.SECURE))
    digest, _ = _drive_secure(
        machine, machine.core(0),
        lambda core: scan_area(rich_os.image, core, 0, length, snapshot_buffer=buffer),
    )
    assert digest == direct
    assert buffer.snapshots_taken == 1


def test_repeated_scans_see_a_byte_flipped_through_a_view(stack):
    """E1 scans one area over and over; the scan hash's memo must not hide
    a byte changed through a raw memory view, which bumps no write count."""
    machine, rich_os = stack
    store = AuthorizedHashStore(machine.memory, SECURE_SRAM_BASE)
    span = (4096, 64 * 1024)
    store.compute_at_boot(rich_os.image, [span])

    def check():
        result, _ = _drive_secure(
            machine, machine.core(0),
            lambda core: check_area(
                rich_os.image, store, core, span[0], span[1], chunk_size=span[1]
            ),
        )
        return result

    for _ in range(3):
        assert check().match
    writes = rich_os.image.write_count
    raw = machine.memory.view(rich_os.image.addr_of(span[0] + 1234), 1, World.NORMAL)
    raw[0] ^= 0x40
    assert rich_os.image.write_count == writes
    assert not check().match
    raw[0] ^= 0x40
    assert check().match


def test_snapshot_hash_sees_a_corrupted_second_copy(stack):
    machine, rich_os = stack
    buffer = SecureSnapshotBuffer(machine.memory, SECURE_SRAM_BASE + 0x10000, 1 << 20)
    length = 64 * 1024
    clean = djb2(rich_os.image.read(0, length, World.SECURE))

    def corrupt_second(offset, chunk):
        if buffer.snapshots_taken != 2:
            return chunk
        corrupted = bytearray(chunk)
        corrupted[-1] ^= 1
        return bytes(corrupted)

    buffer.fault_hook = corrupt_second

    def take():
        (digest, _copy), _ = _drive_secure(
            machine, machine.core(0),
            lambda core: buffer.take_and_hash(
                core, rich_os.image.addr_of(0), length, chunk_size=length
            ),
        )
        return digest

    corrupted = bytearray(rich_os.image.read(0, length, World.SECURE))
    corrupted[-1] ^= 1
    assert take() == clean
    assert take() == djb2_reference(corrupted) != clean
    assert take() == clean
    assert buffer.snapshots_taken == 3
