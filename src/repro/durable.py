"""The on-disk record rules shared by the store, journal, queue and tailer.

Stdlib-only so any layer can import it.  Record logs (store shards, the
quarantine log, the job journal) are JSONL, fsync'd line by line by
:func:`append_record` and read back by :func:`read_records`, which skips
and counts torn lines.  Whole files are replaced by
:func:`atomic_write_bytes`: a reader sees the old file or the complete
new one, and a host crash after either call returns cannot roll the
write back.  ``os.fsync`` is called from here only.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One record read back from a log: (byte offset, byte length, record).
Entry = Tuple[int, int, Dict[str, Any]]


def fsync_dir(path: str) -> None:
    """fsync a directory so a just-renamed file survives a host crash.

    Without this, ``os.replace`` makes the file visible but the directory
    entry itself may still live only in the page cache — a power cut can
    roll back a "committed" rename.  Best-effort: platforms that cannot
    open directories (Windows) simply skip it.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def tmp_path_for(path: str) -> str:
    """The tmp file this thread writes ``path`` through: ``<path>.tmp.<pid>.<thread>``.

    Pid- and thread-unique, so concurrent writers of one path never share
    a tmp file.
    """
    return f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"


def is_tmp_for(name: str, path: str) -> bool:
    """True if ``name`` is a tmp file of ``path`` from any writer.

    A writer killed before its rename leaves one behind; ``name`` and
    ``path`` must be alike (both basenames or both full paths).
    """
    return name.startswith(f"{path}.tmp.")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``: tmp file, fsync, rename, directory fsync.

    The tmp file is :func:`tmp_path_for`; a crash before the rename leaves
    the old file intact.
    """
    tmp = tmp_path_for(path)
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")


def atomic_write_json(path: str, payload: Any) -> None:
    """:func:`atomic_write_bytes` of sorted-key ``indent=1`` JSON plus a newline."""
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


def append_record(path: str, record: Dict[str, Any]) -> Tuple[int, int]:
    """Append ``record`` as one fsync'd sorted-key JSON line: (offset, length).

    A file not ending in a newline (a torn tail) gets one first; the
    returned extent covers the record line alone.  The first append to an
    empty file also fsyncs the directory, so the new entry is durable too.
    Appends to one path must not run concurrently (the tail check and the
    write are two steps): the store has one writer, the journal a lock.
    """
    line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    prefix = b""
    with open(path, "a+b") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                prefix = b"\n"
        handle.write(prefix + line)
        handle.flush()
        os.fsync(handle.fileno())
    if not size:
        fsync_dir(os.path.dirname(path) or ".")
    return size + len(prefix), len(line)


def decode_record(raw: bytes, key: str) -> Optional[Dict[str, Any]]:
    """One log line -> record (a JSON object holding ``key``), else None.

    ``errors="replace"``: a torn multi-byte sequence cannot abort a read.
    """
    try:
        record = json.loads(raw.decode("utf-8", errors="replace"))
    except ValueError:  # blank or torn
        return None
    if isinstance(record, dict) and key in record:
        return record
    return None


def read_records(
    path: str,
    key: str,
    start: int = 0,
    on_torn: Optional[Callable[[int, int], None]] = None,
) -> Tuple[List[Entry], int]:
    """The records of a JSONL log from byte ``start``: (entries, torn).

    ``entries`` holds ``(offset, length, record)`` in file order; ``torn``
    counts the other non-blank lines, each reported to ``on_torn(offset,
    line_number)`` (counted from ``start``).  A missing file is ``([], 0)``.
    """
    entries: List[Entry] = []
    torn = 0
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return entries, torn
    with handle:
        handle.seek(start)
        offset = start
        for number, raw in enumerate(handle, start=1):
            record = decode_record(raw, key)
            if record is not None:
                entries.append((offset, len(raw), record))
            elif raw.decode("utf-8", errors="replace").strip():
                torn += 1
                if on_torn is not None:
                    on_torn(offset, number)
            offset += len(raw)
    return entries, torn
