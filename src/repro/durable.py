"""Crash-atomic file writes shared by the store, manifests, journal and queue.

Stdlib-only so any layer can import it without pulling in the service or
campaign packages.  The rule every caller relies on: a reader sees either
the previous file or the complete new one, never a torn document, and a
host crash after the call returns cannot roll the write back.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any


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


def atomic_write_json(path: str, payload: Any) -> None:
    """Write JSON via tmp-file + rename + directory fsync (crash-atomic).

    The tmp name is pid- and thread-unique so concurrent writers of one
    path never share a tmp file; the bytes are sorted-key ``indent=1``
    JSON plus a trailing newline.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")
