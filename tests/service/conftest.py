"""Fixtures shared by the service tests."""

import threading

import pytest

from repro.service.queue import run_worker


@pytest.fixture
def queue_worker():
    """Start a ``run_worker`` thread on a queue directory; stopped at teardown."""
    started = []

    def start(queue_dir):
        stop = threading.Event()
        thread = threading.Thread(
            target=run_worker, args=(queue_dir,), kwargs={"stop_event": stop},
            daemon=True,
        )
        thread.start()
        started.append((stop, thread))

    yield start
    for stop, thread in started:
        stop.set()
        thread.join(timeout=5.0)
