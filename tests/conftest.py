"""Shared fixtures."""

import pytest

from hetnoma import simulate


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the simulator's process pool; returns the max_workers
    of every pool started.

    A fork pool starts all max_workers processes at once, so tests check
    the size a run asks for; the fake maps in this process.
    """
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", RecordingPool)
    return started
