"""Shared fixtures."""

import concurrent.futures

import pytest


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the simulator's process pool; returns the max_workers
    of every pool started.

    A fork pool starts all max_workers processes at once, so tests check
    the size a run asks for; the fake maps in this process.
    """
    started = []

    class RecordingPool:
        def __init__(self, max_workers, **options):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    # the simulator imports the pool class from concurrent.futures when it
    # starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started
