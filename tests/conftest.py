"""Shared fixtures."""

import pytest

from hetnoma import simulate


@pytest.fixture
def recording_pool(monkeypatch):
    """Stand in for the simulator's fork point; returns the worker count of
    every parallel run started.

    A run of w workers is this process and w - 1 forked children, so tests
    check the w a run asks for; the fake runs every job in this process.
    """
    started = []

    def run_forked(jobs, workers, context):
        started.append(workers)
        return [simulate.run_coupled_trial(*job) for job in jobs]

    monkeypatch.setattr(simulate, "_run_forked", run_forked)
    return started
