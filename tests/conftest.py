import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from curselab import rng


@pytest.fixture
def report_cpus(monkeypatch):
    """Make the process appear to have ``count`` usable cores."""

    def report(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)

    return report


@pytest.fixture
def pool_workers(monkeypatch):
    """The worker counts of the thread pools ``rng.mc_mean`` starts, in order."""
    workers = []

    def spy(max_workers):
        workers.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", spy)
    return workers
