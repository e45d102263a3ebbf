import os

import pytest


@pytest.fixture
def report_cpus(monkeypatch):
    """Make the process appear to have ``count`` usable cores."""

    def report(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)

    return report
