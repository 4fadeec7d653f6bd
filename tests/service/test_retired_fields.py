"""Request fields of removed options are ignored, never acted on.

``"jobs"`` once set the number of scan worker processes a request
forked.  A payload that still carries it must fork nothing and get the
same answer as the request without it: the service ignores unknown
fields, as it does for any other key.
"""

import multiprocessing
import os

import pytest

from repro.service import AnalysisService

PAYLOAD = {
    "scenario": "cdn-failover",
    "architecture": "centralized",
    "method": "enumeration",
}


@pytest.fixture
def no_fork(monkeypatch):
    forks = []

    def refuse(*args, **kwargs):
        forks.append(args)
        raise AssertionError("the analysis forked a child process")

    monkeypatch.setattr(os, "fork", refuse)
    if hasattr(os, "posix_spawn"):
        monkeypatch.setattr(os, "posix_spawn", refuse)
    return forks


def test_jobs_field_forks_nothing_and_changes_nothing(no_fork):
    service = AnalysisService(workers=1, batch_window=0.0)
    with_jobs = service.analyze({**PAYLOAD, "jobs": 48})
    assert not no_fork
    assert not multiprocessing.active_children()
    # A fresh service, so neither answer is a warm-cache repeat.
    without = AnalysisService(workers=1, batch_window=0.0).analyze(PAYLOAD)
    assert with_jobs["result"] == without["result"]
    assert with_jobs["expected_reward"] == without["expected_reward"]
