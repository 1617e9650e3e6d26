"""Shared pytest plumbing.

The acceptance tests record one verdict line per criterion; the lines are
replayed in a terminal section after the run so they are visible even
with output capture on.

Beside pyproject's rules that unclosed files and deprecations fail the
tests, every test here fails when it leaves a thread running other than
the main thread and the simulator's one worker, or when the package's
threads outnumber the cores the process may run on.
"""

import os
import threading

import pytest

from learnedbp import forward

_acceptance_lines = []


@pytest.fixture(scope="session")
def acceptance_record():
    def record(line: str):
        _acceptance_lines.append(line)
        print(line, flush=True)

    return record


@pytest.fixture(autouse=True)
def _no_stray_threads():
    yield
    others = [thread for thread in threading.enumerate() if thread is not threading.main_thread()]
    stray = [thread.name for thread in others if not thread.name.startswith(forward.WORKER_THREAD)]
    assert not stray, f"threads left running: {stray}"
    # the simulator's worker is kept for the process, so it counts for every later test too
    assert 1 + len(others) <= len(os.sched_getaffinity(0)), f"{1 + len(others)} threads on fewer cores"


@pytest.fixture
def two_cores():
    """Skip a test that forces the simulator's worker thread where the
    process may run on one core only."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable cores")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
