"""Suite-wide checks."""
import faulthandler
import multiprocessing
import os
import sys

import pytest

#: Seconds one test may run, setup and teardown included, before the
#: run is ended with every thread's traceback.  On a 2-vCPU x86_64 host
#: (Python 3.11) the slowest test,
#: ``test_generated_rounds_match_per_order_placement``, takes 5.3 s in
#: plain tier-1 and 19.5 s under ``tools/reach.py``'s profiler, the
#: slowest way the suite is run; the bound is over 10x that.
HANG_BOUND_S = 300.0

_HANG_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Capture redirects fd 2 while a test runs: keep a copy of the real
    # stderr for the traceback of a hung test.
    config.stash[_HANG_STDERR] = os.dup(sys.__stderr__.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_HANG_STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item):
    """End the run, printing every thread's traceback, if one test
    outlives :data:`HANG_BOUND_S` (a hang would otherwise be bounded only
    by the CI job's timeout)."""
    faulthandler.dump_traceback_later(
        HANG_BOUND_S, file=item.config.stash[_HANG_STDERR], exit=True
    )
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_live_child_process():
    """Fail a test that leaves a live ``multiprocessing`` child behind.

    A sweep pool or a shard worker pool that outlives its owner keeps the
    interpreter from exiting until it is joined.  The leftovers are killed
    here, so one leak fails one test instead of stalling the run.
    """
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.kill()
        child.join(1.0)
    if leaked:
        pytest.fail(f"test left live child processes: {leaked}", pytrace=False)
