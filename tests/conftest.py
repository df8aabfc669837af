"""Suite-wide checks."""
import multiprocessing

import pytest


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
