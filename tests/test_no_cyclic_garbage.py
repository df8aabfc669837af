"""A run leaves nothing for the cyclic garbage collector to find.

Every object a run drops must be freed by its reference count.  A
reference cycle left behind is work the collector repeats on each pass
until it finds the cycle, and memory held until then: a finished
``Process`` whose last kernel event still held its bound ``_advance``
stayed alive that way, five objects per workflow.

Each case collects once, switches the collector off, runs, and then
asks ``gc.collect()`` how many unreachable objects the run left:

* the four ``python -m bench`` workloads' ``Driver.run()``, on the rows
  of ``tests/test_work_counters.py`` (tier-1's small run, plus the
  benchmark's scale when ``WORK_COUNTERS=full`` is set, as the CI
  determinism job does).  A drained sharded run must also keep no
  retired child: every order has settled, none still holds children
  and no unit controller still registers a connection, so the settled
  ``ShardOrder`` is the only record left of it.  A drained monolithic
  run must keep no restoration state: every connection is RELEASED or
  BLOCKED, and no set-aside lightpath or deferred teardown is left;
* the frontend chaos fleet run: EMS faults, saga rollbacks, teardowns.
"""

import gc

import pytest

from bench.driver import Driver
from bench.workloads import BUILDERS
from repro.core.connection import ConnectionState
from tests.test_frontend_chaos import fleet_run
from tests.test_work_counters import rows

SETTLED = (ConnectionState.RELEASED, ConnectionState.BLOCKED)


def unreachable_after(run):
    """Objects ``gc.collect()`` finds unreachable after ``run()``, with
    the collector off while it runs and what it returns still held."""
    gc.collect()
    gc.disable()
    try:
        kept = run()  # noqa: F841 - alive through the collection
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("workload, seed, scale", rows())
def test_a_benchmark_run_leaves_no_cycles(workload, seed, scale):
    world = BUILDERS[workload](seed, scale, None)
    try:
        driver = Driver(world)
        driver.load()
        assert unreachable_after(driver.run) == 0
        if world.network is not None:
            orders = world.network.orders.values()
            assert orders
            assert all(order.state in SETTLED for order in orders)
            assert [order for order in orders if order.children] == []
            assert {
                unit: len(controller.connections)
                for unit, controller in world.controllers.items()
            } == dict.fromkeys(world.controllers, 0)
        else:
            for controller in world.controllers.values():
                assert controller.connections
                assert all(
                    connection.state in SETTLED
                    for connection in controller.connections.values()
                )
                assert controller.restoration._unrestored == {}
                assert controller.restoration._teardown_after_restore == set()
    finally:
        world.close()


def test_the_frontend_chaos_fleet_leaves_no_cycles():
    assert unreachable_after(fleet_run) == 0
