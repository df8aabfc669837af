"""What a run keeps per order: histogram samples and connection records.

A :class:`~repro.obs.registry.MetricsRegistry` histogram keeps its
samples in an ``array('d')``; for any finite floats, through a
``state()`` JSON round trip and a ``merge``, it reports what a plain
list of the same samples gives.  A controller keeps raw ``step.<name>``
samples only while its tracer is enabled, and its connection records
(and a sharded order's, which is its own record, not a connection)
carry no per-instance ``__dict__``.  (That a
drained sharded run keeps no retired child is checked by
``tests/test_no_cyclic_garbage.py``, on the same run.)  A built network
stores each fact once: a graph one adjacency and no SRLG index before
one is read, a ROADM its degrees only as the keys of its channel
table, and the plant's records no ``__dict__`` either.
"""

import dataclasses
import gc
import json
import pickle
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench.workloads import BUILDERS
from repro.core.connection import Connection, ConnectionKind, ConnectionState
from repro.facade import build_griphon_testbed
from repro.metrics.collector import summarize
from repro.obs.registry import MetricsRegistry
from repro.optical.amplifier import AmplifierChain
from repro.optical.fiber import DwdmLink
from repro.optical.fxc import FiberCrossConnect
from repro.optical.regen import RegenPool
from repro.optical.roadm import Roadm
from repro.optical.transponder import TransponderPool
from repro.shard.network import ShardOrder
from repro.topo.graph import RECORD_OPTIONS, Link, NetworkGraph, Node

NAMES = st.sampled_from(["step.tune", "step.roadm", "lightpath.setup_s"])
OBSERVATIONS = st.lists(
    st.tuples(NAMES, st.floats(allow_nan=False, allow_infinity=False)),
    max_size=40,
)


def observed(observations):
    """A registry fed ``observations``, and the plain lists they make."""
    registry, reference = MetricsRegistry(), {}
    for name, value in observations:
        registry.observe(name, value)
        reference.setdefault(name, []).append(value)
    return registry, reference


def assert_reports(registry, reference):
    """``registry`` reports exactly what the lists in ``reference`` give."""
    assert registry.histograms() == sorted(reference)
    histograms = {}
    for name, samples in reference.items():
        kept = registry.samples(name)
        assert kept == samples and all(type(value) is float for value in kept)
        summary = summarize(samples)
        assert registry.summary(name) == summary
        histograms[name] = {
            "count": summary.count, "mean": summary.mean,
            "min": summary.minimum, "p50": summary.p50, "p95": summary.p95,
            "p99": summary.p99, "max": summary.maximum,
        }
    assert registry.snapshot()["histograms"] == histograms
    assert registry.state() == {"counters": {}, "samples": reference}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(first=OBSERVATIONS, second=OBSERVATIONS)
def test_histograms_report_what_a_list_of_their_samples_gives(first, second):
    registry, reference = observed(first)
    assert_reports(registry, reference)
    assert registry.samples("never.observed") == []

    copy = MetricsRegistry()
    copy.merge(json.loads(json.dumps(registry.state())))
    assert_reports(copy, reference)

    other, other_reference = observed(second)
    registry.merge(other)
    for name, samples in other_reference.items():
        reference.setdefault(name, []).extend(samples)
    assert_reports(registry, reference)


def _step_histograms(net):
    return [name for name in net.metrics.histograms() if name.startswith("step.")]


def _order(net):
    net.service_for("csp").request_connection("PREMISES-A", "PREMISES-C", 10)
    net.run()


def test_step_samples_are_kept_only_while_tracing():
    traced = build_griphon_testbed(seed=42, tracing=True)
    _order(traced)
    assert "step.ot.tune" in _step_histograms(traced)
    untraced = build_griphon_testbed(seed=42)
    _order(untraced)
    assert _step_histograms(untraced) == []
    assert "lightpath.setup_s" in untraced.metrics.histograms()
    # A tracer turned on later starts the samples; turned off, stops them.
    untraced.tracer.enable()
    _order(untraced)
    steps = _step_histograms(untraced)
    assert "step.ot.tune" in steps
    counts = [len(untraced.metrics.samples(name)) for name in steps]
    untraced.tracer.disable()
    _order(untraced)
    assert [len(untraced.metrics.samples(name)) for name in steps] == counts


#: Each per-order record, built with its own constructor.
RECORDS = {
    Connection: lambda: Connection(
        "conn-1", "csp", "DC-A", "DC-B", 1e10, ConnectionKind.WAVELENGTH,
        lightpath_ids=["lp-1"],
    ),
    ShardOrder: lambda: ShardOrder(
        "xo-1", "csp", "DC-A", "DC-B", 1e10, requested_at=0.0,
        plan_record=[{"unit": "R00"}],
    ),
}


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="slotted dataclasses need Python 3.10"
)
@pytest.mark.parametrize("cls", list(RECORDS))
def test_connection_records_are_slotted(cls):
    record = RECORDS[cls]()
    record.transition(ConnectionState.SETTING_UP)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record
    moved = dataclasses.replace(record, state=ConnectionState.UP)
    assert type(moved) is cls and moved.state is ConnectionState.UP
    assert record.state is ConnectionState.SETTING_UP
    assert dataclasses.replace(moved, state=record.state) == record


def test_a_stitched_order_holds_only_what_stitching_needs():
    """A sharded order is its own record, not a :class:`Connection`:
    its children hold the components, and it is never DEGRADED."""
    order = RECORDS[ShardOrder]()
    assert not isinstance(order, Connection)
    for name in (
        "kind", "lightpath_ids", "circuit_ids", "evc_ids", "claims",
        "degradation_cause", "degradation_margin_db", "degradation_policy",
    ):
        assert not hasattr(order, name), name
    assert order.trace_id is None and order.order_id == "xo-1"
    assert "trace_id" not in {f.name for f in dataclasses.fields(ShardOrder)}


#: What a build makes by the thousand; each carries no ``__dict__``.
#: ``Node`` and ``Link`` are dataclasses, slotted where
#: ``RECORD_OPTIONS`` can slot them (Python 3.10 and later).
PLANT_RECORDS = (
    Roadm, DwdmLink, AmplifierChain, TransponderPool, RegenPool,
    FiberCrossConnect,
) + ((Node, Link) if RECORD_OPTIONS else ())
#: Objects the walk does not enter: through them every module is reached.
OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def reachable(root, wanted):
    """Instances of the ``wanted`` types that ``root`` reaches."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, wanted):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_a_built_network_stores_each_fact_once():
    world = BUILDERS["sharded-inproc"](11, 0.02, None)
    try:
        found = reachable(world, (NetworkGraph, Roadm) + PLANT_RECORDS)
    finally:
        world.close()
    assert {type(obj) for obj in found} >= {NetworkGraph, *PLANT_RECORDS}
    for obj in found:
        if isinstance(obj, NetworkGraph):
            per_node = sorted(
                name for name, value in vars(obj).items()
                if isinstance(value, dict) and value and set(value) <= set(obj._nodes)
            )
            assert per_node == ["_adjacency", "_nodes"]
            assert obj._srlg_index is None
        if isinstance(obj, Roadm):
            assert not hasattr(obj, "_degrees")
        if isinstance(obj, PLANT_RECORDS):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
