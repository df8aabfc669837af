"""The contract of the records on the order path, none a dataclass.

``dataclasses`` loads ``inspect`` (and ``ast``, ``dis``, ``tokenize``)
into every process, so the records a run uses are NamedTuples or
slotted classes.  A frozen one builds from its required arguments alone,
equals only a record of its own type with equal fields (never a plain
tuple), hashes as the tuple of its fields does, refuses assignment and
survives a pickle round trip.  Every record carries no ``__dict__``, and
each instance gets its own default lists and dicts.
"""

import pickle

import pytest

from repro import api
from repro.core.admission import CustomerProfile
from repro.core.maintenance import MaintenanceRecord
from repro.core.migration import Move
from repro.core.rwa import PlanRequest, RwaPlan
from repro.faults.audit import AuditReport, AuditViolation
from repro.faults.plan import DegradationSpec, FaultSpec
from repro.faults.resilient import RetryPolicy
from repro.iplayer.evc import Evc
from repro.iplayer.network import Adjacency
from repro.metrics.collector import Summary, summarize
from repro.optical.lightpath import Lightpath, Segment
from repro.optical.roadm import AddDropPort
from repro.otn.circuit import OduCircuit
from repro.shard.workers import UnitRecipe
from repro.sweep.spec import SweepSpec, TrialResult, TrialSpec
from repro.topo.graph import Link, Node
from repro.units import ODU_LEVELS, OduLevel

#: Each frozen record, built from its required arguments.  Where a field
#: compares by identity (an outcome's connection record or error, a
#: recipe's graph), a string stands in for it, so that a pickled copy
#: can compare equal.
FROZEN = {
    api.Accepted: lambda: api.Accepted("conn-1"),
    api.Active: lambda: api.Active("conn-1"),
    api.Blocked: lambda: api.Blocked("conn-1"),
    api.QueueFull: lambda: api.QueueFull("ord-1", 8, "queue full"),
    api.Deferred: lambda: api.Deferred("ord-1", 3, "contended"),
    api.SetupFailed: lambda: api.SetupFailed("conn-1", "tune failed"),
    api.ServiceDegraded: lambda: api.ServiceDegraded("conn-1", "tune failed"),
    api.SlaBreached: lambda: api.SlaBreached("conn-1", "margin", 1.5),
    api.Rejected: lambda: api.Rejected("req-1", api.REJECT_SHED, "shed"),
    TrialSpec: lambda: TrialSpec("s", 0, "s/-/rep0", 7, {}, summarize),
    SweepSpec: lambda: SweepSpec("s", summarize),
    FaultSpec: FaultSpec,
    DegradationSpec: lambda: DegradationSpec("A=B"),
    RetryPolicy: RetryPolicy,
    AuditViolation: lambda: AuditViolation("channel-leak", "ch 3", "", "leaked"),
    Node: lambda: Node("ROADM-I"),
    Link: lambda: Link("A", "B"),
    PlanRequest: lambda: PlanRequest("A", "B", 1e10),
    UnitRecipe: lambda: UnitRecipe("R00", "graph"),
    Summary: lambda: Summary(2, 1.5, 1.0, 2.0, 1.5, 1.95, 1.99),
    OduLevel: lambda: OduLevel("ODU0", 1.25e9, 1),
}

#: Each mutable record, built from its required arguments.
MUTABLE = {
    CustomerProfile: lambda: CustomerProfile("csp"),
    Move: lambda: Move("conn-1", "maintenance"),
    MaintenanceRecord: lambda: MaintenanceRecord(("A", "B"), 0.0, 60.0),
    RwaPlan: lambda: RwaPlan(["A", "B"], [Segment(["A", "B"], 3)], [], 1e10),
    TrialResult: TrialResult,
    AuditReport: AuditReport,
    Evc: lambda: Evc("evc-1", "A", "B", 1e8),
    Adjacency: lambda: Adjacency("A", "B", 1e10),
    Segment: lambda: Segment(["A", "B"], 3),
    Lightpath: lambda: Lightpath("lp-1", ["A", "B"], 1e10),
    AddDropPort: lambda: AddDropPort("AD:A:1"),
    OduCircuit: lambda: OduCircuit("odu-1", ODU_LEVELS["ODU0"], ["A", "B"]),
}

frozen = pytest.mark.parametrize("cls", list(FROZEN), ids=lambda cls: cls.__name__)


def fields(record):
    """The record's constructor arguments, in order, as a plain tuple."""
    return tuple(getattr(record, name) for name in record._fields)


@frozen
def test_builds_from_its_required_arguments(cls):
    record = FROZEN[cls]()
    assert type(record) is cls and not hasattr(record, "__dict__")


@frozen
def test_equals_only_a_record_of_its_own_type(cls):
    record, plain = FROZEN[cls](), fields(FROZEN[cls]())
    assert record == FROZEN[cls]() and not record != FROZEN[cls]()
    assert record != plain and plain != record
    assert not record == plain and not plain == record


def test_records_of_two_types_with_equal_fields_differ():
    assert api.Accepted("conn-1") != api.Active("conn-1")
    assert not api.Active("conn-1") == api.Blocked("conn-1")


@frozen
def test_hashes_as_the_tuple_of_its_fields(cls):
    record = FROZEN[cls]()
    try:
        expected = hash(fields(record))
    except TypeError:  # a dict field: unhashable, record and tuple alike
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@frozen
def test_refuses_assignment(cls):
    record = FROZEN[cls]()
    name = record._fields[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is value


@frozen
def test_survives_a_pickle_round_trip(cls):
    record = FROZEN[cls]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


@pytest.mark.parametrize(
    "make",
    list(MUTABLE.values()) + [FROZEN[SweepSpec]],
    ids=[cls.__name__ for cls in MUTABLE] + ["SweepSpec"],
)
def test_each_instance_gets_its_own_containers(make):
    one, two = make(), make()
    assert not hasattr(one, "__dict__")
    for name in type(one).__slots__:
        value = getattr(one, name)
        if isinstance(value, (list, dict)):
            assert value is not getattr(two, name), name
