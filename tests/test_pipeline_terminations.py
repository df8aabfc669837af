"""Refuse before you claim: an order its premises NTE cannot terminate.

:meth:`GriphonController.check_terminations` replays the claim loop's
NTE claims on each NTE's O(1) ``capacity()`` and claims nothing, so an
order no premises can take is refused before the batch plan, the
lightpath claims and their release.  Covered here:

* the pipeline settles such an order BLOCKED in the round it was
  placed, with the serial path's reason, even after an earlier order in
  that round claimed something (it used to be deferred for a round);
* a refused order costs no plan and no claim, on either path, and a
  pipelined order is decomposed once;
* a Hypothesis differential of ``check_terminations`` against the real
  claim sequence (``claim_nte`` in the claim loop's order) over random
  NTE occupancy: it raises exactly when the claims raise, with the same
  message, and leaves every NTE map as it found it.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.connection import Connection, ConnectionKind, ConnectionState
from repro.errors import CapacityExceededError, EquipmentError
from repro.facade import build_griphon_testbed
from repro.optical.nte import NetworkTerminatingEquipment
from repro.pipeline import TicketState
from repro.units import GBPS

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)

FULL_C = "NTE:PREMISES-C at PREMISES-C has no free interface"


def _filled_testbed():
    """The Fig. 4 testbed with PREMISES-C's four interfaces taken.

    Two A-C and two B-C wavelengths: A and B keep two free interfaces
    each, C has none.
    """
    net = build_griphon_testbed(seed=0)
    service = net.service_for("csp")
    for premises_a in ("PREMISES-A", "PREMISES-A", "PREMISES-B", "PREMISES-B"):
        service.request_connection(premises_a, "PREMISES-C", 10)
    net.run()
    return net, service


def _count_calls(monkeypatch, owner, name, calls):
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestRefusedInItsRound:
    def test_full_nte_at_round_start_blocks_without_a_defer(self):
        net, service = _filled_testbed()
        net.enable_pipeline(round_size=8, round_interval=0.01)
        placed_at = net.sim.now
        first = service.submit_connection("PREMISES-A", "PREMISES-B", 10)
        second = service.submit_connection("PREMISES-A", "PREMISES-C", 10)
        net.run()
        assert first.state is TicketState.ACCEPTED
        assert second.state is TicketState.BLOCKED
        assert second.reason == FULL_C
        assert second.rounds_deferred == 0
        assert first.settled_at == second.settled_at == placed_at
        assert net.metrics.counter("pipeline.deferred") == 0

    def test_reason_matches_the_serial_path(self):
        serial, service = _filled_testbed()
        service.request_connection("PREMISES-A", "PREMISES-B", 10)
        conn = service.request_connection("PREMISES-A", "PREMISES-C", 10)
        assert conn.state is ConnectionState.BLOCKED
        assert conn.blocked_reason == FULL_C


class TestRefusalCostsOnlyItsDecision:
    def test_pipeline_refusal_plans_and_claims_nothing(self, monkeypatch):
        net, service = _filled_testbed()
        net.enable_pipeline()
        controller = net.controller
        calls = []
        _count_calls(monkeypatch, controller.rwa, "plan_batch", calls)
        _count_calls(monkeypatch, controller.provisioner, "claim", calls)
        _count_calls(monkeypatch, controller.grooming, "claim_circuit", calls)
        wave = service.submit_connection("PREMISES-A", "PREMISES-C", 10)
        composite = service.submit_connection("PREMISES-B", "PREMISES-C", 12)
        net.run()
        assert [wave.reason, composite.reason] == [FULL_C, FULL_C]
        assert calls == []

    def test_serial_refusal_plans_and_claims_nothing(self, monkeypatch):
        net, service = _filled_testbed()
        controller = net.controller
        calls = []
        _count_calls(monkeypatch, controller.rwa, "plan", calls)
        _count_calls(monkeypatch, controller.provisioner, "claim", calls)
        _count_calls(monkeypatch, controller.grooming, "claim_circuit", calls)
        conn = service.request_connection("PREMISES-C", "PREMISES-A", 3)
        assert conn.blocked_reason == FULL_C
        assert conn.kind is ConnectionKind.SUBWAVELENGTH
        assert calls == []

    def test_pipelined_order_is_decomposed_once(self, monkeypatch):
        net = build_griphon_testbed(seed=0)
        net.enable_pipeline()
        service = net.service_for("csp")
        calls = []
        _count_calls(monkeypatch, net.controller, "decompose_order", calls)
        tickets = [
            service.submit_connection("PREMISES-A", "PREMISES-B", 10),
            service.submit_connection("PREMISES-A", "PREMISES-C", 12),
        ]
        net.run()
        assert [t.state for t in tickets] == [TicketState.ACCEPTED] * 2
        assert len(calls) == 2


# -- check_terminations vs. the claim loop ------------------------------------


def claim_sequence(controller, connection, waves, circuits):
    """The claim loop's NTE claims, in its order (premises A, then B;
    wavelength interfaces, then circuit sub-channels)."""
    for premises in (connection.premises_a, connection.premises_b):
        for wave in range(waves):
            controller.claim_nte(connection, premises, f"lp-{wave}")
        for circuit in range(circuits):
            controller.claim_nte(
                connection, premises, f"ckt-{circuit}", subchannel=True
            )


def scanned_capacity(nte):
    """``capacity()`` recounted through the public per-unit reads."""
    free = len(nte.free_interfaces())
    subs = 0
    for index in range(nte.interface_count):
        if nte.owner_of(index) is None or not nte.is_channelized(index):
            continue
        subs += sum(
            nte.subchannel_owner(index, sub) is None
            for sub in range(nte.subchannels_per_interface)
        )
    return free, subs


#: One occupancy step: claim a wavelength interface, claim a
#: connection-owned channelized interface, claim a shared sub-channel,
#: or release the n-th held unit of one of those kinds.
OPS = st.one_of(
    st.sampled_from([("wave",), ("channelized",), ("sub",)]),
    st.tuples(st.sampled_from(["free-wave", "free-sub"]), st.integers(0, 40)),
)


def occupy(nte, ops):
    """Apply ``ops`` through the NTE's own claim/release API."""
    waves, subs = [], []
    for serial, op in enumerate(ops):
        owner = f"held-{serial}"
        try:
            if op[0] == "wave":
                waves.append((nte.claim_interface(owner, False), owner))
            elif op[0] == "channelized":
                nte.claim_interface(owner, True)
            elif op[0] == "sub":
                subs.append((nte.claim_subchannel(owner), owner))
            elif op[0] == "free-wave" and waves:
                index, holder = waves.pop(op[1] % len(waves))
                nte.release_interface(index, holder)
            elif op[0] == "free-sub" and subs:
                (index, sub), holder = subs.pop(op[1] % len(subs))
                nte.release_subchannel(index, sub, holder)
        except CapacityExceededError:
            pass
        except EquipmentError:
            # A connection-owned channelized interface never empties
            # back to "shared"; the sub-channel itself is released.
            pass


NTE_STATES = st.tuples(
    st.integers(1, 6),  # interfaces
    st.integers(1, 10),  # sub-channels per interface
    st.lists(OPS, max_size=40),
)


@pytest.fixture(scope="module")
def controller():
    return build_griphon_testbed(seed=0).controller


@SETTINGS
@given(
    states=st.lists(NTE_STATES, min_size=2, max_size=2),
    waves=st.integers(0, 3),
    circuits=st.integers(0, 12),
    same_premises=st.booleans(),
)
def test_check_raises_exactly_when_the_claims_raise(
    controller, states, waves, circuits, same_premises
):
    ntes = controller.inventory.ntes
    saved = dict(ntes)
    try:
        for premises, (count, per, ops) in zip(
            ("PREMISES-A", "PREMISES-B"), states
        ):
            nte = NetworkTerminatingEquipment(
                f"NTE:{premises}", premises, per * GBPS, count, 1 * GBPS
            )
            occupy(nte, ops)
            assert nte.capacity() == scanned_capacity(nte)
            ntes[premises] = nte
        premises_b = "PREMISES-A" if same_premises else "PREMISES-B"
        connection = Connection(
            "conn-x", "csp", "PREMISES-A", premises_b, 10 * GBPS,
            ConnectionKind.WAVELENGTH,
        )
        touched = [ntes["PREMISES-A"], ntes["PREMISES-B"]]
        before = [copy.deepcopy(vars(nte)) for nte in touched]
        checked = claimed = None
        try:
            controller.check_terminations(
                connection, [10 * GBPS] * waves, circuits
            )
        except CapacityExceededError as exc:
            checked = str(exc)
        assert [vars(nte) for nte in touched] == before
        try:
            claim_sequence(controller, connection, waves, circuits)
        except CapacityExceededError as exc:
            claimed = str(exc)
        assert checked == claimed
        for nte in touched:
            assert nte.capacity() == scanned_capacity(nte)
    finally:
        ntes.clear()
        ntes.update(saved)
