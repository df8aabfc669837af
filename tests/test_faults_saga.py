"""Integration tests for the compensating setup saga.

A fault injected at any stage of a setup workflow must unwind every
executed step and release every claimed resource (the invariant auditor
is the oracle), composites must settle to DEGRADED when only some
components abort, and restoration / bridge-and-roll must abort cleanly
when the resilient layer gives up mid-rebuild.
"""

from collections import Counter

import pytest

from repro.api import ServiceDegraded, SetupFailed
from repro.core.connection import (
    CLAIM_FXC,
    CLAIM_NTE,
    CLAIM_NTE_SUB,
    CLAIM_OTN_PORT,
    ConnectionState,
)
from repro.facade import build_griphon_testbed
from repro.faults import FaultPlan, FaultSpec, audit_network
from repro.optical import LightpathState
from repro.otn.circuit import OduCircuitState

PAIR = ("PREMISES-A", "PREMISES-B")


def build(plan=None, seed=7):
    net = build_griphon_testbed(seed=seed, fault_plan=plan)
    return net, net.service_for("acme")


def assert_clean(net):
    report = audit_network(net.controller)
    assert report.ok, str(report)


def hardware_claims(net, owner):
    """What the NTEs, FXCs and OTN switches say ``owner`` holds, as
    ledger entries without their component."""
    inventory = net.inventory
    held = set()
    for premises, nte in inventory.ntes.items():
        for index in range(nte.interface_count):
            if nte.owner_of(index) == owner:
                held.add((CLAIM_NTE, premises, index))
            for sub in range(nte.subchannels_per_interface):
                if nte.subchannel_owner(index, sub) == owner:
                    held.add((CLAIM_NTE_SUB, premises, index, sub))
    for site, fxc in inventory.fxcs.items():
        for low, _high, holder in fxc.connections():
            if holder == owner:
                held.add((CLAIM_FXC, site, low))
    for node, switch in inventory.otn_switches.items():
        for port, holder in switch.client_port_owners().items():
            if holder == owner:
                held.add((CLAIM_OTN_PORT, node, port))
    return held


class TestWaveSetupSaga:
    @pytest.mark.parametrize(
        "stage", ["order", "fxc", "tune", "roadm", "equalize", "verify"]
    )
    def test_failure_at_each_stage_unwinds_completely(self, stage):
        plan = FaultPlan([FaultSpec(command=stage, mode="fail")])
        net, svc = build(plan)
        conn = svc.request_connection(*PAIR, 10)
        net.run()
        assert conn.state is ConnectionState.BLOCKED
        assert conn.blocked_reason.startswith("setup failed")
        outcome = svc.setup_outcome(conn.connection_id)
        assert isinstance(outcome, SetupFailed)
        # Zero residue: no lightpaths registered, quota back to zero,
        # and the hardware agrees with the (empty) inventory.
        assert not net.inventory.lightpaths
        usage = svc.usage()
        assert usage["connections"] == 0
        assert usage["committed_gbps"] == 0
        assert_clean(net)
        counters = net.metrics.counters()
        assert counters["lightpath.setup_aborted"] >= 1
        assert counters["connection.setup_failed"] == 1

    def test_transient_fault_is_retried_transparently(self):
        # A single transient hiccup: the retry wins and the customer
        # sees a normal UP connection.
        plan = FaultPlan(
            [FaultSpec(count=1, mode="transient", command="tune")]
        )
        net, svc = build(plan)
        conn = svc.request_connection(*PAIR, 10)
        net.run()
        assert conn.state is ConnectionState.UP
        assert svc.setup_outcome(conn.connection_id) is None
        counters = net.metrics.counters()
        assert counters["ems.retry"] >= 1
        assert counters["faults.injected.transient"] == 1
        assert_clean(net)

    def test_fault_report_carries_structured_fields(self):
        plan = FaultPlan([FaultSpec(command="tune", mode="fail")])
        net, svc = build(plan)
        conn = svc.request_connection(*PAIR, 10)
        net.run()
        report = svc.fault_report(conn.connection_id)
        assert report.failed_command
        assert report.failed_element


class TestCompositeSettlement:
    def test_otn_failure_degrades_composite(self):
        # 12G = a 10G wavelength plus a groomed OTN circuit; killing
        # only the OTN EMS aborts the circuit and keeps the wave.
        plan = FaultPlan([FaultSpec(ems="otn_ems", mode="fail")])
        net, svc = build(plan)
        conn = svc.request_connection(*PAIR, 12)
        net.run()
        assert conn.state is ConnectionState.DEGRADED
        assert conn.lightpath_ids and not conn.circuit_ids
        outcome = svc.setup_outcome(conn.connection_id)
        assert isinstance(outcome, ServiceDegraded)
        assert outcome.up_components >= 1
        counters = net.metrics.counters()
        assert counters["otn.circuit.setup_aborted"] >= 1
        assert counters["connection.setup_degraded"] == 1
        assert_clean(net)
        # The degraded survivor tears down like any other connection.
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert svc.usage()["connections"] == 0
        assert_clean(net)

    @pytest.mark.parametrize(
        "ems, rate, state",
        [
            ("fxc_ctl", 10, ConnectionState.BLOCKED),
            ("otn_ems", 12, ConnectionState.DEGRADED),
        ],
    )
    def test_ems_names_are_fault_plan_keys_not_objects(self, ems, rate, state):
        plan = FaultPlan([FaultSpec(ems=ems, mode="fail")])
        net, svc = build(plan)
        for name in ("fxc_ctl", "nte_ctl", "otn_ems"):
            assert not hasattr(net.controller, name)
        conn = svc.request_connection(*PAIR, rate)
        net.run()
        assert conn.state is state
        assert net.metrics.counters()[f"ems.command.failed.{ems}"] >= 1
        assert_clean(net)

    def test_total_failure_blocks_and_unwinds_composite(self):
        plan = FaultPlan([FaultSpec(mode="fail")])
        net, svc = build(plan)
        conn = svc.request_connection(*PAIR, 12)
        net.run()
        assert conn.state is ConnectionState.BLOCKED
        assert isinstance(svc.setup_outcome(conn.connection_id), SetupFailed)
        assert svc.usage()["connections"] == 0
        assert conn.claims == []
        assert hardware_claims(net, conn.connection_id) == set()
        assert_clean(net)


class TestOneComponentAborts:
    """Whichever component of a multi-component order aborts — the first
    claimed or the last — the survivors keep exactly their own NTE, FXC
    and OTN claims, and teardown gives every port back."""

    @pytest.mark.parametrize(
        "rate, ems, first, kept",
        [
            (20, "roadm_ems", True, {CLAIM_NTE: 2, CLAIM_FXC: 2}),
            (20, "roadm_ems", False, {CLAIM_NTE: 2, CLAIM_FXC: 2}),
            (12, "otn_ems", True,
             {CLAIM_NTE: 2, CLAIM_NTE_SUB: 2, CLAIM_FXC: 4, CLAIM_OTN_PORT: 2}),
            (12, "otn_ems", False,
             {CLAIM_NTE: 2, CLAIM_NTE_SUB: 2, CLAIM_FXC: 4, CLAIM_OTN_PORT: 2}),
        ],
        ids=["first-wave", "last-wave", "first-circuit", "last-circuit"],
    )
    def test_survivors_keep_exactly_their_own_claims(
        self, rate, ems, first, kept
    ):
        # The first component fails its first command; the last one
        # fails every command issued once the first is up.
        specs = [FaultSpec(ems=ems, mode="fail", count=1)] if first else []
        net, svc = build(FaultPlan(specs))
        conn = svc.request_connection(*PAIR, rate)
        waves = rate == 20
        components = list(conn.lightpath_ids if waves else conn.circuit_ids)
        assert len(components) == 2
        aborted = components[0] if first else components[-1]
        if not first:
            records = net.inventory.lightpaths if waves else net.inventory.circuits
            up = LightpathState.UP if waves else OduCircuitState.UP
            while records[components[0]].state is not up:
                assert net.sim.step()
            net.controller.fault_plan.add(
                FaultSpec(ems=ems, mode="fail", after_s=net.sim.now)
            )
        net.run()
        assert conn.state is ConnectionState.DEGRADED
        survivors = set(conn.lightpath_ids) | set(conn.circuit_ids)
        assert aborted not in survivors
        assert set(components) - {aborted} <= survivors
        owner = conn.connection_id
        assert {entry[0] for entry in conn.claims} == survivors
        assert {entry[1:] for entry in conn.claims} == hardware_claims(net, owner)
        assert Counter(entry[1] for entry in conn.claims) == kept
        assert_clean(net)
        svc.teardown_connection(owner)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert conn.claims == []
        assert hardware_claims(net, owner) == set()
        for fxc in net.inventory.fxcs.values():
            assert fxc.connections() == []
        for switch in net.inventory.otn_switches.values():
            assert not switch.client_port_owners()
        assert_clean(net)


class TestRecoveryPathSagas:
    def test_restoration_abort_leaves_connection_failed_and_clean(self):
        net, svc = build(FaultPlan())
        conn = svc.request_connection(*PAIR, 10)
        net.run()
        assert conn.state is ConnectionState.UP
        # From now on every EMS command fails hard: the replacement
        # lightpath cannot be built and restoration must give up.
        net.controller.fault_plan.add(
            FaultSpec(mode="fail", after_s=net.sim.now)
        )
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        core = [
            (a, b)
            for a, b in zip(lightpath.path, lightpath.path[1:])
            if not (a.startswith("PREMISES") or b.startswith("PREMISES"))
        ]
        net.controller.cut_link(*core[0])
        net.run()
        assert conn.state is ConnectionState.FAILED
        assert conn.lightpath_ids == []
        assert net.metrics.counters()["restoration.aborted"] == 1
        assert_clean(net)

    def test_bridge_and_roll_abort_keeps_original_up(self):
        net, svc = build(FaultPlan())
        conn = svc.request_connection(*PAIR, 10)
        net.run()
        assert conn.state is ConnectionState.UP
        original = list(conn.lightpath_ids)
        net.controller.fault_plan.add(
            FaultSpec(mode="fail", after_s=net.sim.now)
        )
        net.controller.bridge_and_roll(conn.connection_id)
        net.run()
        # The bridge saga rolled back; traffic never left the old path.
        assert conn.state is ConnectionState.UP
        assert conn.lightpath_ids == original
        assert net.metrics.counters()["bridge_and_roll.aborted"] == 1
        assert_clean(net)

    def test_teardown_is_best_effort_under_faults(self):
        net, svc = build(FaultPlan())
        conn = svc.request_connection(*PAIR, 10)
        net.run()
        net.controller.fault_plan.add(
            FaultSpec(mode="transient", after_s=net.sim.now)
        )
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert conn.state is ConnectionState.RELEASED
        assert not net.inventory.lightpaths
        assert net.metrics.counters()["ems.command.forced"] >= 1
        assert_clean(net)
