"""Integration coverage for the SLA remediation loop.

Drives the full detect → impact → remediate → monitor → restore cycle on
the 12-city backbone: reroutes land off the degraded trunk and revert
once it heals, connections with no viable alternate escalate to DEGRADED
with a typed :class:`~repro.api.SlaBreached` and de-escalate on
recovery, scheduled maintenance defers remediation, the utilization gate
refuses headroom-less alternates, and the invariant auditor stays the
oracle after every action.
"""

from repro import api
from repro.core.connection import ConnectionState
from repro.core.gui import render_fault_panel, render_network_view
from repro.faults import DegradationPlan, DegradationSpec
from repro.faults.audit import audit_network
from repro.fingerprint import network_fingerprint
from repro.slo import SloPolicy, default_policies
from repro.slo.bench import (
    build_slo_network,
    bring_up_workload,
    default_degradation_plan,
    run_slo_trial,
)


def _drift_plan(link="ATL=DFW", start_s=300.0, duration_s=2400.0,
                magnitude_db=8.0):
    plan = DegradationPlan()
    plan.add(DegradationSpec(
        link=link, mode="osnr-drift", start_s=start_s,
        duration_s=duration_s, magnitude_db=magnitude_db,
    ))
    return plan


def _margin_policy():
    return (SloPolicy(name="osnr-margin"),)


class TestRerouteAndRevert:
    def test_reroute_leaves_degraded_link_then_reverts(self):
        net = build_slo_network(0)
        service = net.service_for("t", max_connections=8,
                                  max_total_rate_gbps=1000)
        conn = service.request_connection("DC-CENTRAL", "DC-SOUTH", 10)
        net.run()
        runtime = net.enable_slo(
            plan=_drift_plan(), policies=_margin_policy(),
            audit_each_action=True,
        )
        # Run into the degradation window far enough for the burn-rate
        # windows to trip and the bridge-and-roll to land.
        net.run(until=1500.0)
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        assert conn.state is ConnectionState.UP
        assert ("ATL", "DFW") not in [
            key for seg in lightpath.segments for key in seg.links
        ]
        assert runtime.engine.phase_of(conn.connection_id) == "rerouted"
        # Let the spec end; the engine rolls the connection back.
        net.run()
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        assert conn.state is ConnectionState.UP
        assert runtime.engine.phase_of(conn.connection_id) == "watch"
        counters = net.metrics.counters()
        assert counters["slo.rerouted"] >= 1
        assert counters["slo.reverted"] >= 1
        assert runtime.engine.audit_ok

    def test_reroutes_respect_the_utilization_gate(self):
        result = run_slo_trial(seed=0, policy_on=True)
        assert result["rerouted"] > 0
        assert result["max_reroute_utilization"] < 0.80

    def test_amp_flap_gain_restored_at_plan_end(self):
        plan = DegradationPlan()
        plan.add(DegradationSpec(
            link="LAX=SEA", mode="amp-flap", start_s=0.0,
            duration_s=1200.0, magnitude_db=6.0, period_s=300.0,
        ))
        net = build_slo_network(0)
        net.enable_slo(plan=plan, policies=())
        net.run()
        chain = net.controller.roadm_ems.chain("LAX", "SEA")
        assert chain.gain_error_db == 0.0
        plant = net.inventory.plant
        assert plant.dwdm_link("LAX", "SEA").osnr_penalty_db == 0.0


class TestEscalation:
    def _escalated_network(self):
        """DC-EAST <-> DC-SOUTH rides NYC-DCA-ATL; the northeast conduit
        SRLG covers both NYC exits, so degrading NYC=DCA leaves no
        disjoint alternate and the engine must escalate."""
        net = build_slo_network(0)
        service = net.service_for("t", max_connections=8,
                                  max_total_rate_gbps=1000)
        conn = service.request_connection("DC-EAST", "DC-SOUTH", 10)
        net.run()
        runtime = net.enable_slo(
            plan=_drift_plan(link="DCA=NYC"), policies=_margin_policy(),
            audit_each_action=True,
        )
        return net, service, conn, runtime

    def test_no_alternate_escalates_with_typed_breach(self):
        net, service, conn, runtime = self._escalated_network()
        net.run(until=1500.0)
        assert conn.state is ConnectionState.DEGRADED
        assert conn.degradation_cause.startswith("osnr-drift")
        assert conn.degradation_policy == "osnr-margin"
        outcome = api.classify_record(conn)
        assert isinstance(outcome, api.SlaBreached)
        assert outcome.policy == "osnr-margin"
        assert outcome.margin_db < 2.0
        assert runtime.engine.breaches
        assert runtime.engine.audit_ok

    def test_fault_report_renders_gray_failure_distinctly(self):
        net, service, conn, runtime = self._escalated_network()
        net.run(until=1500.0)
        report = service.fault_report(conn.connection_id)
        assert report.degradation_cause.startswith("osnr-drift")
        assert report.osnr_margin_db is not None
        assert "GRAY DEGRADED" in str(report)
        assert "dB margin" in str(report)
        panel = render_fault_panel(service)
        assert "GRAY DEGRADED" in panel

    def test_network_view_marks_degraded_links(self):
        net, service, conn, runtime = self._escalated_network()
        net.run(until=1500.0)
        view = render_network_view(net.controller)
        assert "DEGRADED -" in view
        assert "FAILED" not in view

    def test_recovery_restores_to_up_and_clears_fields(self):
        net, service, conn, runtime = self._escalated_network()
        net.run()
        assert conn.state is ConnectionState.UP
        assert conn.degradation_cause == ""
        assert conn.degradation_margin_db is None
        assert api.classify_record(conn).__class__ is api.Active
        assert net.metrics.counters()["slo.restored"] >= 1


class TestRunbookGates:
    def test_scheduled_maintenance_defers_remediation(self):
        net = build_slo_network(0)
        service = net.service_for("t", max_connections=8,
                                  max_total_rate_gbps=1000)
        conn = service.request_connection("DC-CENTRAL", "DC-SOUTH", 10)
        net.run()
        # A window on the degraded trunk inside the defer horizon: the
        # maintenance migration will move the traffic, the engine waits.
        net.maintenance.schedule("ATL", "DFW", start_in=3000.0,
                                 duration=600.0)
        runtime = net.enable_slo(
            plan=_drift_plan(), policies=_margin_policy(),
            audit_each_action=True,
        )
        net.run(until=1500.0)
        assert runtime.engine.phase_of(conn.connection_id) == "deferred"
        assert net.metrics.counters()["slo.deferred"] == 1
        assert net.metrics.counters().get("slo.rerouted", 0) == 0

    def test_zero_headroom_gate_forces_escalation(self):
        net = build_slo_network(0)
        service = net.service_for("t", max_connections=8,
                                  max_total_rate_gbps=1000)
        conn = service.request_connection("DC-CENTRAL", "DC-SOUTH", 10)
        net.run()
        net.enable_slo(
            plan=_drift_plan(), policies=_margin_policy(),
            utilization_gate=0.0,
        )
        net.run(until=1500.0)
        assert conn.state is ConnectionState.DEGRADED
        counters = net.metrics.counters()
        assert counters["slo.no_headroom"] >= 1
        assert counters["slo.escalated"] == 1

    def test_global_policy_breach_raises_alert_only(self):
        net = build_slo_network(0)
        bring_up_workload(net)
        policy = SloPolicy(
            name="error-burst", metric="resilient.faults.injected",
            threshold=-1.0, scope="global", orientation="above",
            short_window_s=60.0, long_window_s=60.0,
        )
        runtime = net.enable_slo(
            plan=_drift_plan(), policies=(policy,),
        )
        net.run()
        alerts = [r for r in runtime.engine.records if r.action == "alert"]
        assert alerts and all(r.connection_id == "" for r in alerts)
        assert net.metrics.counters().get("slo.rerouted", 0) == 0


class TestBenchTrial:
    def test_policy_on_cuts_violation_minutes_3x(self):
        off = run_slo_trial(seed=0, policy_on=False)
        on = run_slo_trial(seed=0, policy_on=True)
        assert off["violation_minutes"] >= 3.0 * on["violation_minutes"]
        # The two values `griphon slo [--policy-off]` prints and
        # EXPERIMENTS.md quotes, not only their ratio.
        assert (off["violation_minutes"], on["violation_minutes"]) == (297.5, 32.5)
        assert (on["rerouted"], on["reverted"]) == (11, 11)
        assert (off["rerouted"], off["reverted"]) == (0, 0)
        assert on["audit_violations"] == 0
        assert off["audit_violations"] == 0
        assert on["injector_finished"] and off["injector_finished"]

    def test_empty_plan_is_fingerprint_identical_to_no_subsystem(self):
        bare = build_slo_network(3)
        bring_up_workload(bare)
        bare.run()
        attached = build_slo_network(3)
        bring_up_workload(attached)
        assert attached.enable_slo(plan=DegradationPlan(), policies=()) is None
        attached.run()
        assert network_fingerprint(bare) == network_fingerprint(attached)

    def test_default_plan_exercises_every_mode(self):
        modes = {spec.mode for spec in default_degradation_plan().specs}
        assert modes == {"osnr-drift", "amp-flap", "attenuation-creep"}

    def test_post_trial_network_audits_clean(self):
        net = build_slo_network(0)
        bring_up_workload(net)
        net.enable_slo(plan=default_degradation_plan(),
                       policies=default_policies())
        net.run()
        assert audit_network(net.controller).ok
