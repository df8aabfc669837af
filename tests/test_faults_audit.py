"""Tests for the inventory/hardware invariant auditor.

Clean networks (fresh, loaded, and torn down) must audit clean, and a
seeded corruption of each resource class — a leaked channel, a missing
channel, a rogue transponder allocation, a rogue FXC cross-connect, a
dangling component reference — must surface as the right violation kind.
"""

from repro.facade import build_griphon_testbed
from repro.faults.audit import (
    AuditReport,
    AuditViolation,
    audit_inventory,
    audit_network,
)
from repro.units import gbps

PAIR = ("PREMISES-A", "PREMISES-B")


def build_up_network(rate_gbps=10):
    net = build_griphon_testbed(seed=5)
    svc = net.service_for("acme")
    conn = svc.request_connection(*PAIR, rate_gbps)
    net.run()
    return net, svc, conn


def kinds(report):
    return {violation.kind for violation in report.violations}


class TestCleanAudits:
    def test_fresh_network_is_clean(self):
        net = build_griphon_testbed(seed=1)
        report = audit_network(net.controller)
        assert report.ok
        assert report.checked > 0

    def test_loaded_network_is_clean(self):
        net, svc, conn = build_up_network(12)
        report = audit_network(net.controller)
        assert report.ok, str(report)

    def test_torn_down_network_is_clean(self):
        net, svc, conn = build_up_network()
        svc.teardown_connection(conn.connection_id)
        net.run()
        assert audit_network(net.controller).ok

    def test_inventory_only_audit_skips_connection_checks(self):
        net, _, _ = build_up_network()
        report = audit_inventory(net.inventory)
        assert report.ok, str(report)

    def test_report_rendering(self):
        clean = AuditReport(checked=3)
        assert "3 resource(s) checked, clean" in clean.summary()
        dirty = AuditReport(
            violations=[
                AuditViolation("channel-leak", "channel 4", "LP:x", "leaked")
            ],
            checked=1,
        )
        assert not dirty.ok
        assert "1 violation(s)" in dirty.summary()
        assert "[channel-leak]" in str(dirty)


class TestCorruptionDetection:
    def test_bogus_channel_occupation_is_a_leak(self):
        net, _, _ = build_up_network()
        dwdm = net.inventory.plant.dwdm_link("ROADM-I", "ROADM-III")
        channel = sorted(dwdm.free_channels())[0]
        dwdm.occupy(channel, "LP:bogus")
        report = audit_network(net.controller)
        assert "channel-leak" in kinds(report)

    def test_released_channel_behind_a_lightpaths_back_is_missing(self):
        net, _, conn = build_up_network()
        lp_id = conn.lightpath_ids[0]
        lightpath = net.inventory.lightpaths[lp_id]
        segment = lightpath.segments[0]
        dwdm = net.inventory.plant.dwdm_link(*segment.links[0])
        dwdm.release(segment.channel, lp_id)
        report = audit_network(net.controller)
        assert "channel-missing" in kinds(report)

    def test_bogus_transponder_allocation_is_a_leak(self):
        net, _, _ = build_up_network()
        pool = net.inventory.transponders["ROADM-I"]
        pool.allocate(gbps(10), "LP:bogus")
        report = audit_network(net.controller)
        assert "ot-leak" in kinds(report)

    def test_bogus_fxc_crossconnect_is_a_leak(self):
        net, _, _ = build_up_network()
        fxc = net.inventory.fxcs["PREMISES-C"]
        port_a, port_b = fxc.free_ports()[:2]
        fxc.connect(port_a, port_b, "conn-bogus")
        report = audit_network(net.controller)
        assert "fxc-leak" in kinds(report)

    def test_dangling_lightpath_reference(self):
        net, _, conn = build_up_network()
        conn.lightpath_ids.append("LP:phantom")
        report = audit_network(net.controller)
        assert "dangling-lightpath" in kinds(report)

    def test_blocked_connections_may_not_hold_resources(self):
        # A BLOCKED connection is outside the resource-holding states:
        # an FXC cross-connect it still owned would be a leak.
        net, svc, conn = build_up_network()
        fxc = net.inventory.fxcs["PREMISES-C"]
        port_a, port_b = fxc.free_ports()[:2]
        fxc.connect(port_a, port_b, conn.connection_id)
        assert audit_network(net.controller).ok  # conn is UP: legitimate
        svc.teardown_connection(conn.connection_id)
        net.run()
        report = audit_network(net.controller)
        assert "fxc-leak" in kinds(report)

    def test_violation_str_names_the_resource(self):
        net, _, _ = build_up_network()
        pool = net.inventory.transponders["ROADM-II"]
        pool.allocate(gbps(10), "LP:bogus")
        report = audit_network(net.controller)
        assert not report.ok
        text = str(report.violations[0])
        assert "ot-leak" in text and "LP:bogus" in text


class TestAmplifierGainAudit:
    """Cross-check of live amplifier gains against inventory records."""

    def test_clean_network_gains_match_records(self):
        net = build_griphon_testbed(seed=2)
        report = audit_network(net.controller)
        assert report.ok
        key = ("ROADM-I", "ROADM-II")
        recorded = net.inventory.recorded_amplifier_gain(key)
        chain = net.controller.roadm_ems.amplifier_chains()[key]
        assert recorded == chain.target_gain_db

    def test_silent_gain_drift_is_a_mismatch(self):
        net = build_griphon_testbed(seed=2)
        chain = net.controller.roadm_ems.chain("ROADM-I", "ROADM-II")
        chain.set_gain(chain.target_gain_db - 3.0)
        report = audit_network(net.controller)
        assert "amp-gain-mismatch" in kinds(report)

    def test_active_amp_flap_excuses_the_deviation(self):
        # While a declared amp-flap degradation is live on the link, the
        # gain deviation is the *injected* failure, not a bookkeeping
        # bug — the auditor must not double-report it.
        net = build_griphon_testbed(seed=2)
        chain = net.controller.roadm_ems.chain("ROADM-I", "ROADM-II")
        chain.set_gain(chain.target_gain_db - 3.0)
        link = net.inventory.plant.dwdm_link("ROADM-I", "ROADM-II")
        link.set_degradation("amp-flap:0", 3.0)
        assert audit_network(net.controller).ok
        # Once the flap clears, a lingering deviation is a violation.
        link.clear_degradation("amp-flap:0")
        assert "amp-gain-mismatch" in kinds(audit_network(net.controller))

    def test_reset_gain_clears_the_mismatch(self):
        net = build_griphon_testbed(seed=2)
        chain = net.controller.roadm_ems.chain("ROADM-I", "ROADM-II")
        chain.set_gain(0.0)
        assert not audit_network(net.controller).ok
        chain.reset_gain()
        assert audit_network(net.controller).ok


class TestLedgerAudit:
    """A ledger that disagrees with the hardware names which side is short."""

    @staticmethod
    def ledger_mismatches(net):
        return [
            (violation.owner, violation.detail)
            for violation in audit_network(net.controller).violations
            if violation.kind == "ledger-mismatch"
        ]

    def test_a_held_resource_missing_from_the_ledger(self):
        net, _, conn = build_up_network()
        lp_id = conn.lightpath_ids[0]
        net.inventory.holdings[lp_id].pop(0)
        assert self.ledger_mismatches(net) == [
            (lp_id, "held by the lightpath but not in its ledger")
        ]

    def test_a_ledger_entry_the_lightpath_does_not_hold(self):
        net, _, conn = build_up_network()
        lp_id = conn.lightpath_ids[0]
        kind, pool, index = net.inventory.holdings[lp_id][0]
        net.inventory.holdings[lp_id].append((kind, pool, index + 1))
        assert self.ledger_mismatches(net) == [
            (lp_id, "in the ledger but not held by a registered lightpath")
        ]
