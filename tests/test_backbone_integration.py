"""End-to-end integration on the continental backbone.

Drives a full simulated day of mixed workload — bulk replication jobs,
interactive sub-rate connections, a fiber cut, and a maintenance window
— across the five data centers and checks global sanity: connections
settle, restoration works at continental scale, and nothing leaks.
"""

import pytest

from repro.core.connection import ConnectionKind, ConnectionState
from repro.facade import build_griphon_backbone
from repro.units import DAY, HOUR, TERABYTE
from repro.workload.arrivals import PoissonArrivals
from repro.workload.bulk import BulkTransferWorkload


@pytest.fixture
def net():
    return build_griphon_backbone(seed=99, latency_cv=0.0)


class TestBackboneDay:
    def test_mixed_day_of_traffic(self, net):
        svc = net.service_for(
            "csp", max_connections=128, max_total_rate_gbps=100000
        )
        workload = BulkTransferWorkload(
            net.sim,
            net.streams,
            svc,
            premises=["DC-EAST", "DC-SOUTH", "DC-CENTRAL", "DC-WEST",
                      "DC-NORTHWEST"],
            mean_volume_bits=3 * TERABYTE,
        )
        PoissonArrivals(
            net.sim,
            net.streams,
            workload.submit_job,
            rate_per_s=8.0 / HOUR,
            stop_at=0.5 * DAY,
        )
        net.run(until=1 * DAY)
        net.run()
        assert workload.records, "expected jobs to arrive"
        finished = workload.completed()
        assert finished, "expected completed transfers"
        for record in finished:
            assert record.completion_time > 0
        # Every connection reached a terminal or stable state.
        for conn in svc.connections():
            assert conn.state in (
                ConnectionState.RELEASED,
                ConnectionState.UP,
                ConnectionState.BLOCKED,
            )

    def test_transcontinental_restoration(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection("DC-EAST", "DC-WEST", 10)
        net.run()
        assert conn.state is ConnectionState.UP
        lightpath = net.inventory.lightpaths[conn.lightpath_ids[0]]
        # Cut a middle span of the route.
        mid = len(lightpath.path) // 2
        a, b = lightpath.path[mid - 1], lightpath.path[mid]
        net.controller.cut_link(a, b)
        net.run()
        assert conn.state is ConnectionState.UP
        assert conn.total_outage_s < 10 * 60  # minutes, not hours
        new_path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
        keys = {tuple(sorted(p)) for p in zip(new_path, new_path[1:])}
        assert tuple(sorted((a, b))) not in keys

    def test_conduit_cut_hits_srlg_peers(self, net):
        """Cutting the shared Texas conduit fails two links at once."""
        svc = net.service_for("csp")
        conn = svc.request_connection("DC-CENTRAL", "DC-WEST", 10)
        net.run()
        net.controller.cut_srlg("conduit:texas")
        net.run()
        failed = net.inventory.plant.failed_links()
        assert len(failed) == 2
        # If the route used either failed link, it must have moved.
        if conn.state is ConnectionState.UP:
            path = net.inventory.lightpaths[conn.lightpath_ids[0]].path
            keys = {tuple(sorted(p)) for p in zip(path, path[1:])}
            assert not (set(failed) & keys)

    def test_subrate_between_all_dc_pairs(self, net):
        svc = net.service_for(
            "csp", max_connections=64, max_total_rate_gbps=10000
        )
        dcs = ["DC-EAST", "DC-SOUTH", "DC-CENTRAL", "DC-WEST", "DC-NORTHWEST"]
        connections = []
        for i, a in enumerate(dcs):
            for b in dcs[i + 1 :]:
                connections.append(svc.request_connection(a, b, 1))
        net.run()
        states = {c.state for c in connections}
        assert states <= {ConnectionState.UP, ConnectionState.BLOCKED}
        up = [c for c in connections if c.state is ConnectionState.UP]
        assert len(up) >= 8  # most pairs should fit
        assert all(c.kind is ConnectionKind.SUBWAVELENGTH for c in up)

    def test_packet_services_coast_to_coast(self, net):
        svc = net.service_for("csp")
        conn = svc.request_connection("DC-EAST", "DC-WEST", 0.3)
        net.run()
        assert conn.state is ConnectionState.UP
        assert conn.kind is ConnectionKind.PACKET
        evc = net.controller.ip_layer.evcs[0]
        assert len(evc.path) >= 3  # multi-hop across the mesh
