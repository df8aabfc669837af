"""Failure detection, localization and automated restoration (§2.2).

A fiber cut fails the IP adjacency, lightpaths and OTN lines riding the
span; OTN circuits switch to shared-mesh backup.  With the controller's
``auto_restore`` on (read at each decision), each failed lightpath of a
connection is re-provisioned around the failed links and handed over
through ``swap_lightpath``, as bridge-and-roll does; with it off, a
repair lights the original paths again.  A connection is UP again only
when none of its lightpaths is FAILED or set aside (released for a
claim that was blocked, or rolled back by the setup saga).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.connection import Connection, ConnectionState
from repro.errors import GriphonError
from repro.iplayer.evc import EvcState
from repro.optical.lightpath import Lightpath, LightpathState
from repro.otn.circuit import OduCircuitState
from repro.sim.process import Process

_IN_SERVICE = (ConnectionState.UP, ConnectionState.DEGRADED)


class Restoration:
    """A controller's failure handler and its restoration state."""

    def __init__(self, controller) -> None:
        self._controller = controller
        #: connection_id -> its set-aside lightpath records.
        self._unrestored: Dict[str, List[Lightpath]] = {}
        #: Connections ordered down while RESTORING.
        self._teardown_after_restore: Set[str] = set()
        controller.inventory.plant.on_failure.append(self._on_fiber_cut)

    def restore(self, connection: Connection, repaired: bool = False) -> None:
        """Re-provision a FAILED connection, or revive it after a repair."""
        if connection.state is not ConnectionState.FAILED:
            return
        if self._controller.auto_restore:
            self._attempt(connection)
        elif repaired:
            self._revive(connection)

    def on_repair(self, a: str, b: str) -> None:
        """The repair half of ``repair_link``."""
        if self._controller.ip_layer is not None:
            self._repair_adjacency(a, b)
        for connection in list(self._controller.connections.values()):
            self.restore(connection, repaired=True)

    def fail(self, connection: Connection) -> None:
        """Fail an in-service connection; its outage opens."""
        if connection.state in _IN_SERVICE:
            connection.begin_outage(self._controller.sim.now)
            connection.transition(ConnectionState.FAILED)
            self._controller.notify("connection-failed", {"connection": connection})

    def fail_otn_line(self, line_id: str) -> None:
        """Fail an OTN line; its circuits switch to shared-mesh backup."""
        controller = self._controller
        now = controller.sim.now
        line = controller.inventory.otn_lines.get(line_id)
        if line is None or line.failed:
            return
        for circuit_id in line.fail():
            circuit = controller.inventory.circuits.get(circuit_id)
            if circuit is None or circuit.state is not OduCircuitState.UP:
                continue
            circuit.transition(OduCircuitState.FAILED)
            try:
                switch_time = controller.protection.restore(circuit_id)
            except GriphonError:
                continue  # no shared capacity left; stays failed
            circuit.restored_at = now + switch_time
            connection = self._served_by(circuit_id)
            controller.tracer.record(
                "otn.mesh_restore", start=now, end=now + switch_time,
                trace_id=connection.trace_id if connection is not None else None,
                circuit=circuit_id,
            )
            if connection is not None:
                connection.begin_outage(now)
                self._end_outage_in(connection, switch_time, f"mesh-restore:{circuit_id}")

    def hold_teardown(self, connection: Connection) -> bool:
        """True when a teardown must wait for the restoration in flight;
        otherwise the connection's set-aside records are dropped."""
        if connection.state is ConnectionState.RESTORING:
            self._teardown_after_restore.add(connection.connection_id)
            return True
        self._unrestored.pop(connection.connection_id, None)
        return False

    def _on_fiber_cut(self, link_key, affected_owners) -> None:
        """The plant's failure handler: localize, fail, and restore."""
        controller = self._controller
        controller.tracer.event("failure.fiber_cut", link=f"{link_key[0]}={link_key[1]}")
        controller.metrics.inc("failure.fiber_cut")
        controller.notify("fiber-cut", {"link": link_key, "owners": set(affected_owners)})
        # IP layer: the adjacency riding this span fails; the IGP
        # reconverges and EVCs reroute in a couple hundred milliseconds.
        if controller.ip_layer is not None:
            self._fail_adjacency(link_key)
        for lightpath in controller.inventory.lightpaths_using_link(*link_key):
            if lightpath.state is not LightpathState.UP:
                continue
            lightpath.transition(LightpathState.FAILED)
            conn_id = controller.connection_of(lightpath.lightpath_id)
            if conn_id is not None:
                self.fail(controller.connection(conn_id))
            for line_id in controller.lines_carried_by(lightpath.lightpath_id):
                self.fail_otn_line(line_id)
        for connection in list(controller.connections.values()):
            self.restore(connection)

    def _fail_adjacency(self, link_key) -> None:
        ip_layer = self._controller.ip_layer
        try:
            affected = ip_layer.fail_adjacency(*link_key)
        except GriphonError:
            return  # no adjacency rides this span
        for evc in affected:
            connection = self._served_by(evc.evc_id)
            if connection is not None:
                connection.begin_outage(self._controller.sim.now)
            try:
                outage = ip_layer.reroute_evc(evc.evc_id)
            except GriphonError:
                # No surviving capacity: stays down until repair.
                if connection is not None and connection.state in _IN_SERVICE:
                    connection.transition(ConnectionState.FAILED)
                continue
            if connection is not None:
                self._end_outage_in(connection, outage, f"evc-reroute:{evc.evc_id}")

    def _repair_adjacency(self, a: str, b: str) -> None:
        ip_layer = self._controller.ip_layer
        try:
            ip_layer.repair_adjacency(a, b)
        except GriphonError:
            pass  # no adjacency rides this span
        for evc in ip_layer.evcs:
            if evc.state is not EvcState.DOWN:
                continue
            connection = self._served_by(evc.evc_id)
            try:
                outage = ip_layer.reroute_evc(evc.evc_id)
            except GriphonError:
                continue
            if connection is not None:
                if connection.state is ConnectionState.FAILED:
                    connection.transition(ConnectionState.UP)
                self._end_outage_in(connection, outage, f"evc-retry:{evc.evc_id}")

    def _end_outage_in(self, connection, delay: float, label: str) -> None:
        sim = self._controller.sim
        sim.schedule(delay, connection.end_outage, sim.now + delay, label=label)

    def _served_by(self, component_id: str) -> Optional[Connection]:
        """The connection an ODU circuit or EVC serves, if any."""
        for connection in self._controller.connections.values():
            if (
                component_id in connection.circuit_ids
                or component_id in connection.evc_ids
            ):
                return connection
        return None

    def _revive(self, connection: Connection) -> None:
        """Manual world: a repair lights the original paths again."""
        controller = self._controller
        failed = controller.failed_lightpaths(connection)
        for lightpath in failed:
            if controller.inventory.plant.path_is_up(lightpath.path):
                lightpath.transition(LightpathState.UP)
        if not failed or controller.failed_lightpaths(connection):
            return
        connection.transition(ConnectionState.UP)
        connection.end_outage(controller.sim.now)
        controller.notify("revived", {"connection": connection})

    def _attempt(self, connection: Connection) -> None:
        """Re-provision each failed lightpath of a connection on a new
        route.  A blocked one waits for the next cut or repair: still
        registered when no route was found, set aside when its claim
        found a regen site or port bank empty.
        """
        controller = self._controller
        conn_id = connection.connection_id
        registered = controller.inventory.lightpaths
        # The dead lightpaths: set aside by an earlier attempt, or
        # registered and still holding their resources.
        dead = self._unrestored.pop(conn_id, []) + controller.failed_lightpaths(connection)
        if not dead:
            return
        span = controller.tracer.span(
            "restoration", trace_id=connection.trace_id, connection=conn_id
        )
        with span.child("restoration.localize"):
            failed_links = set(controller.inventory.plant.failed_links())
        replacements = []
        for old in dead:
            try:
                with span.child("restoration.plan") as plan_span:
                    plan = controller.rwa.plan(
                        old.source, old.destination, old.rate_bps,
                        excluded_links=failed_links, parent_span=plan_span,
                    )
                if old.lightpath_id in registered:
                    # Release the dead path: the new one may need what it holds.
                    controller.provisioner.release(old)
                    controller.detach_lightpath(connection, old.lightpath_id)
                with span.child("restoration.claim"):
                    replacement = controller.provisioner.claim(plan)
            except GriphonError as exc:
                if old.lightpath_id not in registered:
                    self._unrestored.setdefault(conn_id, []).append(old)
                controller.metrics.inc("restoration.blocked")
                controller.notify(
                    "restoration-blocked", {"connection": connection, "reason": str(exc)}
                )
                continue
            controller.swap_lightpath(connection, old, replacement)
            replacements.append(replacement)
        if not replacements:
            span.set_tag("outcome", "blocked").finish()
            return
        connection.transition(ConnectionState.RESTORING)
        Process(
            controller.sim, self._workflow(connection, replacements, span),
            label=f"restore:{conn_id}",
        )

    def _workflow(self, connection, replacements, span):
        """Set the replacements up one after another, then settle."""
        controller = self._controller
        conn_id = connection.connection_id
        started = controller.sim.now
        for replacement in replacements:
            yield from controller.provisioner.setup_workflow(
                replacement, include_fxc=False, parent_span=span
            )
        rolled_back = [lp for lp in replacements if lp.state is LightpathState.RELEASED]
        for lightpath in rolled_back:
            controller.detach_lightpath(connection, lightpath.lightpath_id)
            self._unrestored.setdefault(conn_id, []).append(lightpath)
        refailed = any(lp.state is LightpathState.FAILED for lp in replacements)
        # Ordered down while restoring?  Settle without retrying.
        torn_down = conn_id in self._teardown_after_restore
        self._teardown_after_restore.discard(conn_id)
        if conn_id in self._unrestored or controller.failed_lightpaths(connection):
            # A replacement cut while restoring is retried now.  What
            # the saga rolled back is not (the same faults would hit
            # again); it waits with any blocked component for the next
            # cut or repair.
            outcome = "aborted" if rolled_back else "re-failed" if refailed else "blocked"
            connection.transition(ConnectionState.FAILED)
            span.set_tag("outcome", outcome).finish()
            if rolled_back:
                connection.setup_error = rolled_back[0].setup_error
                controller.metrics.inc("restoration.aborted")
                controller.notify("restoration-aborted", {"connection": connection})
            elif refailed and not torn_down:
                self._attempt(connection)
        else:
            connection.transition(ConnectionState.UP)
            connection.end_outage(controller.sim.now)
            span.set_tag("outcome", "restored").finish()
            controller.metrics.inc("restoration.success")
            controller.metrics.observe(
                "restoration.reprovision_s", controller.sim.now - started
            )
            controller.notify("restored", {"connection": connection})
        if torn_down:
            controller.teardown_connection(conn_id)
