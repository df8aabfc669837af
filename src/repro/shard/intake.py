"""ShardIntake: the sharded network behind the one intake contract.

``ShardedNetwork`` has its own batch entry point
(:meth:`~repro.shard.network.ShardedNetwork.place_orders`); nothing
built against :class:`repro.pipeline.engine.RoundIntake` — the async
frontend above all — could drive it.  :class:`ShardIntake` is that
adapter.  The bounded queue, ticket surface, round cadence, event
stream and typed outcomes are not *like* the pipeline's, they are the
pipeline's: both subclass :class:`~repro.pipeline.engine.RoundIntake`,
and this module says only what a sharded round places.  A stitched
:class:`~repro.shard.network.ShardOrder` carries the fields a
connection record's outcome is read from, and its network speaks the
controller's observer vocabulary, so the intake subscribes the same
:meth:`~repro.pipeline.engine.RoundIntake._on_backend_event` to
``ShardedNetwork.observers`` that the pipeline subscribes to
``GriphonController.observers``, and the same
:func:`repro.api.classify_record` types its outcomes.  The frontend is
therefore deployment-agnostic, and the differential test drives it
against both twin modes expecting identical outcome streams.

The intake is equally agnostic to the network's *planning* backend: a
``ShardedNetwork(backend="pool")`` drives its placement rounds through
the persistent worker processes of :class:`repro.shard.workers.
ShardWorkerPool` with byte-identical typed outcomes —
``tests/test_shard_pool_differential.py`` pins the equivalence through
this adapter.
"""

from __future__ import annotations

from typing import List

from repro.core.connection import ConnectionState
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.pipeline.engine import OrderTicket, RoundIntake, TicketState
from repro.shard.network import ShardedNetwork, ShardOrder


class ShardIntake(RoundIntake):
    """Bounded, round-batched order intake over a :class:`ShardedNetwork`.

    Everything about how orders wait is :class:`~repro.pipeline.engine.
    RoundIntake`; a round here is one
    :meth:`~repro.shard.network.ShardedNetwork.place_orders` call (so
    the round shares planning overlays exactly like a pipeline round
    shares its batch plan).  An order's ``kind`` is accepted for
    contract compatibility but ignored — the sharded planner realizes
    every order as wavelengths — and nothing is ever deferred.

    Args:
        network: The sharded (or monolithic-twin) network to order on.
        capacity: Bounded queue size; beyond it submissions settle
            QUEUE_FULL immediately.
        round_size: Maximum orders placed per round.
        round_interval: Sim seconds between rounds while the queue is
            non-empty.
    """

    def __init__(
        self,
        network: ShardedNetwork,
        capacity: int = 256,
        round_size: int = 8,
        round_interval: float = 0.0,
    ) -> None:
        #: The ``pipeline.*`` counters of this intake (the network keeps
        #: no registry of its own; each unit controller has one).
        self.metrics = MetricsRegistry()
        super().__init__(
            network.sim,
            self.metrics,
            Tracer(network.sim.time_source()),
            capacity,
            round_size,
            round_interval,
        )
        self.network = network
        network.observers.append(self._on_backend_event)

    def _record(self, ticket: OrderTicket) -> ShardOrder:
        return self.network.orders[ticket.connection_id]

    def _release(self, ticket: OrderTicket) -> None:
        self.network.teardown_order(self._record(ticket))

    def _place(self, batch: List[OrderTicket]) -> None:
        """Place one round's orders as one network round."""
        orders = self.network.place_orders(
            [
                (t.customer, t.premises_a, t.premises_b, t.rate_bps)
                for t in batch
            ]
        )
        for ticket, order in zip(batch, orders):
            blocked = order.state is ConnectionState.BLOCKED
            self._settle(
                ticket,
                TicketState.BLOCKED if blocked else TicketState.ACCEPTED,
                order.connection_id,
                order.blocked_reason,
            )
