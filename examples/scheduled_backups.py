#!/usr/bin/env python
"""Scheduled nightly backups with advance reservations.

Three cloud providers book the *same* pool of transponders for
staggered two-hour backup windows.  The reservation book admits all of
them (their windows don't overlap), activates each connection a couple
of minutes before its window so the ~1 minute setup is done in time,
and releases the capacity at window close — classic calendar-based
bandwidth on demand.

Run:
    python examples/scheduled_backups.py
"""

from repro import build_griphon_testbed
from repro.core.calendar import ReservationBook, ReservationState
from repro.core.gui import render_reservations
from repro.units import HOUR, format_duration


def main() -> None:
    # A deliberately small pool: 4 x 10G transponders per node.
    net = build_griphon_testbed(
        seed=5, ots_per_node_10g=4, nte_interfaces=12
    )
    book = ReservationBook(net.controller)

    windows = {
        "alpha-cloud": (1 * HOUR, 3 * HOUR),
        "beta-storage": (3 * HOUR, 5 * HOUR),
        "gamma-cdn": (5 * HOUR, 7 * HOUR),
    }
    for customer, (start, end) in windows.items():
        net.service_for(customer, max_connections=16)
        for _ in range(4):  # each wants the whole pool for its window
            book.book(customer, "PREMISES-A", "PREMISES-C", 10, start, end)
        print(
            f"{customer}: booked 4 x 10G for "
            f"{format_duration(start)} - {format_duration(end)}"
        )

    # A conflicting booking is refused at *booking* time, not at 3 am.
    try:
        book.book("alpha-cloud", "PREMISES-A", "PREMISES-C", 10,
                  1.5 * HOUR, 2.5 * HOUR)
    except Exception as exc:  # AdmissionError
        print(f"\noverlapping 5th booking refused: {exc}")

    # A booking canceled before its window opens never claims anything.
    spare = book.book("gamma-cdn", "PREMISES-A", "PREMISES-C", 10, 8 * HOUR, 9 * HOUR)
    book.cancel(spare.reservation_id)
    print(f"gamma-cdn canceled {spare.reservation_id} before its window")

    net.run()
    print()
    for customer in windows:
        done = [
            r
            for r in book.reservations(customer)
            if r.state is ReservationState.COMPLETED
        ]
        setups = [r.connection.setup_duration for r in done]
        print(
            f"{customer}: {len(done)}/4 windows served, setup "
            f"{format_duration(max(setups))} each (hidden by the "
            "activation lead)"
        )
    print()
    print(render_reservations(book, "gamma-cdn"))
    print()
    print(
        "12 backup windows served by a pool that holds only 4 concurrent "
        "10G connections."
    )


if __name__ == "__main__":
    main()
