#!/usr/bin/env python
"""Config-driven experiments with the scenario runner.

A scenario is plain data — timed actions against a network — so whole
experiments can live in JSON files or be generated in loops.  This
example runs "a rough Friday": an evening of orders, a fiber cut during
the busy hour, an overnight maintenance window, and morning
housekeeping, then prints the availability report.

Run:
    python examples/scenario_runner.py
"""

from repro.facade import build_griphon_testbed
from repro.scenario import Scenario, run_scenario
from repro.units import HOUR

ROUGH_FRIDAY = {
    "name": "rough-friday",
    "duration_s": 18 * HOUR,
    "events": [
        # 17:00 - the evening's connections come up.
        {"at": 0, "action": "request",
         "params": {"customer": "acme", "a": "PREMISES-A",
                    "b": "PREMISES-C", "rate_gbps": 10}},
        {"at": 60, "action": "request",
         "params": {"customer": "acme", "a": "PREMISES-A",
                    "b": "PREMISES-B", "rate_gbps": 12}},
        {"at": 120, "action": "request",
         "params": {"customer": "globex", "a": "PREMISES-B",
                    "b": "PREMISES-C", "rate_gbps": 1}},
        # 20:00 - a backhoe finds the busiest span.
        {"at": 3 * HOUR, "action": "cut",
         "params": {"a": "ROADM-I", "b": "ROADM-IV"}},
        # 23:00 - the splice crew finishes.
        {"at": 6 * HOUR, "action": "repair",
         "params": {"a": "ROADM-I", "b": "ROADM-IV"}},
        # 01:00 - planned maintenance elsewhere, behind bridge-and-roll.
        {"at": 8 * HOUR, "action": "maintenance",
         "params": {"a": "ROADM-I", "b": "ROADM-III",
                    "duration": 4 * HOUR}},
        # 07:00 - morning housekeeping.
        {"at": 14 * HOUR, "action": "regroom", "params": {}},
        {"at": 15 * HOUR, "action": "teardown", "params": {"index": 2}},
        {"at": 16 * HOUR, "action": "reclaim",
         "params": {"holding_time_s": 0}},
    ],
}


def main() -> None:
    net = build_griphon_testbed(seed=99, nte_interfaces=12)
    scenario = Scenario.from_dict(ROUGH_FRIDAY)
    result = run_scenario(net, scenario)

    print(f"scenario: {scenario.name} ({len(scenario.events)} events)\n")
    for line in result.log:
        print(line)
    if result.errors:
        print("\nerrors:")
        for error in result.errors:
            print(f"  {error}")
    print("\navailability over the night:")
    for connection_id, availability in result.availability_report().items():
        print(f"  {connection_id}: {availability:.5f}")


if __name__ == "__main__":
    main()
