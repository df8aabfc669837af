"""Determinism properties of the gray-failure remediation loop.

The whole detect → reroute → revert cycle must be a pure function of
the master seed: repeated runs fingerprint byte-identical, the sweep
aggregate is byte-identical at any job count, and no policy action ever
strands a lightpath (the invariant auditor runs after every action and
again over the final state).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.connection import ConnectionState
from repro.faults.audit import audit_network
from repro.slo.monitor import default_policies
from repro.slo.bench import (
    bring_up_workload,
    build_slo_network,
    default_degradation_plan,
    run_slo_trial,
)
from repro.sweep.engine import run_sweep
from repro.sweep.studies import slo_chaos_spec

#: Short replay horizon for property runs (the stock plan's first two
#: degradations both activate well inside it).
SHORT_HORIZON_S = 2400.0


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_trial_is_byte_identical_per_seed(seed):
    first = run_slo_trial(seed=seed, policy_on=True,
                          horizon_s=SHORT_HORIZON_S)
    second = run_slo_trial(seed=seed, policy_on=True,
                           horizon_s=SHORT_HORIZON_S)
    assert first == second  # fingerprint, counters, records — everything


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_reverts_never_strand_a_lightpath(seed):
    """After every policy action the auditor held, and the end state is
    whole: every connection UP, exactly one live lightpath each, no
    degradation residue on any connection the engine touched."""
    net = build_slo_network(seed)
    connections = bring_up_workload(net)
    runtime = net.enable_slo(
        plan=default_degradation_plan(),
        policies=default_policies(),
        horizon_s=SHORT_HORIZON_S,
        audit_each_action=True,
    )
    net.run()
    assert runtime.engine.audit_ok  # oracle ran after every action
    assert audit_network(net.controller).ok
    for conn in connections:
        assert conn.state is ConnectionState.UP
        assert len(conn.lightpath_ids) == 1
        assert conn.lightpath_ids[0] in net.inventory.lightpaths


def test_sweep_aggregate_identical_across_job_counts():
    spec = slo_chaos_spec(repeats=1, horizon_s=SHORT_HORIZON_S)
    single = run_sweep(spec, jobs=1)
    parallel = run_sweep(spec, jobs=2)
    assert single.to_json() == parallel.to_json()
