"""Unit tests for the resilience primitives.

Covers the retry-policy backoff math, the circuit-breaker state machine
(closed -> open -> half-open), fault-spec validation and matching, the
fault plan's deterministic dice, and the resilient executor's
retry/exhaustion/best-effort/breaker behavior.
"""


import pytest

from repro.errors import (
    CommandFailedError,
    ConfigurationError,
)
from repro.faults.plan import FAULT_MODES, FaultPlan, FaultSpec
from repro.faults.resilient import (
    CircuitBreaker,
    ResilientExecutor,
    RetryPolicy,
)
from repro.obs.registry import MetricsRegistry
from repro.sim.randomness import RandomStreams


def as_dict(spec):
    """A spec's plain-dict form: each constructor argument by name."""
    return {name: getattr(spec, name) for name in spec._fields}


def drain(gen):
    """Run a generator to completion; returns (yields, return value)."""
    yields = []
    while True:
        try:
            yields.append(next(gen))
        except StopIteration as stop:
            return yields, stop.value


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0, jitter=0.0)
        assert policy.backoff_delay(1) == 1.0
        assert policy.backoff_delay(2) == 2.0
        assert policy.backoff_delay(3) == 4.0

    def test_backoff_is_capped(self):
        policy = RetryPolicy(
            backoff_base_s=1.0, backoff_factor=2.0, backoff_max_s=5.0, jitter=0.0
        )
        assert policy.backoff_delay(4) == 5.0
        assert policy.backoff_delay(10) == 5.0

    def test_jitter_stretches_by_roll(self):
        policy = RetryPolicy(backoff_base_s=2.0, backoff_factor=2.0, jitter=0.2)
        assert policy.backoff_delay(1, jitter_roll=0.0) == 2.0
        assert policy.backoff_delay(1, jitter_roll=0.5) == pytest.approx(2.2)
        assert policy.backoff_delay(1, jitter_roll=1.0) == pytest.approx(2.4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(breaker_threshold=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(breaker_cooldown_s=0.0)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=60.0)
        assert breaker.state == "closed"
        assert breaker.allow(0.0)
        assert breaker.retry_after(0.0) == 0.0

    def test_opens_at_threshold(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=60.0)
        assert breaker.record_failure(10.0) is False
        assert breaker.state == "closed"
        assert breaker.record_failure(10.0) is True
        assert breaker.state == "open"
        assert not breaker.allow(10.0)
        assert breaker.retry_after(30.0) == pytest.approx(40.0)

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=60.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(59.0)
        assert breaker.allow(60.0)
        assert breaker.state == "half_open"

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=60.0)
        breaker.record_failure(0.0)
        breaker.allow(60.0)
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=60.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == "open"
        breaker.allow(60.0)
        assert breaker.state == "half_open"
        # One failed probe re-opens regardless of the threshold.
        assert breaker.record_failure(60.0) is True
        assert breaker.state == "open"
        assert breaker.retry_after(60.0) == pytest.approx(60.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=0.0)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(mode="explode")
        with pytest.raises(ConfigurationError):
            FaultSpec(probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(count=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(error_after_s=-1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(after_s=100.0, until_s=50.0)

    def test_all_modes_are_constructible(self):
        for mode in FAULT_MODES:
            assert FaultSpec(mode=mode).mode == mode

    def test_matching_uses_wildcards(self):
        spec = FaultSpec(ems="roadm_*", element="ROADM-I*", command="tune")
        assert spec.matches("roadm_ems", "ROADM-II", "tune", 0.0)
        assert not spec.matches("otn_ems", "ROADM-II", "tune", 0.0)
        assert not spec.matches("roadm_ems", "OTN-II", "tune", 0.0)
        assert not spec.matches("roadm_ems", "ROADM-II", "roadm", 0.0)

    def test_matching_respects_time_window(self):
        spec = FaultSpec(after_s=100.0, until_s=200.0)
        assert not spec.matches("roadm_ems", "x", "tune", 99.9)
        assert spec.matches("roadm_ems", "x", "tune", 100.0)
        assert not spec.matches("roadm_ems", "x", "tune", 200.0)

    def test_dict_roundtrip(self):
        spec = FaultSpec(ems="otn_ems", mode="timeout", count=3, after_s=10.0)
        assert FaultSpec.from_dict(as_dict(spec)) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict({"ems": "*", "severity": "high"})


class TestFaultPlan:
    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not FaultPlan([FaultSpec()]).empty

    def test_count_exhaustion_empties_the_plan(self):
        plan = FaultPlan([FaultSpec(count=1)])
        assert not plan.empty
        assert plan.decide("roadm_ems", "x", "tune", 0.0) is not None
        assert plan.empty
        assert plan.decide("roadm_ems", "x", "tune", 0.0) is None
        assert plan.injected_counts == [1]

    def test_a_plan_closes_with_its_last_live_window(self):
        plan = FaultPlan([
            FaultSpec(count=1, until_s=50.0),
            FaultSpec(after_s=10.0, until_s=20.0),
        ])
        assert not plan.closed(19.0) and not plan.closed(20.0)
        assert plan.decide("roadm_ems", "x", "tune", 0.0) is not None
        # The counted rule is spent: only the 10-20 s window is left.
        assert not plan.closed(19.0) and plan.closed(20.0)
        assert not plan.empty
        assert FaultPlan().closed(0.0)
        assert not FaultPlan([FaultSpec(until_s=5.0), FaultSpec()]).closed(1e9)

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [FaultSpec(command="tune", mode="timeout"), FaultSpec(mode="fail")]
        )
        decided = plan.decide("roadm_ems", "x", "tune", 0.0)
        assert decided is not None and decided.mode == "timeout"
        assert plan.injected_counts == [1, 0]

    def test_inactive_window_does_not_consume(self):
        plan = FaultPlan([FaultSpec(count=1, after_s=100.0)])
        assert plan.decide("roadm_ems", "x", "tune", 50.0) is None
        assert plan.injected_counts == [0]
        assert plan.decide("roadm_ems", "x", "tune", 150.0) is not None

    def test_probability_draws_are_deterministic(self):
        def decisions(seed):
            plan = FaultPlan([FaultSpec(probability=0.5)])
            plan.bind(RandomStreams(seed))
            return [
                plan.decide("roadm_ems", "ROADM-I", "tune", 0.0) is not None
                for _ in range(64)
            ]

        run = decisions(42)
        assert run == decisions(42)
        assert True in run and False in run

    def test_probabilistic_rules_require_binding(self):
        plan = FaultPlan([FaultSpec(probability=0.5)])
        with pytest.raises(ConfigurationError):
            plan.decide("roadm_ems", "x", "tune", 0.0)

    def test_dict_roundtrip(self):
        plan = FaultPlan([FaultSpec(mode="stuck"), FaultSpec(count=2)])
        rebuilt = FaultPlan.from_dict(
            {"specs": [as_dict(spec) for spec in plan.specs]}
        )
        assert rebuilt.specs == plan.specs


def executor(plan=None, policy=None, clock=None, seed=0):
    """A wired executor plus its metrics registry."""
    metrics = MetricsRegistry()
    streams = RandomStreams(seed).spawn("resilient")
    return (
        ResilientExecutor(
            plan,
            policy,
            streams=streams,
            clock=clock if clock is not None else (lambda: 0.0),
            metrics=metrics,
        ),
        metrics,
    )


class TestResilientExecutor:
    def test_empty_plan_is_pure_passthrough(self):
        runner, metrics = executor(FaultPlan())
        yields, total = drain(
            runner.execute("roadm_ems", "ROADM-I", "tune", 7.5)
        )
        assert yields == [7.5]
        assert total == 7.5
        assert metrics.counters() == {}

    def test_exhausted_plan_reverts_to_passthrough(self):
        plan = FaultPlan([FaultSpec(count=1, error_after_s=0.0)])
        policy = RetryPolicy(jitter=0.0)
        runner, _ = executor(plan, policy)
        drain(runner.execute("roadm_ems", "ROADM-I", "tune", 3.0))
        yields, total = drain(
            runner.execute("roadm_ems", "ROADM-I", "tune", 3.0)
        )
        assert yields == [3.0] and total == 3.0

    def test_transient_fault_is_retried_to_success(self):
        plan = FaultPlan([FaultSpec(count=1, mode="transient", error_after_s=0.5)])
        policy = RetryPolicy(backoff_base_s=1.0, jitter=0.0)
        runner, metrics = executor(plan, policy)
        yields, total = drain(
            runner.execute("roadm_ems", "ROADM-I", "tune", 3.0)
        )
        # error cost, one backoff, then the command's nominal duration.
        assert yields == [0.5, 1.0, 3.0]
        assert total == pytest.approx(4.5)
        counters = metrics.counters()
        assert counters["ems.retry"] == 1
        assert counters["ems.retry.roadm_ems"] == 1
        assert counters["faults.injected.transient"] == 1
        assert "ems.command.failed" not in counters
        assert runner.breaker_state("roadm_ems") == "closed"

    def test_timeout_fault_burns_the_full_timeout(self):
        plan = FaultPlan([FaultSpec(count=1, mode="timeout")])
        policy = RetryPolicy(timeout_s=30.0, backoff_base_s=1.0, jitter=0.0)
        runner, _ = executor(plan, policy)
        yields, _ = drain(runner.execute("otn_ems", "OTN-I", "crossconnect", 2.0))
        assert yields[0] == 30.0

    def test_exhaustion_raises_with_attempt_count(self):
        plan = FaultPlan([FaultSpec(mode="transient", error_after_s=0.5)])
        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        runner, metrics = executor(plan, policy)
        gen = runner.execute("roadm_ems", "ROADM-I", "tune", 3.0)
        with pytest.raises(CommandFailedError) as err:
            while True:
                next(gen)
        assert err.value.attempts == 3
        assert err.value.element == "ROADM-I"
        assert err.value.command == "tune"
        counters = metrics.counters()
        assert counters["ems.retry"] == 2
        assert counters["ems.command.failed.roadm_ems"] == 1

    def test_hard_fault_fails_fast_without_retries(self):
        plan = FaultPlan([FaultSpec(mode="fail", error_after_s=0.25)])
        runner, metrics = executor(plan, RetryPolicy(jitter=0.0))
        gen = runner.execute("fxc_ctl", "fxc@ROADM-I", "fxc", 1.0)
        with pytest.raises(CommandFailedError) as err:
            while True:
                next(gen)
        assert err.value.retryable is False
        assert "ems.retry" not in metrics.counters()

    def test_best_effort_forces_through(self):
        plan = FaultPlan([FaultSpec(mode="transient", error_after_s=0.5)])
        policy = RetryPolicy(max_attempts=2, jitter=0.0)
        runner, metrics = executor(plan, policy)
        yields, total = drain(
            runner.execute(
                "roadm_ems", "ROADM-I", "roadm", 1.0, best_effort=True
            )
        )
        assert total == pytest.approx(sum(yields))
        counters = metrics.counters()
        assert counters["ems.command.forced"] == 1
        assert counters["ems.command.failed"] == 1

    def test_breaker_opens_and_rejects(self):
        plan = FaultPlan([FaultSpec(mode="transient", error_after_s=0.5)])
        policy = RetryPolicy(
            max_attempts=4,
            backoff_base_s=1.0,
            backoff_factor=2.0,
            jitter=0.0,
            breaker_threshold=2,
            breaker_cooldown_s=120.0,
        )
        runner, metrics = executor(plan, policy)
        gen = runner.execute("roadm_ems", "ROADM-I", "tune", 3.0)
        with pytest.raises(CommandFailedError):
            while True:
                next(gen)
        counters = metrics.counters()
        # Two real faults open the breaker; attempts 3 and 4 are
        # rejected fast without touching the (faulted) element.
        assert counters["faults.injected"] == 2
        assert counters["ems.breaker.open.roadm_ems"] == 1
        assert counters["ems.breaker.rejected.roadm_ems"] == 2
        assert runner.breaker_state("roadm_ems") == "open"

    def test_half_open_probe_closes_breaker(self):
        now = [0.0]
        # A probability-0 rule keeps the plan non-empty (machinery
        # active) without ever injecting.
        plan = FaultPlan(
            [
                FaultSpec(count=1, mode="transient", error_after_s=0.0),
                FaultSpec(probability=0.0),
            ]
        )
        plan.bind(RandomStreams(3))
        policy = RetryPolicy(
            max_attempts=2,
            jitter=0.0,
            breaker_threshold=1,
            breaker_cooldown_s=100.0,
        )
        runner, metrics = executor(plan, policy, clock=lambda: now[0])
        # First command: the single fault opens the breaker, the retry
        # is rejected (still open), and the command fails.
        gen = runner.execute("nte_ctl", "nte@PREMISES-A", "nte", 1.0)
        with pytest.raises(CommandFailedError):
            while True:
                next(gen)
        assert runner.breaker_state("nte_ctl") == "open"
        # Past the cooldown the next command is the half-open probe;
        # it succeeds and the breaker closes.
        now[0] = 150.0
        yields, total = drain(
            runner.execute("nte_ctl", "nte@PREMISES-A", "nte", 1.0)
        )
        assert yields == [1.0] and total == 1.0
        assert metrics.counters()["ems.breaker.half_open"] == 1
        assert runner.breaker_state("nte_ctl") == "closed"

    def test_breakers_are_per_ems(self):
        runner, _ = executor(FaultPlan([FaultSpec(probability=0.0)]))
        runner.breaker("roadm_ems").record_failure(0.0)
        assert runner.breaker_state("otn_ems") == "closed"
