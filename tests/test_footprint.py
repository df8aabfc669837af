"""A histogram keeps 8 bytes a sample and reports what a list would.

A :class:`~repro.obs.registry.MetricsRegistry` histogram keeps its
samples in an ``array('d')``; for any finite floats, through a
``state()`` JSON round trip and a ``merge``, it reports what a plain
list of the same samples gives.  (That a drained sharded run keeps no
retired child is checked by ``tests/test_no_cyclic_garbage.py``, on
the same run.)
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import summarize
from repro.obs.registry import MetricsRegistry

NAMES = st.sampled_from(["step.tune", "step.roadm", "lightpath.setup_s"])
OBSERVATIONS = st.lists(
    st.tuples(NAMES, st.floats(allow_nan=False, allow_infinity=False)),
    max_size=40,
)


def observed(observations):
    """A registry fed ``observations``, and the plain lists they make."""
    registry, reference = MetricsRegistry(), {}
    for name, value in observations:
        registry.observe(name, value)
        reference.setdefault(name, []).append(value)
    return registry, reference


def assert_reports(registry, reference):
    """``registry`` reports exactly what the lists in ``reference`` give."""
    assert registry.histograms() == sorted(reference)
    histograms = {}
    for name, samples in reference.items():
        kept = registry.samples(name)
        assert kept == samples and all(type(value) is float for value in kept)
        summary = summarize(samples)
        assert registry.summary(name) == summary
        histograms[name] = {
            "count": summary.count, "mean": summary.mean,
            "min": summary.minimum, "p50": summary.p50, "p95": summary.p95,
            "p99": summary.p99, "max": summary.maximum,
        }
    assert registry.snapshot()["histograms"] == histograms
    assert registry.state() == {"counters": {}, "samples": reference}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(first=OBSERVATIONS, second=OBSERVATIONS)
def test_histograms_report_what_a_list_of_their_samples_gives(first, second):
    registry, reference = observed(first)
    assert_reports(registry, reference)
    assert registry.samples("never.observed") == []

    copy = MetricsRegistry()
    copy.merge(json.loads(json.dumps(registry.state())))
    assert_reports(copy, reference)

    other, other_reference = observed(second)
    registry.merge(other)
    for name, samples in other_reference.items():
        reference.setdefault(name, []).extend(samples)
    assert_reports(registry, reference)
