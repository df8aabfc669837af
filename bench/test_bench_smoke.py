"""Smoke test of the benchmark itself: ``pytest bench -q`` (not tier-1).

Runs every workload at ``--scale 0.02`` on seeds 11 and 12 through the
real command line, and the traced path once, then checks the schema,
the names this benchmark promises, every correctness check, and that
attributed self time plus the kernel residual equals ``run()`` wall.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

from bench import compare
from bench.metrics import END_TO_END, NORMALISED, benchmark_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sharded-inproc", "sharded-pool", "edge-overload", "mono-churn"]
END_TO_END_NAMES = [
    "setup_s", "orders_per_s", "cpu_ms_per_order", "peak_rss_mb",
    "failed_share", "order_to_active_sim_s_p50", "order_to_active_sim_s_p99",
    "teardown_sim_s_p50", "restore_sim_s_p50", "restore_sim_s_p90",
]
#: What the benchmark driver bounds: memory and the host-speed-normalised
#: twins (its schema fixes the name ``setup_s`` for the first).  The rest
#: of the ten drift with the host, vary with the seed or are null on some
#: workload, so ``BENCHMARK.json`` lists them first under its unbounded
#: ``per_layer``.
DRIVER_BOUNDED = {"setup_s": "setup_ref_s",
                  "orders_per_ref_s": "orders_per_ref_s",
                  "cpu_ref_ms_per_order": "cpu_ref_ms_per_order",
                  "peak_rss_mb": "peak_rss_mb"}
TWINS = ["setup_ref_s", "orders_per_ref_s", "cpu_ref_ms_per_order"]


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "--scale", "0.02", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Seed 11 twice plus the traced path, seed 12 once (time budget)."""
    out = tmp_path_factory.mktemp("bench")
    results = {}
    for seed, extra in ((11, ["--repeats", "2", "--trace"]), (12, ["--repeats", "1"])):
        path = str(out / f"seed{seed}.json")
        done = bench("--seed", str(seed), "--out", path, *extra)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        with open(path) as handle:
            results[seed] = (path, json.load(handle), done.stdout)
    return results


def test_benchmark_json_schema():
    spec = benchmark_json()
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"])
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert all(sorted(w) == ["name", "why"] for w in spec["workloads"])
    assert [m.name for m in END_TO_END] == END_TO_END_NAMES
    catalogue = {m.name: m for m in END_TO_END + NORMALISED}
    assert [entry["name"] for entry in spec["end_to_end"]] == list(DRIVER_BOUNDED)
    for entry in spec["end_to_end"]:
        metric = catalogue[DRIVER_BOUNDED[entry["name"]]]
        assert entry == {"name": entry["name"], "unit": metric.unit,
                         "better": metric.better, "bound": metric.bound}
        assert 0 < entry["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(e["bound"] for e in spec["end_to_end"])} in spec["end_to_end"]
    unlisted = [n for n in END_TO_END_NAMES if n not in DRIVER_BOUNDED]
    assert [e["name"] for e in spec["per_layer"]][:len(unlisted)] == unlisted
    assert all(sorted(e) == ["better", "name", "unit"] for e in spec["per_layer"])


def test_every_workload_reports_every_metric_and_passes_every_check(outputs):
    for seed, (_, output, stdout) in outputs.items():
        assert output["correct"] is True
        assert output["settings"]["seed"] == seed
        assert sorted(output["provenance"]) == sorted(
            ["git_revision", "git_dirty", "nproc", "usable_cpus", "python",
             "platform"])
        assert list(output["workloads"]) == WORKLOADS
        for name, record in output["workloads"].items():
            assert list(record["metrics"]) == END_TO_END_NAMES + TWINS
            for metric, entry in record["metrics"].items():
                assert metric in stdout
                assert entry["clock"] in ("sim", "wall", "cpu")
                assert entry["n"] == len(entry["samples"]) == (2 if seed == 11 else 1)
                if entry["clock"] == "sim":
                    assert entry["samples"][0] == entry["samples"][-1]
                elif entry["value"] is not None:
                    assert entry["q1"] <= entry["value"] <= entry["q3"]
            assert all(record["checks"].values()), (name, record["checks"])
            for check in ("terminal_outcomes", "frontend_conservation",
                          "queues_drained", "audit_clean", "channels_free",
                          "no_child_processes", "nothing_unfinished",
                          "fingerprint_repeats", "sim_metrics_repeat"):
                assert check in record["checks"]
            assert record["failed"] == 0 < record["attempted"]
        pool = output["workloads"]["sharded-pool"]
        assert pool["checks"]["pool_equals_inproc"] is True
        assert (pool["sim_fingerprint"]
                == output["workloads"]["sharded-inproc"]["sim_fingerprint"])
    first, second = (outputs[seed][1]["workloads"] for seed in (11, 12))
    for name in WORKLOADS:
        assert first[name]["sim_fingerprint"] != second[name]["sim_fingerprint"]
    assert second["mono-churn"]["metrics"]["restore_sim_s_p50"]["value"] > 0
    assert first["sharded-pool"]["metrics"]["restore_sim_s_p50"]["value"] is None


def test_trace_attributes_the_whole_run(outputs):
    _, output, _ = outputs[11]
    per_layer = [entry["name"] for entry in benchmark_json()["per_layer"]]
    for name, record in output["workloads"].items():
        layers = record["layers"]
        assert sorted(layers) == sorted(per_layer)
        assert record["checks"]["trace_sums_to_run_wall"] is True
        assert record["checks"]["trace_same_fingerprint"] is True
        attributed = record["trace"]["attributed_wall_s"]
        residual = layers["kernel.residual_wall_s"]
        assert attributed + residual == pytest.approx(
            record["trace"]["kernel_run_wall_s"], abs=1e-6)
        assert layers["frontend.submit_calls"] == record["samples"]["submissions"]
        with open(os.path.join(ROOT, "bench", "out", f"trace-{name}.json")) as handle:
            trace = json.load(handle)
        assert trace["span_fields"] == ["name", "start", "end", "parent", "order"]
        assert len(trace["spans"]) == layers["trace.spans"]
        assert trace["spans"][0][0] == "kernel.run" or name == "sharded-pool"
    inproc, pool = (output["workloads"][n]["layers"] for n in WORKLOADS[:2])
    # The pair separates the layer it was built to separate.
    assert pool["workers.rpc_wall_s"] > 0 and pool["workers.spawn_s"] > 0
    assert pool["rwa.plan_calls"] == 0 and pool["topo.ksp_wall_s"] == 0
    assert inproc["rwa.plan_wall_s"] > 0 and inproc["topo.ksp_wall_s"] > 0
    assert inproc["workers.rpc_calls"] == 0 and inproc["workers.child_cpu_s"] == 0


def test_compare_applies_bounds_and_refuses_unequal_hosts(outputs, capsys):
    path, output, _ = outputs[12]
    assert compare.main([path, path]) == 0
    assert "sharded-pool" in capsys.readouterr().out
    rows = compare.compare(output, output)
    assert len(rows) == len(WORKLOADS) * len(END_TO_END_NAMES + TWINS)
    # Against itself nothing regresses; a wall metric whose two repeats
    # lie further apart than its bound is honestly "unresolved".
    assert {row[-1] for row in rows} <= {"ok", "unresolved"}
    clocks = {m.name: m.clock for m in END_TO_END}
    assert all(row[-1] == "ok" for row in rows if clocks.get(row[1]) == "sim")

    slower = copy.deepcopy(output)
    entry = slower["workloads"]["mono-churn"]["metrics"]["order_to_active_sim_s_p50"]
    entry["value"] *= 1.5
    verdicts = {(row[0], row[1]): row[-1] for row in compare.compare(output, slower)}
    assert verdicts[("mono-churn", "order_to_active_sim_s_p50")] == "regressed"

    noisy = copy.deepcopy(output)
    entry = noisy["workloads"]["mono-churn"]["metrics"]["orders_per_s"]
    entry["q1"], entry["q3"] = entry["value"] * 0.5, entry["value"] * 1.5
    verdicts = {(row[0], row[1]): row[-1] for row in compare.compare(output, noisy)}
    assert verdicts[("mono-churn", "orders_per_s")] == "unresolved"

    other_host = copy.deepcopy(output)
    other_host["provenance"]["usable_cpus"] += 1
    assert "usable_cpus" in compare.refusal(output, other_host)
    other_scale = copy.deepcopy(output)
    other_scale["workloads"]["mono-churn"]["params"]["orders"] += 1
    assert "parameters differ" in compare.refusal(output, other_scale)


def test_driver_calling_convention(tmp_path):
    spec = benchmark_json()
    done = bench("--workload", "edge-overload", "--seed", "12", "--repeats", "1",
                 "--seconds", "0.01", "--trace", "0",
                 "--out", str(tmp_path / "driver.json"))
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [e["name"] for e in spec["end_to_end"]]
    for entry in spec["end_to_end"]:
        value = result["metrics"][entry["name"]]
        assert value["unit"] == entry["unit"] and value["value"] > 0
