"""Tests for the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main

NAN = float("nan")
INF = float("inf")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "quickstart"])
        assert args.seed == 7

    def test_table2_iterations(self):
        args = build_parser().parse_args(["table2", "--iterations", "3"])
        assert args.iterations == 3


class TestCommands:
    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "setup took" in out
        assert "teardown took" in out
        assert "10 Gbps" in out

    def test_table2(self, capsys):
        assert main(["table2", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "paper mean" in out
        # Three data rows, one per hop count.
        data = [
            line
            for line in out.splitlines()
            if line.strip().startswith(("1 ", "2 ", "3 "))
        ]
        assert len(data) == 3

    def test_trace(self, capsys, tmp_path):
        out_json = tmp_path / "trace.json"
        assert main(
            ["trace", "--iterations", "1", "--json", str(out_json)]
        ) == 0
        out = capsys.readouterr().out
        # The 12G example's span tree...
        assert "12 Gbps" in out
        assert "connection.request" in out
        assert "lightpath.setup" in out
        assert "ems.tune" in out
        # ...and the per-phase Table 2 rows for 1/2/3 hops.
        assert "Table 2 phase breakdown" in out
        data = [
            line
            for line in out.splitlines()
            if line.strip().startswith(("1 ", "2 ", "3 "))
        ]
        assert len(data) == 3
        assert out_json.exists()
        import json

        spans = json.loads(out_json.read_text())
        assert any(s["name"] == "connection.request" for s in spans)

    def test_restore(self, capsys):
        assert main(["restore"]) == 0
        out = capsys.readouterr().out
        assert "restored on" in out
        assert "outage" in out

    def test_operator(self, capsys):
        assert main(["operator"]) == 0
        out = capsys.readouterr().out
        assert "Fiber plant" in out
        assert "Resource pools" in out

    def test_seed_changes_results(self, capsys):
        main(["--seed", "1", "quickstart"])
        first = capsys.readouterr().out
        main(["--seed", "2", "quickstart"])
        second = capsys.readouterr().out
        assert first != second


class TestSweepCommand:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "x9"])
        assert args.study == "x9"
        assert args.jobs == 1
        assert args.repeats == 4
        assert args.json is None

    def test_sweep_x9_writes_aggregate(self, capsys, tmp_path):
        out_json = tmp_path / "sweep.json"
        assert main(
            ["sweep", "x9", "--repeats", "1", "--json", str(out_json)]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep x9-availability" in out
        assert "auto_restore=True" in out
        import json

        aggregate = json.loads(out_json.read_text())
        assert aggregate["trial_count"] == 2
        assert not any(t["error"] for t in aggregate["trials"])

    def test_sweep_json_spec_file(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "mini",
                    "study": "availability",
                    "axes": {"auto_restore": [True]},
                    "fixed": {"horizon_s": 86400.0},
                    "repeats": 2,
                    "base_seed": 5,
                }
            )
        )
        assert main(["sweep", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep mini: 2 trial(s)" in out


class TestShardCommand:
    def test_shard_defaults(self):
        args = build_parser().parse_args(["shard"])
        assert args.regions == 4
        assert args.pops == 8
        assert args.mode == "sharded"

    def test_shard_both_modes_match(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "shard.json"
        assert main(
            [
                "--seed", "3", "shard", "--regions", "2", "--pops", "6",
                "--orders", "3", "--mode", "both", "--json", str(out_json),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fingerprints match: True" in out
        payload = json.loads(out_json.read_text())
        assert payload["sharded"]["fingerprint"] == (
            payload["monolithic"]["fingerprint"]
        )
        assert payload["sharded"]["audits_ok"]

    def test_shard_exits_2_on_a_failed_audit(self, capsys, monkeypatch):
        from repro.faults.audit import AuditViolation
        from repro.shard.network import ShardedNetwork

        audit_shards = ShardedNetwork.audit_shards

        def failing(net):
            reports = audit_shards(net)
            next(iter(reports.values())).violations.append(
                AuditViolation("planted", "resource", "", "a planted leak")
            )
            return reports

        monkeypatch.setattr(ShardedNetwork, "audit_shards", failing)
        args = ["--seed", "3", "shard", "--regions", "2", "--pops", "6",
                "--orders", "3"]
        assert main(args) == 2
        out = capsys.readouterr().out
        assert "1 violation(s)" in out
        assert "3 order(s) over 2 region(s) x 6 PoP(s), 3 up, 0 blocked" in out


class TestSloCommand:
    def test_policy_off_with_a_policy_file_is_refused_by_the_parser(
        self, capsys, tmp_path
    ):
        # The file does not exist: the refusal comes before any read.
        with pytest.raises(SystemExit) as refusal:
            build_parser().parse_args(
                ["slo", "--policy-off", "--policy", str(tmp_path / "p.json")]
            )
        assert refusal.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_policy_file_arms_the_policies_it_lists(self, tmp_path):
        from repro.slo.monitor import SloPolicy
        from repro.slo.bench import run_slo_trial

        # One margin policy at half the default threshold, no global
        # alerts: breaches come later, so more violation minutes accrue.
        policy = SloPolicy(name="osnr-margin", threshold=1.0)
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(json.dumps([dataclasses.asdict(policy)]))
        assert main(["slo", "--json", str(tmp_path / "default.json")]) == 0
        assert main([
            "slo", "--policy", str(policy_file),
            "--json", str(tmp_path / "file.json"),
        ]) == 0
        default = json.loads((tmp_path / "default.json").read_text())
        from_file = json.loads((tmp_path / "file.json").read_text())
        assert from_file["violation_minutes"] != default["violation_minutes"]
        direct = run_slo_trial(seed=0, policies=(policy,))
        assert from_file == json.loads(json.dumps(direct))


class TestBadInput:
    """Bad input gets a one-line error and exit 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--iterations", "0"],
            ["trace", "--iterations", "-1"],
            ["sweep", "x9", "--jobs", "0"],
            ["sweep", "x9", "--repeats", "0"],
            ["serve", "--tenants", "0"],
            ["chaos", "--orders", "0"],
            ["pipeline", "--round-size", "0"],
            ["shard", "--regions", "0"],
            ["optimize", "--nodes", "0"],
        ],
    )
    def test_counts_below_one_are_refused_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as refusal:
            build_parser().parse_args(argv)
        assert refusal.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--rate", "nan", "--duration", "5"],
            ["serve", "--duration", "inf"],
            ["serve", "--bucket-rate", "0"],
            ["chaos", "--rate", "nan"],
            ["chaos", "--rate=-1"],
            ["slo", "--horizon", "inf"],
            ["sweep", "x9", "--timeout", "nan"],
        ],
    )
    def test_numbers_that_are_not_finite_and_in_range_are_refused(
        self, capsys, argv
    ):
        with pytest.raises(SystemExit) as refusal:
            build_parser().parse_args(argv)
        assert refusal.value.code == 2
        assert "must be a finite number" in capsys.readouterr().err

    def test_numeric_flags_keep_their_defaults(self):
        serve = build_parser().parse_args(["serve"])
        assert (serve.rate, serve.duration, serve.bucket_rate) == (20.0, 30.0, 1.0)
        assert build_parser().parse_args(["chaos"]).rate == 0.15
        assert build_parser().parse_args(["slo"]).horizon == 7200.0
        assert build_parser().parse_args(["sweep", "x9"]).timeout == 900.0

    def test_unknown_sweep_study_names_the_known_ones(self, capsys, tmp_path):
        assert main(["sweep", str(tmp_path / "nosuch")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("griphon: error: unknown study")
        assert "x9" in err and "optimize" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chaos", "--modes", "bogus"], "unknown fault mode 'bogus'"),
            (["serve", "--rate", "0"], "arrival_rate must be > 0"),
            (["chaos", "--plan", "{missing}"], "cannot read {missing}"),
            (["sweep", "{malformed}"], "cannot read {malformed}"),
            # A misspelled top-level plan key must not mean an empty plan.
            (["chaos", "--plan", "{rules}"], "unknown FaultPlan keys: rules"),
            (["slo", "--plan", "{degradation}"],
             "unknown DegradationPlan keys: degradation"),
        ],
    )
    def test_configuration_errors_are_reported(
        self, capsys, tmp_path, argv, message
    ):
        files = {"missing": tmp_path / "none.json",
                 "malformed": tmp_path / "bad.json",
                 "rules": tmp_path / "rules.json",
                 "degradation": tmp_path / "degradation.json"}
        files["malformed"].write_text("{bad")
        files["rules"].write_text('{"rules": []}')
        files["degradation"].write_text('{"degradation": []}')
        argv = [arg.format(**files) for arg in argv]
        message = message.format(**files)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"griphon: error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, plan, message",
        [
            # JSON reads NaN, and NaN passes every "x < 0" test.
            ("chaos", {"specs": [{"error_after_s": NAN}]},
             "error_after_s must be >= 0, got nan"),
            ("chaos", {"specs": [{"after_s": NAN}]}, "after_s must be >= 0, got nan"),
            ("chaos", {"specs": [{"until_s": NAN}]},
             "until_s (nan) must be after after_s (0.0)"),
            ("chaos", {"specs": [{"count": 1.5}]},
             "count must be an integer >= 1, got 1.5"),
            ("slo", {"degradations": [{"link": "ATL=DFW", "duration_s": NAN}]},
             "duration_s must be positive, got nan"),
            ("slo", {"degradations": [{"link": "ATL=DFW", "start_s": NAN}]},
             "start_s must be >= 0, got nan"),
            # Refused when the plan is armed, even if it would start
            # after the horizon.
            ("slo", {"degradations": [{"link": "ROADM-I=ROADM-II", "start_s": 1e9}]},
             "degradation link 'ROADM-I=ROADM-II' is not in the network"),
        ],
    )
    def test_plan_files_are_checked_before_the_run(
        self, capsys, tmp_path, command, plan, message
    ):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert main([command, "--plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"griphon: error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, plan, message",
        [
            ("slo", {"degradations": [{"link": "ATL=DFW", "duration_s": INF}]},
             "duration_s must be finite, got inf"),
            ("chaos", {"specs": [{"until_s": INF}]},
             "until_s must be finite, got inf"),
        ],
    )
    def test_a_plan_that_never_ends_is_refused(
        self, tmp_path, command, plan, message
    ):
        # Run apart and bounded: a plan let through never ends.
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "repro", command, "--plan", str(path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert done.returncode == 2
        assert done.stderr == f"griphon: error: {message}\n"

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["chaos", "--plan"], "[]", "the top level must be a JSON object"),
            (["slo", "--plan"], '[{"link": "ATL=DFW"}]',
             "the top level must be a JSON object"),
            (["slo", "--policy"], '{"name": "osnr-margin"}',
             "the top level must be a JSON array"),
            (["sweep"], '[{"name": "x"}]', "the top level must be a JSON object"),
            (["sweep"], '{"name": "x", "study": "chaos", "repeats": NaN}',
             "sweep spec repeats must be an integer, got nan"),
            (["sweep"], '{"name": "x", "study": "chaos", "repeats": Infinity}',
             "sweep spec repeats must be an integer, got inf"),
        ],
    )
    def test_json_files_of_the_wrong_shape_are_refused(
        self, capsys, tmp_path, argv, content, message
    ):
        path = tmp_path / "input.json"
        path.write_text(content)
        assert main(argv + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("griphon: error: ")
        assert message in err and err.count("\n") == 1
