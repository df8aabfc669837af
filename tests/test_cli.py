"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


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
        from repro.slo import SloPolicy
        from repro.slo.bench import run_slo_trial

        # One margin policy at half the default threshold, no global
        # alerts: breaches come later, so more violation minutes accrue.
        policy = SloPolicy(name="osnr-margin", threshold=1.0)
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(json.dumps([policy.to_dict()]))
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
