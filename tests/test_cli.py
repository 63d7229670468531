"""Tests for the command-line interface (repro.__main__)."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--machine", "cm5"])

    def test_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.machine == "t3d"
        assert args.x == "1" and args.y == "64"


def _exit_code(argv):
    """``main``'s exit code, counting argparse's ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestBadFlags:
    @pytest.mark.parametrize("command, code", [
        # Sizes and counts are positive integers: argparse usage errors.
        ("trace --bytes 0", 2),
        ("measure --bytes 0", 2),
        ("measure --bytes -5", 2),
        ("faults --bytes 0", 2),
        ("trace --step shift --nodes 0", 2),
        ("faults --step shift --nodes 0", 2),
        ("verify --nodes 0", 2),
        ("advise --nodes 0", 2),
        ("advise --rows 0", 2),
        ("advise --cols -1", 2),
        ("advise --element-words 0", 2),
        ("calibrate --words 0", 2),
        # A step needs two nodes; a load run a finite duration.
        ("trace --step shift --nodes 1", 1),
        ("faults --step shift --nodes 1", 1),
        ("load --duration nan", 1),
        # Non-finite numbers fail every field bound and multiplier check.
        ("load --rate-x nan", 1),
        ("load --rate-x inf", 1),
        ("load --latency-curve 1,nan", 1),
        ("load --profile closed --rate-x nan", 1),
        ("load --profile closed --latency-curve 1,inf", 1),
        ("load --deadline-us nan", 1),
        ("load --admission token-bucket --token-rate nan", 1),
    ])
    def test_fails_without_traceback(self, command, code, capsys):
        assert _exit_code(command.split()) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(
            "error: " if code == 1 else "python -m repro"
        )

    @pytest.mark.parametrize("command, payload, field", [
        ("faults --step all-to-all --nodes 4 --plan",
         {"nodes": [{"node": 1, "slowdown": float("nan")}]},
         "fault plan.nodes[0].slowdown: is not finite"),
        ("sweep --spec", {"seeds": [3, 3], "sizes": [4096, 4096]},
         "sweep spec.sizes: has duplicate items [4096]"),
        ("sweep --spec", {"seeds": [3, 3], "sizes": [4096, 4096]},
         "sweep spec.seeds: has duplicate items [3]"),
    ])
    def test_bad_input_file_names_its_field(
        self, command, payload, field, tmp_path, capsys
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert _exit_code(command.split() + [str(path)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert field in lines[0]

    def test_every_step_command_takes_the_same_names(self):
        parser = build_parser()
        for command in ("verify", "trace", "faults"):
            args = parser.parse_args([command, "--step", "fan-in"])
            assert args.step == "fan-in"


class TestCommands:
    def test_machines(self, capsys):
        main(["machines"])
        out = capsys.readouterr().out
        assert "Cray T3D" in out
        assert "Intel Paragon" in out
        assert "chained" in out

    def test_estimate(self, capsys):
        main(["estimate", "--machine", "t3d", "--x", "1", "--y", "64"])
        out = capsys.readouterr().out
        assert "1Q64" in out
        assert "-> use chained" in out

    def test_estimate_verbose_shows_breakdown(self, capsys):
        main(["estimate", "--verbose"])
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_measure(self, capsys):
        main(
            ["measure", "--machine", "t3d", "--x", "w", "--y", "w",
             "--bytes", "32768", "--style", "chained"]
        )
        out = capsys.readouterr().out
        assert "MB/s" in out
        assert "us" in out

    def test_table_prints_entries(self, capsys):
        main(["table", "--machine", "paragon"])
        out = capsys.readouterr().out
        assert "1F0" in out

    def test_table_json_export(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        main(["table", "--machine", "t3d", "--json", str(path)])
        payload = json.loads(path.read_text())
        assert payload["entries"]["1C1"] == 93.0

    def test_simulated_table_source(self, capsys):
        main(["table", "--machine", "t3d", "--source", "simulated"])
        out = capsys.readouterr().out
        assert "simulated" in out


class TestAdvise:
    def test_advise_t3d(self, capsys):
        main(["advise", "--machine", "t3d"])
        out = capsys.readouterr().out
        assert "'row'" in out  # T3D: strided stores
        assert "chained" in out

    def test_advise_paragon(self, capsys):
        main(["advise", "--machine", "paragon"])
        out = capsys.readouterr().out
        assert "'col'" in out  # Paragon: strided loads

    def test_advise_custom_shape(self, capsys):
        main(
            ["advise", "--machine", "t3d", "--rows", "512", "--cols", "512",
             "--nodes", "16", "--element-words", "1"]
        )
        out = capsys.readouterr().out
        assert "predicted step time" in out


class TestTrace:
    def trace(self, *extra):
        return [
            "trace", "--machine", "t3d", "--rates", "paper", *extra
        ]

    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        from repro.trace import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(self.trace("--out", str(path))) == 0
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        out = capsys.readouterr().out
        assert "phases:" in out
        assert "chrome://tracing" in out

    def test_phase_sum_matches_reported_ns(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(self.trace("--out", str(path), "--json")) == 0
        payload = json.loads(capsys.readouterr().out)
        meta = payload["metadata"]
        assert meta["phase_sum_ns"] == pytest.approx(
            meta["transfer_ns"], rel=1e-6
        )
        assert meta["machine"] == "Cray T3D"

    def test_json_round_trips_with_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(self.trace("--out", str(path), "--json")) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            path.read_text()
        )

    def test_step_mode(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(
            self.trace(
                "--out", str(path), "--step", "all-to-all",
                "--nodes", "4", "--bytes", "8192",
            )
        ) == 0
        out = capsys.readouterr().out
        assert "per node" in out
        payload = json.loads(path.read_text())
        assert payload["metadata"]["step"] == "all-to-all"
        assert payload["metrics"]["step.messages_per_node"] == 3.0

    def test_timeline_rendered(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(
            self.trace("--out", str(path), "--timeline")
        ) == 0
        out = capsys.readouterr().out
        # The timeline prints one bracketed bar per track.
        assert "network" in out
        assert "[" in out and "]" in out


class TestCalibrate:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, monkeypatch, tmp_path):
        from repro.caching import default_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        default_cache().clear()

    def test_calibrate_one_machine(self, capsys):
        assert main(["calibrate", "--machine", "t3d", "--words", "2048"]) == 0
        out = capsys.readouterr().out
        assert "Cray T3D" in out
        assert "MB/s" in out

    def test_calibrate_all_machines(self, capsys):
        assert main(["calibrate", "--words", "2048"]) == 0
        out = capsys.readouterr().out
        assert "Cray T3D" in out
        assert "Intel Paragon" in out

    def test_calibrate_no_cache_leaves_cache_cold(self, capsys, tmp_path):
        assert main(
            ["calibrate", "--machine", "t3d", "--words", "2048", "--no-cache"]
        ) == 0
        assert not list((tmp_path / "cache").rglob("*.json"))

    def test_calibrate_populates_disk_cache(self, capsys, tmp_path):
        assert main(["calibrate", "--machine", "t3d", "--words", "2048"]) == 0
        assert list((tmp_path / "cache").rglob("*.json"))

    def test_calibrate_json_export(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        assert main(
            ["calibrate", "--machine", "t3d", "--words", "2048",
             "--json", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        assert data["entries"]


class TestVerify:
    def test_clean_shift_passes(self, capsys):
        assert main(["verify", "--step", "shift"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "fault coverage: 4/4" in out

    def test_eager_fan_in_is_flagged(self, capsys):
        code = main(
            ["verify", "--step", "fan-in", "--schedule", "eager"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "CT211" in out
        assert "node0" in out

    def test_blocking_sends_shift_deadlocks(self, capsys):
        code = main(
            ["verify", "--step", "shift",
             "--discipline", "blocking-sends"]
        )
        assert code == 1
        assert "CT212" in capsys.readouterr().out

    def test_expression_race_is_flagged(self, capsys):
        assert main(["verify", "1S0 || 1S0"]) == 1
        assert "CT211" in capsys.readouterr().out

    def test_json_payload_validates(self, capsys):
        from repro.analysis import validate_verify_report

        code = main(
            ["verify", "--step", "fan-in", "--schedule", "eager",
             "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-verify-report/1"
        assert validate_verify_report(payload) == []
        assert payload["ok"] is False

    def test_transpose_plan_target(self, capsys):
        assert main(["verify", "--plan", "transpose"]) == 0
        assert "transpose" in capsys.readouterr().out

    def test_plan_file_round_trip(self, tmp_path, capsys):
        from repro.analysis.verify.examples import step_plan

        plan = step_plan("shift", 4)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert main(["verify", "--plan", str(path)]) == 0
        assert plan.from_dict(plan.to_dict()).ops == plan.ops

    @pytest.mark.parametrize("text", [
        "{not json",
        "[]",
        json.dumps({"ops": [{"src": 0, "x": "1", "y": "1", "nwords": 4}]}),
        json.dumps({"ops": [{"src": 0, "dst": "1", "x": "1", "y": "1",
                             "nwords": 4}]}),
        json.dumps({"ops": "none"}),
        json.dumps({"schema": "repro-comm-plan/0", "ops": []}),
    ])
    def test_malformed_plan_is_one_line_error(self, text, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main(["verify", "--plan", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_rules_filter_restricts_the_run(self, capsys):
        code = main(
            ["verify", "--step", "fan-in", "--schedule", "eager",
             "--rules", "CT212"]
        )
        assert code == 0  # the race rule was filtered out

    def test_machine_none_runs_structural_passes_only(self, capsys):
        assert main(["verify", "1S0 || 1S0", "--machine", "none"]) == 1
        out = capsys.readouterr().out
        assert "CT211" in out
        assert "estimate" not in out


class TestLintDeep:
    def test_deep_appends_verifier_findings(self, capsys):
        # The duplicated send is a CT102 lint error *and* a CT211
        # verifier race; --deep reports both in one run.
        assert main(["lint", "1S0 || 1S0", "--deep"]) == 1
        out = capsys.readouterr().out
        assert "CT102" in out
        assert "CT211" in out

    def test_deep_json_carries_the_lint_schema(self, capsys):
        from repro.analysis import validate_lint_report

        assert main(
            ["lint", "--machine", "t3d", "--x", "1", "--y", "64",
             "--style", "both", "--deep", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-lint-report/1"
        assert validate_lint_report(payload) == []


@pytest.mark.slow
class TestReport:
    def test_report_prints_every_section(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        for title in (
            "Table 1 (T3D)", "Table 4 (Paragon)", "Section 3.4.1",
            "Table 5", "Table 6", "== Figure 1 (T3D) ==",
            "== Figure 4 (Paragon) ==", "== Figure 7 (T3D) ==",
            "== Figure 8 (Paragon) ==",
        ):
            assert title in out
