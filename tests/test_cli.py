"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "32.00 GB/s" in out
        assert "6.4 Gb/s" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "95.1%" in out

    def test_table1_custom_sizes(self, capsys):
        assert main(["table1", "--sizes", "1024"]) == 0
        assert "1024x1024" in capsys.readouterr().out

    def test_describe_memory(self, capsys):
        assert main(["describe-memory"]) == 0
        out = capsys.readouterr().out
        assert "16 vaults" in out
        assert "80.00 GB/s" in out

    def test_kernel(self, capsys):
        assert main(["kernel", "--sizes", "2048"]) == 0
        out = capsys.readouterr().out
        assert "2048-point" in out
        assert "32.00 GB/s" in out

    def test_geometry(self, capsys):
        assert main(["geometry", "--sizes", "2048"]) == 0
        out = capsys.readouterr().out
        assert "w=2 h=16" in out
        assert "same_bank" in out

    def test_geometry_n_v(self, capsys):
        assert main(["geometry", "--sizes", "2048", "--n-v", "2"]) == 0
        assert "h=32" in capsys.readouterr().out

    def test_simulate_small(self, capsys):
        assert main(["simulate", "--sizes", "256", "--max-requests", "32768"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "optimized" in out


class TestPlanCommand:
    def test_plan_fft2d(self, capsys):
        assert main(["plan", "--sizes", "256", "--max-requests", "16384"]) == 0
        out = capsys.readouterr().out
        assert "layout plan" in out
        assert "block-ddl" in out

    def test_plan_transpose(self, capsys):
        assert main(
            ["plan", "--sizes", "256", "--kernel", "transpose",
             "--max-requests", "16384"]
        ) == 0
        out = capsys.readouterr().out
        assert "source: row-major" in out

    def test_plan_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--kernel", "sorting"])


class TestEnergyCommand:
    def test_energy_reports_ratio(self, capsys):
        assert main(["energy", "--sizes", "1024", "--max-requests", "16384"]) == 0
        out = capsys.readouterr().out
        assert "baseline:" in out
        assert "ratio" in out


class TestReproduceCommand:
    def test_report_to_stdout(self, capsys):
        assert main(
            ["reproduce", "--sizes", "512", "--max-requests", "16384"]
        ) == 0
        out = capsys.readouterr().out
        assert "# Reproduction report" in out
        assert "Table 1" in out and "Table 2" in out
        assert "Eq.1" in out
        assert "Energy ratio" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        assert main(
            ["reproduce", "--sizes", "512", "--max-requests", "16384",
             "--out", str(target)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        assert "# Reproduction report" in target.read_text()

    def test_paper_sizes_include_reference_column(self, capsys):
        assert main(
            ["reproduce", "--sizes", "2048", "--max-requests", "16384"]
        ) == 0
        out = capsys.readouterr().out
        assert "6.4 Gb/s / 32.0 GB/s" in out
        assert "95.1%" in out


class TestNewCommands:
    def test_fft3d(self, capsys):
        assert main(["fft3d", "--sizes", "256"]) == 0
        out = capsys.readouterr().out
        assert "256^3" in out and "%" in out

    def test_timeline(self, capsys):
        assert main(
            ["timeline", "--sizes", "512", "--max-requests", "8192"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "optimized" in out

    def test_validate(self, capsys):
        assert main(
            ["validate", "--sizes", "512", "--max-requests", "16384"]
        ) == 0
        assert "max error" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_summary_and_tables(self, capsys):
        assert main(
            ["trace", "--size", "512", "--max-requests", "8192"]
        ) == 0
        out = capsys.readouterr().out
        assert "ddl column phase (per_vault)" in out
        assert "ACTIVATE" in out
        assert "row-hit rate" in out

    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        import json

        target = tmp_path / "trace.json"
        assert main(
            ["trace", "--size", "512", "--max-requests", "8192",
             "--out", str(target)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(target.read_text())
        assert doc["otherData"]["layout"] == "ddl"
        activates = [
            e for e in doc["traceEvents"] if e.get("name") == "ACTIVATE"
        ]
        assert activates

    def test_trace_activate_count_matches_stats(self, tmp_path):
        """Acceptance: ACTIVATE slices == AccessStats.row_activations."""
        import json

        from repro.cli import _instrumented_column_run

        target = tmp_path / "trace.json"
        assert main(
            ["trace", "--size", "512", "--layout", "ddl",
             "--max-requests", "8192", "--out", str(target)]
        ) == 0
        doc = json.loads(target.read_text())
        activates = [
            e for e in doc["traceEvents"] if e.get("name") == "ACTIVATE"
        ]
        _, _, stats, _, _ = _instrumented_column_run(512, "ddl", 8192)
        assert len(activates) == stats.row_activations

    def test_trace_row_major_layout(self, capsys):
        assert main(
            ["trace", "--size", "512", "--layout", "row-major",
             "--max-requests", "4096"]
        ) == 0
        out = capsys.readouterr().out
        assert "row-major column phase (in_order)" in out

    def test_trace_discipline_override(self, capsys):
        assert main(
            ["trace", "--size", "512", "--layout", "row-major",
             "--discipline", "per_vault", "--max-requests", "4096"]
        ) == 0
        assert "(per_vault)" in capsys.readouterr().out

    def test_trace_metrics_flag(self, capsys):
        assert main(
            ["trace", "--size", "512", "--max-requests", "4096", "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "`events.row_hit`" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--size", "512"],
            ["energy", "--sizes", "512"],
            ["timeline", "--sizes", "512"],
            ["simulate", "--sizes", "256"],
            ["faults", "--size", "256"],
        ],
    )
    def test_zero_request_cap_is_rejected(self, capsys, argv):
        assert main([*argv, "--max-requests", "0"]) == 2
        captured = capsys.readouterr()
        assert "max_requests must be positive" in captured.err
        assert captured.out == ""

    def test_simulate_metrics_flag(self, capsys):
        assert main(
            ["simulate", "--sizes", "256", "--max-requests", "16384",
             "--metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "Column-phase metrics" in out
        assert "`memory.bandwidth_gbps`" in out


class TestFaultsCommand:
    def test_markdown_report(self, capsys):
        assert main(["faults", "--size", "256", "--max-requests", "8192"]) == 0
        out = capsys.readouterr().out
        assert "Fault degradation report" in out
        assert "| block-ddl |" in out
        for plan in ("vault-failure", "latency-jitter", "refresh-storm",
                     "thermal-throttle", "bit-errors"):
            assert plan in out

    def test_json_report_is_deterministic(self, capsys):
        argv = ["faults", "--size", "256", "--max-requests", "8192", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        import json

        report = json.loads(first)
        assert set(report["layouts"]) == {"row-major", "column-major",
                                          "block-ddl"}

    def test_plan_spec_file(self, capsys, tmp_path):
        import json

        spec = tmp_path / "plan.json"
        spec.write_text(json.dumps({
            "name": "two-dead",
            "injectors": [{"kind": "vault-failure", "dead_vaults": [0, 1]}],
        }))
        target = tmp_path / "report.md"
        assert main(["faults", "--size", "256", "--max-requests", "8192",
                     "--plan", str(spec), "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert "two-dead" in target.read_text(encoding="utf-8")


class TestBundleCommand:
    def saved_bundle(self, tmp_path):
        from repro.obs.flight import FlightRecorder

        recorder = FlightRecorder(out_dir=str(tmp_path))
        recorder.register("status", lambda: {"state": "serving"})
        recorder.register(
            "logs", lambda: {"records": [], "dropped": 0}
        )
        return recorder.dump("quarantine", trace_id="ab" * 16)

    def test_inspect_renders_a_saved_bundle(self, tmp_path, capsys):
        path = self.saved_bundle(tmp_path)
        assert main(["bundle", "--inspect", path]) == 0
        out = capsys.readouterr().out
        assert "flight bundle (repro-flight/v1)" in out
        assert "trigger:  quarantine" in out
        assert "ab" * 16 in out

    def test_inspect_missing_file_exits_2(self, capsys):
        assert main(["bundle", "--inspect", "/nonexistent/flight.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro bundle: error:")

    def test_inspect_invalid_bundle_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "flight-bad.json"
        bad.write_text('{"schema": "repro-flight/v1"}', encoding="utf-8")
        assert main(["bundle", "--inspect", str(bad)]) == 2
        assert "missing keys" in capsys.readouterr().err

    def test_fetch_writes_and_shows_a_live_bundle(self, tmp_path, capsys, monkeypatch):
        from repro.obs.flight import FlightRecorder, load_flight_bundle
        from repro.serve import PlanServer, PlanService

        monkeypatch.chdir(tmp_path)
        recorder = FlightRecorder(out_dir=str(tmp_path))
        service = PlanService(jobs=1, recorder=recorder)
        with service, PlanServer(service) as server:
            assert main(["bundle", "--url", server.url, "--show"]) == 0
        out = capsys.readouterr().out
        assert "wrote flight-on-demand.json" in out
        assert "trigger:  on-demand" in out
        bundle = load_flight_bundle(str(tmp_path / "flight-on-demand.json"))
        assert bundle["trigger"] == "on-demand"

    def test_fetch_unreachable_url_exits_2(self, capsys):
        assert main(
            ["bundle", "--url", "http://127.0.0.1:9", "--timeout", "0.5"]
        ) == 2
        assert "cannot fetch" in capsys.readouterr().err


class TestExitCodeDiscipline:
    """Every ReproError becomes a one-line stderr message and exit 2."""

    def test_missing_fault_plan_exits_2(self, capsys):
        assert main(["faults", "--plan", "/nonexistent/plan.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro faults: error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_sweep_spec_exits_2(self, capsys):
        assert main(["sweep", "--spec", "/nonexistent/grid.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro sweep: error:")

    def test_invalid_grid_exits_2(self, capsys):
        assert main(["sweep", "--sizes", "128", "--layouts", "ddl",
                     "--heights", "24", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "row buffer" in err

    def test_debug_reraises(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["--debug", "sweep", "--spec", "/nonexistent/grid.json"])


class TestResilientSweepCli:
    def test_chaos_failure_quarantined_exit_0(self, capsys):
        # The CI fault-injection smoke: one injected worker failure must
        # not break the run -- healthy points report, the failure lands
        # in the quarantine section, exit code stays 0.
        assert main([
            "sweep", "--sizes", "128", "--layouts", "row-major", "ddl",
            "--no-cache", "--max-requests", "4096",
            "--chaos-fail", "0", "--retries", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 FAILED" in out
        assert "quarantined" in out
        assert "SweepExecutionError" in out

    def test_rerun_on_one_cache_dir_resumes(self, capsys, tmp_path):
        argv = ["sweep", "--sizes", "128", "--layouts", "row-major", "ddl",
                "--heights", "2", "4", "--cache-dir", str(tmp_path),
                "--max-requests", "4096"]
        # The first run loses point 0; the rerun computes only that one.
        assert main(argv + ["--chaos-fail", "0"]) == 0
        assert "1 FAILED" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 simulated" in out
        assert "2 from cache" in out
        assert "FAILED" not in out


class TestGoldenOutputs:
    """Exact-text regression locks on the paper tables."""

    def test_table1_golden(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        for line_fragment in (
            "Throughput of column-wise FFT (Baseline)",
            "6.4 Gb/s |    3.2 Gb/s |    3.2 Gb/s",
            "1.00% |       0.50% |       0.50%",
            "32.00 GB/s |  25.60 GB/s |  23.04 GB/s",
            "40.0% |       32.0% |       28.8%",
        ):
            assert line_fragment in out, line_fragment

    def test_table2_golden(self, capsys):
        main(["table2"])
        out = capsys.readouterr().out
        for fragment in ("95.1%", "96.9%", "96.6%", "       16 |", "        1 |"):
            assert fragment in out, fragment

    def test_geometry_golden(self, capsys):
        main(["geometry"])
        out = capsys.readouterr().out
        assert out.count("w=2 h=16 (raw h=12.50, regime=same_bank)") == 3


class TestReportCommand:
    def test_html_report_written(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "report.html"
        assert main([
            "report", "--html", "--out", str(out_path),
            "--size", "64", "--max-requests", "512", "--no-faults",
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        text = out_path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "Sweep telemetry" in text

    def test_no_sweep_skips_timeline_section(self, capsys, tmp_path):
        out_path = tmp_path / "report.html"
        assert main([
            "report", "--out", str(out_path), "--size", "64",
            "--max-requests", "512", "--no-faults", "--no-sweep",
        ]) == 0
        capsys.readouterr()
        assert "Sweep telemetry" not in out_path.read_text()


class TestProfileFlag:
    def test_profile_prints_table_and_writes_folded(
        self, capsys, tmp_path
    ):
        folded = tmp_path / "profile.folded"
        assert main([
            "--profile", "400", "--profile-out", str(folded),
            "simulate", "--sizes", "128", "--max-requests", "2048",
        ]) == 0
        captured = capsys.readouterr()
        assert "GB/s" in captured.out
        assert "stack samples" in captured.err or (
            "(no samples collected)" in captured.err
        )
        assert folded.exists()
