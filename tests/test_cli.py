"""Tests for the command-line tools."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import (
    batch_main,
    chaos_main,
    compile_main,
    guard_main,
    lint_main,
    metrics_main,
    report_main,
    simulate_main,
    trace_main,
)


class TestCompile:
    def test_default_prints_program(self, capsys):
        assert compile_main(["bsw"]) == 0
        out = capsys.readouterr().out
        assert "VLIW bundles/cell : 4" in out
        assert "compute program:" in out
        assert "match_score" in out

    def test_stats_only(self, capsys):
        compile_main(["lcs", "--stats-only"])
        out = capsys.readouterr().out
        assert "compute program:" not in out
        assert "CU utilization" in out

    def test_levels_study(self, capsys):
        compile_main(["chain", "--levels", "1"])
        out = capsys.readouterr().out
        assert "tree depth        : 1" in out

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            compile_main(["nope"])

    def test_stats_prints_before_after_costs(self, capsys):
        assert compile_main(["bsw", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "optimizer cost model (before -> after):" in out
        assert "bundles/cell    : 4 -> 3" in out

    def test_stats_requires_hardware_depth(self):
        with pytest.raises(SystemExit):
            compile_main(["bsw", "--stats", "--levels", "1"])


class TestLint:
    def test_all_kernels_exit_zero(self, capsys):
        assert lint_main([]) == 0
        out = capsys.readouterr().out
        assert "gendp-lint: 7 programs, 0 errors" in out

    def test_kernel_subset_and_json(self, capsys):
        assert lint_main(["--kernels", "dtw", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert [p["name"] for p in data["programs"]] == ["dtw"]

    def test_fail_on_info_trips_on_known_notes(self, capsys):
        assert lint_main(["--kernels", "bsw", "--fail-on", "info"]) == 1

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            lint_main(["--kernels", "nope"])


class TestSimulate:
    def test_lcs_simulation(self, capsys):
        assert simulate_main(["lcs"]) == 0
        out = capsys.readouterr().out
        assert "cycles/cell" in out
        assert "projected MCUPS" in out


class TestReport:
    def test_summary_report(self, capsys):
        assert report_main([]) == 0
        out = capsys.readouterr().out
        assert "Figure 10(a)" in out
        assert "Table 11" in out
        assert "Table 12" in out
        assert "headlines" in out


class TestBatch:
    def test_small_stream_validates(self, capsys):
        assert batch_main(
            ["--jobs", "9", "--kernels", "bsw,lcs", "--workers", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "job stream summary" in out
        assert "DPMap compiles      : 2" in out
        assert "[PASS]" in out

    def test_json_snapshot(self, capsys):
        assert batch_main(
            ["--jobs", "4", "--kernels", "lcs", "--workers", "0", "--json"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["cache"]["compiles"] == 1
        assert snapshot["counters"]["jobs_completed"] == 4
        assert snapshot["wall_seconds"] > 0

    def test_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "jobs.json"
        spec.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"kernel": "lcs", "payload": {"x": "ACGT", "y": "AGT"}},
                        {
                            "kernel": "lcs",
                            "payload": {"x": "TTTT", "y": "TT"},
                            "priority": 3,
                        },
                    ]
                }
            )
        )
        assert batch_main(["--spec", str(spec), "--workers", "0"]) == 0
        assert "2" in capsys.readouterr().out

    def test_empty_kernel_list_rejected(self):
        with pytest.raises(SystemExit):
            batch_main(["--kernels", ",", "--workers", "0"])

    def _failing_spec(self, tmp_path):
        # The failing job leads, so --fail-fast has later chunks to cut.
        spec = tmp_path / "jobs.json"
        spec.write_text(
            json.dumps(
                {
                    "jobs": [
                        {
                            "kernel": "lcs",
                            "payload": {
                                "x": "ACGT", "y": "AC", "_inject_fail": True,
                            },
                        },
                        {"kernel": "lcs", "payload": {"x": "ACGT", "y": "AGT"}},
                        {"kernel": "lcs", "payload": {"x": "TTTT", "y": "TT"}},
                    ]
                }
            )
        )
        return spec

    def test_nonzero_exit_when_a_job_fails(self, tmp_path, capsys):
        spec = self._failing_spec(tmp_path)
        assert batch_main(["--spec", str(spec), "--workers", "0"]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_fail_fast_stops_the_stream(self, tmp_path, capsys):
        spec = self._failing_spec(tmp_path)
        assert batch_main(
            ["--spec", str(spec), "--workers", "0", "--chunk", "1",
             "--fail-fast"]
        ) == 1
        out = capsys.readouterr().out
        assert "fail-fast           : stopped after 1/3 jobs" in out
        assert "degraded batches" in out

    def test_report_includes_reliability_lines(self, capsys):
        batch_main(["--jobs", "4", "--kernels", "lcs", "--workers", "0"])
        out = capsys.readouterr().out
        assert "degraded batches    : 0 (0 retries, 0 dead letters)" in out

    def test_metrics_out_writes_snapshot(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        assert batch_main(
            ["--jobs", "4", "--kernels", "lcs", "--workers", "0",
             "--metrics-out", str(out_path)]
        ) == 0
        capsys.readouterr()
        snapshot = json.loads(out_path.read_text())
        assert snapshot["counters"]["jobs_completed"] == 4
        for histogram in snapshot["histograms"].values():
            assert "quantiles" in histogram


class TestTrace:
    def test_writes_valid_trace(self, tmp_path, capsys):
        from repro.obs.trace import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert trace_main(
            ["--jobs", "6", "--kernels", "bsw,lcs", "--workers", "0",
             "--out", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "trace id" in out
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        names = {event["name"] for event in document["traceEvents"]}
        assert {
            "job:submit", "job:queue", "batch:compile", "batch:execute",
            "job:run", "engine:drain",
        } <= names

    def test_metrics_out_alongside_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert trace_main(
            ["--jobs", "4", "--kernels", "lcs", "--workers", "0",
             "--out", str(trace_path), "--metrics-out", str(metrics_path)]
        ) == 0
        capsys.readouterr()
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["jobs_completed"] == 4


class TestMetricsCLI:
    def _snapshot_file(self, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        batch_main(
            ["--jobs", "4", "--kernels", "lcs", "--workers", "0",
             "--metrics-out", str(path)]
        )
        capsys.readouterr()
        return path

    def test_render_prometheus(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path, capsys)
        assert metrics_main(["render", "--snapshot", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE gendp_jobs_completed_total counter" in out
        assert "gendp_jobs_completed_total 4" in out

    def test_render_json(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path, capsys)
        assert metrics_main(
            ["render", "--snapshot", str(path), "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["counters"]["jobs_completed"] == 4

    def test_serve_requires_a_source(self):
        with pytest.raises(SystemExit):
            metrics_main(["serve"])
        with pytest.raises(SystemExit):
            metrics_main(["serve", "--snapshot", "x.json", "--demo"])

    def test_serve_snapshot_for_duration(self, tmp_path, capsys):
        path = self._snapshot_file(tmp_path, capsys)
        assert metrics_main(
            ["serve", "--snapshot", str(path), "--port", "0",
             "--duration", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "serving metrics on http://127.0.0.1:" in out


class TestGracefulShutdown:
    def test_flag_latches_first_signal(self):
        import signal as _signal
        import time

        from repro.cli import _graceful_shutdown

        with _graceful_shutdown() as flag:
            assert not flag.tripped
            os.kill(os.getpid(), _signal.SIGTERM)
            deadline = time.time() + 2.0
            while not flag.tripped and time.time() < deadline:
                time.sleep(0.01)  # handlers run between bytecodes
            assert flag.tripped
            assert flag.signum == _signal.SIGTERM
        # Handlers are restored on exit.
        assert _signal.getsignal(_signal.SIGTERM) is not flag.trip

    def test_sigterm_drains_chunk_and_exits_128_plus_signum(self, tmp_path):
        import signal as _signal
        import time

        # The stream must still be running when SIGTERM lands 1.5 s in:
        # 12000 inline LCS jobs take several seconds with lowered cells,
        # while synthesizing them takes well under one.
        script = tmp_path / "stream.py"
        script.write_text(
            "import sys\n"
            "from repro.cli import batch_main\n"
            "sys.exit(batch_main(['--jobs', '12000', '--kernels', 'lcs',\n"
            "                     '--workers', '0', '--chunk', '8',\n"
            "                     '--no-validate']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        time.sleep(1.5)  # let it get into the chunk loop
        proc.send_signal(_signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 128 + _signal.SIGTERM
        assert "shutdown" in out  # the partial report still printed
        assert "Traceback" not in err


class TestChaos:
    def test_small_inline_campaign_survives(self, capsys):
        assert chaos_main(
            ["--jobs", "16", "--seed", "9", "--workers", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "gendp-chaos: seeded campaign report" in out
        assert "verdict             : SURVIVED" in out

    def test_json_report(self, capsys):
        assert chaos_main(
            ["--jobs", "16", "--seed", "9", "--workers", "0", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["survived"] is True
        assert report["lost"] == 0
        assert report["config"]["seed"] == 9

    def test_bad_rates_become_parser_errors(self):
        with pytest.raises(SystemExit):
            chaos_main(["--crash-rate", "1.5"])
        with pytest.raises(SystemExit):
            chaos_main(["--crash-rate", "0.6", "--corrupt-rate", "0.6"])

    def test_empty_kernel_list_rejected(self):
        with pytest.raises(SystemExit):
            chaos_main(["--kernels", ","])


class TestPipeSafety:
    def test_broken_pipe_exits_quietly(self, tmp_path):
        # Run a report into a consumer that hangs up after one line; the
        # wrapped entry point must neither traceback nor exit nonzero.
        script = tmp_path / "pipeline.py"
        script.write_text(
            "import sys\n"
            "from repro.cli import report_main\n"
            "sys.exit(report_main([]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.run(
            f"{sys.executable} {script} | head -1",
            shell=True,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr

    def test_broken_pipe_on_stderr_swallowed(self, tmp_path):
        # A BrokenPipeError raised while writing to stderr must also be
        # swallowed by the wrapper (argparse + warnings use stderr).
        script = tmp_path / "stderr_pipe.py"
        script.write_text(
            "from repro.cli import _pipe_safe\n"
            "@_pipe_safe\n"
            "def main(argv=None):\n"
            "    raise BrokenPipeError('stderr hung up')\n"
            "raise SystemExit(main([]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr


class TestGuard:
    def test_small_campaign_is_clean(self, capsys):
        assert guard_main(
            ["--seed", "5", "--jobs-per-kernel", "2", "--kernels", "dtw,bsw"]
        ) == 0
        out = capsys.readouterr().out
        assert "gendp-guard campaign" in out
        assert "CLEAN" in out

    def test_json_report(self, capsys):
        assert guard_main(
            ["--seed", "5", "--jobs-per-kernel", "2", "--kernels", "dtw", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert report["total_cases"] == 2
        assert report["config"]["seed"] == 5

    def test_checkpoint_resume_via_cli(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "guard.json")
        common = [
            "--seed", "5", "--jobs-per-kernel", "3",
            "--kernels", "dtw,bellman_ford",
            "--checkpoint", checkpoint, "--checkpoint-every", "1", "--json",
        ]
        assert guard_main(common + ["--max-cases", "2"]) == 0
        partial = json.loads(capsys.readouterr().out)
        assert partial["total_cases"] == 2
        assert guard_main(common) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["total_cases"] == 6 and resumed["clean"] is True

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            guard_main(["--kernels", "warp-drive"])

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(SystemExit):
            guard_main(["--jobs-per-kernel", "0"])
