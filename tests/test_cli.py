"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import FIGURES, main

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestCli:
    def test_list_is_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_list_explicit(self, capsys):
        assert main(["list"]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["rowhammer"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        for name in FIGURES:
            assert name in err

    def test_every_figure_has_an_entry(self):
        for figure in ("fig2", "fig3", "fig6", "fig7", "fig9", "fig10",
                       "fig11"):
            assert figure in FIGURES

    def test_run_fig3(self, capsys):
        # fig3 is analytic and instant — safe to execute in a unit test.
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "done in" in out

    def test_out_writes_the_committed_fig3_tables(self, tmp_path):
        # "fig3" selects fig3, fig3_ec2 and fig3_hypervisors.
        assert main(["fig3", "--out", str(tmp_path)]) == 0
        names = ["fig3.txt", "fig3_ec2.txt", "fig3_hypervisors.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (
                RESULTS / name
            ).read_bytes(), name

    def test_descriptions_are_informative(self):
        for name, figure in FIGURES.items():
            assert len(figure.description) > 10, name
            assert callable(figure.run) and callable(figure.render)

    def test_trace_unknown_scenario_fails(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "scenario name" in capsys.readouterr().err

    def test_trace_profile_prints_breakdown(self, capsys, tmp_path):
        assert main([
            "trace", "fig2", "--duration", "6",
            "--users", "50", "--profile", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "kernel profile: wall ms per sim-second" in out
        assert "peak" in out
        # The per-bin rows end with the totals line.
        assert "total" in out

    def test_trace_prints_exact_tail_from_the_log(
        self, capsys, tmp_path, monkeypatch
    ):
        import numpy as np

        from repro.experiments import runner

        runs = []
        original = runner.run_rubbos

        def run_rubbos(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(runner, "run_rubbos", run_rubbos)
        assert main([
            "trace", "fig2", "--duration", "8", "--users", "100",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        (run,) = runs
        rts = run.app.completed.column("response_time")
        assert len(rts) > 100
        p95, p99 = np.percentile(rts, [95.0, 99.0])
        line = next(
            line for line in out.splitlines()
            if line.startswith("response time:")
        )
        assert f"count={len(rts)} " in line
        assert f" p95={p95:.3f}s " in line
        assert line.endswith(f" p99={p99:.3f}s")

    def test_monitor_unknown_scenario_fails(self, capsys):
        assert main(["monitor", "nope"]) == 2
        assert "scenario name" in capsys.readouterr().err

    def test_monitor_streams_windows_and_summary(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "monitor.json"
        assert main([
            "monitor", "fig2", "--duration", "5", "--users", "80",
            "--slo", "0.5", "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        # One line per 1s window, plus the cumulative footer.
        assert out.count("[") >= 5
        assert "p99.9" in out
        assert "cumulative:" in out
        assert "traces:" in out
        assert "slo:" in out
        report = json.loads(out_json.read_text())
        assert report["windows"] == 5
        # The run's tail is the sketches' to report, not the metrics'.
        assert "e2e" in report["sketches"]
        assert "response_time" not in report["metrics"]
        assert report["experiment"] == "fig2"

    def test_monitor_hybrid_shows_bulk_queue_depths(self, capsys):
        import re

        assert main([
            "monitor", "fig2", "--users", "4000", "--duration", "3",
            "--hybrid", "--sample-fraction", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "bulk a/t/m q" in out
        rows = [
            line for line in out.splitlines()
            if re.match(r"\[\s*[\d.]+,", line)
        ]
        assert len(rows) == 3
        # The fluid.window subscription feeds every row its depth cell.
        assert all(re.search(r" \d+/\d+/\d+$", row) for row in rows)

    def test_monitor_listed_in_help(self, capsys):
        assert main(["list"]) == 0
        assert "monitor <scenario>" in capsys.readouterr().out


class TestDatacenterCli:
    """``run``/``monitor`` on multi-host scenarios: shard resolution."""

    DC_ARGS = ["--users", "60", "--duration", "2"]

    def test_shards_auto_resolves_to_cpu_count(self, capsys, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(
            ["run", "dc-2host", "--shards", "auto", *self.DC_ARGS]
        ) == 0
        out = capsys.readouterr().out
        assert "shards=1" in out

    def test_shards_auto_caps_at_host_count(self, capsys, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert main(
            ["run", "dc-2host", "--shards", "auto", *self.DC_ARGS]
        ) == 0
        out = capsys.readouterr().out
        # dc-2host has two hosts, so auto never exceeds 2 shards.
        assert "shards=2" in out
        assert "transport:" in out

    def test_run_prints_weighted_groups_and_their_window(self, capsys):
        assert main(["run", "dc-4host", "--shards", "2", *self.DC_ARGS]) == 0
        out = capsys.readouterr().out
        # Apache alone, tomcat with both replicas: only the spine link
        # crosses workers, so the window is the spine lookahead.
        assert (
            "groups: [h1:apache] | [h3:tomcat h2:mysql h4:mysql]; "
            "window=12.02ms"
        ) in out

    def test_monitor_shows_one_column_per_group(self, capsys):
        assert main(
            ["monitor", "dc-4host", "--shards", "2", *self.DC_ARGS]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if "sim time" in line)
        assert "h3:tomcat h2:mysql h4:mysql" in header
        rows = [line for line in lines if "ev=" in line]
        assert rows and all(row.count("ev=") == 2 for row in rows)

    def test_shards_rejects_non_integer(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "dc-2host", "--shards", "many"])
        assert "expected an integer or 'auto'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["run", "dc-2host", "--shards", "5"],
         "--shards must be between 1 and 2 for dc-2host (2 hosts), got 5"),
        (["run", "dc-2host", "--shards", "0"],
         "--shards must be between 1 and 2 for dc-2host (2 hosts), got 0"),
        (["run", "private-cloud", "--shards", "2"],
         "--shards only applies to multi-host dc-* scenarios; "
         "private-cloud is a single-host scenario"),
        (["run", "dc-2host", "--hybrid"],
         "--hybrid only applies to single-host scenarios; "
         "dc-2host is a multi-host dc-* scenario"),
    ], ids=["shards-above-hosts", "shards-zero", "shards-single-host",
            "hybrid-datacenter"])
    def test_invalid_mode_flag_fails_with_one_line(self, capsys, argv, error):
        assert main(argv) == 2
        assert capsys.readouterr().err == error + "\n"
