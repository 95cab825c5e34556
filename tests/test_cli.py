"""Tests for the command-line interface."""

import re
from types import SimpleNamespace

import pytest

from repro.cli import main, parse_system
from repro.errors import ReproError
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem


class TestParseSystem:
    def test_grid(self):
        system = parse_system("grid:4")
        assert isinstance(system, GridQuorumSystem)
        assert system.k == 4

    def test_majority_kinds(self):
        assert parse_system("majority:simple:2").universe_size == 5
        assert parse_system("majority:bft:2").universe_size == 7
        assert parse_system("majority:qu:2").universe_size == 11

    def test_case_insensitive(self):
        assert isinstance(parse_system("GRID:3"), GridQuorumSystem)
        assert isinstance(
            parse_system("Majority:QU:1"), ThresholdQuorumSystem
        )

    def test_bad_specs(self):
        for spec in ("grid", "grid:2:3", "majority:nope:1", "ring:5"):
            with pytest.raises(ReproError):
                parse_system(spec)


class TestCommands:
    def test_topologies(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "planetlab-50" in out
        assert "daxlist-161" in out

    def test_systems(self, capsys):
        assert main(["systems", "--max-universe", "16"]) == 0
        out = capsys.readouterr().out
        assert "grid:4" in out
        assert "majority:simple:1" in out
        assert "majority:qu:3" in out
        assert "majority:qu:4" not in out  # universe 21 > 16

    def test_plan_grid_lp(self, capsys):
        code = main(
            ["plan", "--system", "grid:3", "--demand", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Grid 3x3" in out
        assert "response time" in out
        assert "crash tolerance" in out
        assert "LP-tuned" in out

    def test_plan_closest_strategy(self, capsys):
        code = main(
            ["plan", "--system", "grid:2", "--strategy", "closest"]
        )
        assert code == 0
        assert "closest" in capsys.readouterr().out

    def test_plan_majority_falls_back_from_lp(self, capsys):
        code = main(["plan", "--system", "majority:simple:2"])
        assert code == 0
        assert "LP unavailable" in capsys.readouterr().out

    def test_plan_many_to_one(self, capsys):
        code = main(
            ["plan", "--system", "grid:3", "--many-to-one", "2.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "many-to-one" in out

    @pytest.mark.parametrize(
        "branch",
        [[], ["--hierarchical"], ["--many-to-one", "2.0"]],
        ids=["default", "hierarchical", "many-to-one"],
    )
    def test_plan_jobs_2_prints_what_jobs_1_prints(self, capsys, branch):
        """Every placement branch searches through the one runner the
        command opens; a pool changes scheduling, never the plan."""
        outputs = []
        for jobs in ("1", "2"):
            code = main(
                ["plan", "--system", "grid:3", "--jobs", jobs, *branch]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "deployment plan" in outputs[0]

    def test_plan_bad_system_spec_errors(self, capsys):
        code = main(["plan", "--system", "ring:7"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_dynamics_replay(self, capsys):
        code = main(
            [
                "dynamics", "--system", "grid:2", "--epochs", "4",
                "--scenario", "diurnal", "--candidates", "5",
                "--policies", "static,threshold:0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dynamics replay: 4 epochs" in out
        assert "clairvoyant" in out
        assert "mean regret" in out

    def test_dynamics_bad_policy_errors(self, capsys):
        code = main(
            ["dynamics", "--epochs", "4", "--policies", "sometimes"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_dynamics_negative_candidates_errors(self, capsys):
        code = main(["dynamics", "--epochs", "4", "--candidates", "-3"])
        assert code == 1
        assert "candidates" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["-0.5", "nan", "inf"])
    def test_dynamics_bad_simulate_rate_errors(self, capsys, rate):
        code = main(["dynamics", "--epochs", "4", "--simulate-rate", rate])
        assert code == 1
        assert "--simulate-rate must be" in capsys.readouterr().err

    def test_dynamics_simulate_rate_reports_each_segment(self, capsys):
        code = main(
            [
                "dynamics", "--system", "grid:2", "--epochs", "4",
                "--scenario", "partition-heal", "--candidates", "5",
                "--policies", "static", "--simulate-rate", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert (
            "simulated segment placements (fluid backend, 0.5 ops/ms):"
            in out
        )
        rows = re.findall(
            r"epochs \[(\d+),(\d+)\): mean [\d.]+ ms, p95 [\d.]+ ms "
            r"over (\d+) ops \((\d+) members\)",
            out,
        )
        segments = [(int(a), int(b)) for a, b, _, _ in rows]
        assert len(segments) > 1  # the partition splits the timeline
        assert segments[0][0] == 0 and segments[-1][1] == 4
        assert all(b == c for (_, b), (c, _) in zip(segments, segments[1:]))
        assert all(int(ops) > 0 for _, _, ops, _ in rows)

    def test_dynamics_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dynamics", "--mode", "cold"])
        assert excinfo.value.code == 2
        assert "--mode" in capsys.readouterr().err

    def test_dynamics_closed_loop(self, capsys):
        code = main(
            [
                "dynamics", "--system", "grid:2", "--epochs", "4",
                "--scenario", "diurnal", "--candidates", "5",
                "--policies", "static,threshold:0.1", "--closed-loop",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "closed_loop: True" in out
        assert "telemetry_noise: 0.05" in out
        assert "mean est err" in out

    def test_dynamics_tune_thresholds(self, capsys):
        code = main(
            [
                "dynamics", "--system", "grid:2", "--epochs", "4",
                "--scenario", "diurnal", "--candidates", "5",
                "--closed-loop", "--tune-thresholds", "0.05,0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold auto-tune: 2 candidate(s)" in out
        assert "best: threshold:" in out

    def test_dynamics_noise_requires_closed_loop(self, capsys):
        code = main(["dynamics", "--epochs", "4", "--noise", "0.1"])
        assert code == 1
        assert "--closed-loop" in capsys.readouterr().err

    def test_dynamics_tune_requires_closed_loop(self, capsys):
        code = main(
            ["dynamics", "--epochs", "4", "--tune-thresholds", "0.1"]
        )
        assert code == 1
        assert "--closed-loop" in capsys.readouterr().err

    def test_dynamics_bad_tune_list_errors(self, capsys):
        code = main(
            [
                "dynamics", "--epochs", "4", "--closed-loop",
                "--tune-thresholds", "0.1,zap",
            ]
        )
        assert code == 1
        assert "comma-separated numbers" in capsys.readouterr().err


class TestFigureCommand:
    def test_sim_backend_rejected_by_non_simulation_figure(self, capsys):
        code = main(
            ["figure", "fig_6_3", "--no-cache", "--sim-backend", "fluid"]
        )
        assert code == 1
        assert "does not accept --sim-backend" in capsys.readouterr().err

    def test_non_positive_cache_size_errors(self, capsys):
        code = main(["figure", "fig_6_3", "--cache-max-mb", "0"])
        assert code == 1
        assert "--cache-max-mb must be positive" in capsys.readouterr().err

    def test_all_runs_every_figure_in_id_order_on_one_cache(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.cli as cli

        calls = []

        def fake_run_figure(figure_id, fast, jobs, cache):
            calls.append((figure_id, fast, jobs, cache))
            return SimpleNamespace(render_text=lambda: f"rendered {figure_id}")

        monkeypatch.setattr(cli, "run_figure", fake_run_figure)
        code = main(
            ["figure", "all", "--fast", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        assert [c[0] for c in calls] == sorted(cli.FIGURES)
        assert all(fast and jobs == 1 for _, fast, jobs, _ in calls)
        assert calls[0][3] is not None
        assert len({id(c[3]) for c in calls}) == 1
        out = capsys.readouterr().out
        assert out.count("rendered ") == len(cli.FIGURES)
        assert out.count("cache: ") == 1

    def test_all_rejects_sim_backend_before_running(
        self, monkeypatch, capsys
    ):
        import repro.cli as cli

        def fail_run_figure(*args, **kwargs):
            raise AssertionError("no figure may run")

        monkeypatch.setattr(cli, "run_figure", fail_run_figure)
        code = main(
            ["figure", "all", "--no-cache", "--sim-backend", "events"]
        )
        assert code == 1
        assert "does not accept --sim-backend" in capsys.readouterr().err
