"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.scorecard import ClaimResult, scorecard_failed


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        args = parser.parse_args(["figure9", "--scale", "0.01"])
        assert args.command == "figure9"
        assert args.scale == 0.01

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_defaults(self):
        args = build_parser().parse_args(["cost"])
        # --scale is resolved per command; unset flags stay None so the
        # handlers can tell "default" from "explicit".
        assert args.scale is None
        assert args.jobs is None
        assert args.json is False
        assert args.log_jsonl is None
        assert args.timeout is None
        assert args.retries is None
        assert args.failure_policy is None
        assert args.resume_from is None

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["scorecard", "--jobs", "4", "--json",
             "--log-jsonl", "w.jsonl", "--no-cache",
             "--timeout", "30", "--retries", "5",
             "--failure-policy", "skip"])
        assert args.jobs == 4
        assert args.json is True
        assert args.log_jsonl == "w.jsonl"
        assert args.no_cache is True
        assert args.timeout == 30.0
        assert args.retries == 5
        assert args.failure_policy == "skip"

    def test_bad_failure_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cost", "--failure-policy", "yolo"])


class TestCommands:
    def test_cost(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "hardware budget" in out
        assert "HOLD" in out

    def test_figure9_small(self, capsys):
        assert main(["figure9", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "jython" in out and "average" in out

    def test_figure13_small(self, capsys):
        assert main(["figure13", "--scale", "600"]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "brr" in out and "cbs" in out

    def test_figure2_small(self, capsys):
        assert main(["figure2", "--scale", "600"]) == 0
        out = capsys.readouterr().out
        assert "fixed (framework) cost floor" in out

    def test_out_dir_writes_tables(self, capsys, tmp_path):
        assert main(["cost", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "cost.txt").read_text() == out


class TestJsonMode:
    def test_cost_json_document(self, capsys):
        assert main(["cost", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "cost"
        assert any(row["decode_width"] == 4 for row in document["data"])
        assert {"windows", "cache_hits", "cache_misses", "group_fallbacks",
                "jobs"} <= set(document["engine"])

    def test_figure9_json_reports_windows(self, capsys, tmp_path):
        assert main(["figure9", "--scale", "0.002", "--json",
                     "--out", str(tmp_path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        document = json.loads(capsys.readouterr().out)
        rows = document["data"]
        assert rows[-1]["benchmark"] == "average"
        assert document["engine"]["command_windows"] > 0
        # --json --out also writes the BENCH_* trajectory artifacts.
        bench = json.loads((tmp_path / "BENCH_figure9.json").read_text())
        assert bench["data"] == rows
        lines = [json.loads(line) for line in
                 (tmp_path / "BENCH_windows.jsonl").read_text().splitlines()]
        # The ledger leads with the resume metadata line.
        assert lines[0]["record_type"] == "run_meta"
        windows = [l for l in lines if l.get("record_type") != "run_meta"]
        assert len(windows) == document["engine"]["command_windows"]
        assert all(record["kind"] == "accuracy" for record in windows)

    def test_warm_cache_rerun_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["figure9", "--scale", "0.002", "--json",
                     "--cache-dir", cache]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["figure9", "--scale", "0.002", "--json",
                     "--cache-dir", cache]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["data"] == cold["data"]
        assert warm["engine"]["cache_hits"] == warm["engine"]["windows"]


class TestCacheCommand:
    """Satellite: `repro cache [stats|prune|clear]` maintains both the
    result cache and the trace store."""

    def test_parser_accepts_cache_actions(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["cache"]).action is None
        for action in ("stats", "prune", "clear"):
            assert parser.parse_args(["cache", action]).action == action
        # The positional is shared with `resume`, so unknown cache
        # actions are rejected by main() rather than argparse.
        with pytest.raises(SystemExit):
            main(["cache", "explode"])
        assert "cache action" in capsys.readouterr().err

    def test_action_rejected_for_other_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure9", "clear"])
        assert "only valid" in capsys.readouterr().err

    def test_stats_on_empty_stores(self, capsys, tmp_path):
        assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "result cache" in out and "trace store" in out
        assert str(tmp_path) in out

    def test_populate_then_clear(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["figure13", "--scale", "600",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()

        assert main(["cache", "--json", "--cache-dir", cache]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["action"] == "stats"
        assert stats["results"]["entries"] > 0
        assert stats["traces"]["entries"] > 0

        assert main(["cache", "clear", "--json", "--cache-dir", cache]) == 0
        cleared = json.loads(capsys.readouterr().out)
        assert cleared["removed"]["results"] == stats["results"]["entries"]
        assert cleared["removed"]["traces"] == stats["traces"]["entries"]
        assert cleared["results"]["entries"] == 0
        assert cleared["traces"]["entries"] == 0

    def test_prune_drops_stale_versions_only(self, capsys, tmp_path):
        stale = tmp_path / "v0" / "aa"
        stale.mkdir(parents=True)
        (stale / "old.json").write_text("{}")
        (tmp_path / "traces" / "v0").mkdir(parents=True)
        (tmp_path / "traces" / "v0" / "old.trace").write_bytes(b"x")
        assert main(["cache", "prune", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        pruned = json.loads(capsys.readouterr().out)
        assert pruned["removed"] == {"results": 1, "traces": 1}
        assert not (tmp_path / "v0").exists()
        assert not (tmp_path / "traces" / "v0").exists()


class TestScaleUnification:
    """One ``--scale`` flag across every figure command; the retired
    ``--chars``/``--jvm-scale`` aliases are argparse errors."""

    def test_scale_accepted_by_every_figure_command(self):
        parser = build_parser()
        for command in ("figure9", "figure10", "figure12", "figure13",
                        "figure14", "figure2", "sensitivity", "scorecard"):
            assert parser.parse_args([command, "--scale", "7"]).scale == 7.0

    @pytest.mark.parametrize("argv", [
        ["figure13", "--chars", "600"],
        ["figure12", "--jvm-scale", "0.5"],
    ], ids=["chars", "jvm-scale"])
    def test_retired_aliases_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_malformed_env_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "x")
        with pytest.raises(SystemExit) as exit_info:
            main(["cost"])
        assert exit_info.value.code == 2
        assert "REPRO_JOBS='x'" in capsys.readouterr().err

    def test_scale_rejected_for_all(self, capsys):
        with pytest.raises(SystemExit):
            main(["all", "--scale", "1"])
        assert "ambiguous" in capsys.readouterr().err


class TestResumeCommand:
    """Tentpole: `repro resume RUN.jsonl` finishes an interrupted run,
    executing only the windows the first run left uncached."""

    def _run_with_log(self, tmp_path):
        cache = tmp_path / "cache"
        log = tmp_path / "run.jsonl"
        assert main(["figure13", "--scale", "600",
                     "--cache-dir", str(cache),
                     "--log-jsonl", str(log)]) == 0
        return cache, log

    def test_run_log_starts_with_meta(self, capsys, tmp_path):
        _cache, log = self._run_with_log(tmp_path)
        capsys.readouterr()
        first = json.loads(log.read_text().splitlines()[0])
        assert first["record_type"] == "run_meta"
        assert first["command"] == "figure13"
        assert first["argv"] == ["figure13", "--scale", "600",
                                 "--cache-dir", str(tmp_path / "cache")]
        assert first["engine_config"]["failure_policy"] == "retry"

    def test_resume_fully_cached_run_executes_nothing(self, capsys,
                                                      tmp_path):
        cache, log = self._run_with_log(tmp_path)
        capsys.readouterr()
        assert main(["resume", str(log)]) == 0
        captured = capsys.readouterr()
        records = [json.loads(l) for l in log.read_text().splitlines()
                   if json.loads(l).get("record_type") != "run_meta"]
        total = len(records) // 2  # first run + replay
        assert sum(1 for r in records if r["cache"] == "hit") == total
        assert f"{total} windows already cached, 0 executed" in captured.err

    def test_resume_executes_only_missing_windows(self, capsys, tmp_path):
        import pathlib

        cache, log = self._run_with_log(tmp_path)
        capsys.readouterr()
        records = [json.loads(l) for l in log.read_text().splitlines()]
        keys = [r["key"] for r in records
                if r.get("record_type") != "run_meta"]
        # Simulate an interrupt: drop 3 windows from the durable cache.
        dropped = 0
        for path in pathlib.Path(cache).rglob("*.json"):
            if any(key in path.name for key in keys[:3]):
                path.unlink()
                dropped += 1
        assert dropped == 3
        assert main(["resume", str(log)]) == 0
        captured = capsys.readouterr()
        assert f"{len(keys) - 3} windows already cached, 3 executed" \
            in captured.err

    def test_resume_without_meta_is_an_error(self, capsys, tmp_path):
        log = tmp_path / "legacy.jsonl"
        log.write_text('{"key": "abc", "cache": "miss"}\n')
        assert main(["resume", str(log)]) == 2
        assert "no run_meta" in capsys.readouterr().err

    def test_resume_requires_a_path(self):
        with pytest.raises(SystemExit):
            main(["resume"])


class TestScorecardExitCode:
    """Satellite: CI can gate on `python -m repro scorecard`."""

    def test_scorecard_failed_predicate(self):
        ok = ClaimResult("a", True, "fine", 0.1)
        bad = ClaimResult("b", False, "broken", 0.1)
        assert not scorecard_failed([ok])
        assert scorecard_failed([ok, bad])

    def test_failing_claim_sets_exit_code(self, capsys, monkeypatch):
        import repro.experiments as experiments

        monkeypatch.setattr(
            experiments, "run_scorecard",
            lambda quick=True: [ClaimResult(
                "deliberately broken config", False, "boom", 0.0)])
        assert main(["scorecard"]) == 1
        assert "[FAIL] deliberately broken config" in capsys.readouterr().out

    def test_passing_scorecard_exits_zero(self, capsys, monkeypatch):
        import repro.experiments as experiments

        monkeypatch.setattr(
            experiments, "run_scorecard",
            lambda quick=True: [ClaimResult("fine", True, "ok", 0.0)])
        assert main(["scorecard"]) == 0

    def test_deliberately_broken_config_fails_claim(self, monkeypatch):
        """A deliberately broken hardware-cost model produces a FAIL
        verdict (not a crash), which the CLI turns into exit code 1."""
        from repro.experiments import scorecard as sc

        monkeypatch.setattr("repro.core.cost.claims_hold", lambda: False)
        results = sc.run_scorecard(checks=[
            ("hardware budget", sc._check_hardware_cost)])
        assert len(results) == 1 and not results[0].passed
        assert sc.scorecard_failed(results)

    def test_crashing_check_counts_as_failure(self):
        from repro.experiments import scorecard as sc

        def explode():
            raise RuntimeError("broken config")

        results = sc.run_scorecard(checks=[("kaboom", explode)])
        assert not results[0].passed
        assert "broken config" in results[0].detail

