"""Tests for the stable ``repro.api`` façade and ``EngineConfig``.

Pins the API-redesign contracts: every CLI command has a keyword-only
``run_*`` twin returning a :class:`FigureResult`, the CLI and the
façade produce identical output (same code path), the engine config
round-trips and resolves the environment in one place (and nowhere
else), and the one deprecated spelling left warns.
"""

import inspect
import json

import pytest

import repro
from repro import api
from repro.cli import main
from repro.engine import EngineConfig, ExperimentEngine, ResultCache

RUNNERS = ("run_figure9", "run_figure10", "run_figure12", "run_figure13",
           "run_figure14", "run_figure2", "run_sensitivity", "run_cost",
           "run_scorecard")


class TestFacadeShape:
    def test_every_command_has_a_runner(self):
        for name in RUNNERS:
            assert name in api.__all__
            assert callable(getattr(api, name))

    def test_runner_arguments_are_keyword_only(self):
        """Keyword-only signatures are the façade's forward-compat
        guarantee: adding a parameter can never break a caller."""
        for name in RUNNERS:
            signature = inspect.signature(getattr(api, name))
            assert all(
                p.kind == inspect.Parameter.KEYWORD_ONLY
                for p in signature.parameters.values()
            ), f"{name} has non-keyword-only parameters"

    def test_engine_types_reexported(self):
        assert api.ExperimentEngine is ExperimentEngine
        assert api.EngineConfig is EngineConfig

    def test_top_level_reexports(self):
        for name in RUNNERS + ("ExperimentEngine", "EngineConfig",
                               "FigureResult", "WindowSpec",
                               "WindowFailure", "is_failure"):
            assert hasattr(repro, name)
            assert getattr(repro, name) is getattr(api, name)


class TestFacadeResults:
    def test_run_cost_matches_cli(self, capsys):
        result = api.run_cost()
        assert main(["cost"]) == 0
        assert capsys.readouterr().out == result.text + "\n"
        assert any(row["decode_width"] == 4 for row in result.data)

    def test_run_figure13_matches_cli(self, capsys, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
        result = api.run_figure13(scale=600, engine=engine)
        assert main(["figure13", "--scale", "600",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert capsys.readouterr().out == result.text + "\n"

    def test_explicit_engine_is_used_and_restored(self, tmp_path):
        from repro.engine import get_engine

        ambient = get_engine()
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
        result = api.run_figure9(scale=0.002, engine=engine)
        assert engine.summary()["windows"] > 0
        assert get_engine() is ambient
        assert result.data[-1]["benchmark"] == "average"

    def test_figure_result_is_json_serialisable(self, tmp_path):
        engine = ExperimentEngine(cache=ResultCache(tmp_path / "cache"))
        result = api.run_figure12(scale=0.5, engine=engine)
        json.dumps(result.data)
        assert "Figure 12" in result.text

    def test_scorecard_data_mirrors_exit_condition(self, monkeypatch):
        from repro.experiments.scorecard import ClaimResult
        import repro.experiments as experiments

        monkeypatch.setattr(
            experiments, "run_scorecard",
            lambda quick=True: [ClaimResult("fine", True, "ok", 0.0)])
        result = api.run_scorecard()
        assert result.data["passed"] == result.data["total"] == 1
        assert result.data["failed"] is False


class TestEngineConfig:
    def test_round_trip(self):
        config = EngineConfig(jobs=4, timeout=30.0, retries=5,
                              backoff=0.1, failure_policy="skip",
                              fault_rate=0.2, resume_from="run.jsonl")
        data = json.loads(json.dumps(config.to_dict()))
        assert EngineConfig.from_dict(data) == config

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="warp_drive"):
            EngineConfig.from_dict({"warp_drive": 9})

    @pytest.mark.parametrize("bad", [
        {"failure_policy": "explode"},
        {"retries": -1},
        {"backoff": -0.5},
        {"timeout": 0},
        {"fault_rate": 1.0},
        {"fault_rate": -0.1},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            EngineConfig(**bad)

    def test_from_env_resolves_every_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        monkeypatch.setenv("REPRO_TIMEOUT", "45")
        monkeypatch.setenv("REPRO_RETRIES", "7")
        monkeypatch.setenv("REPRO_BACKOFF", "0.2")
        monkeypatch.setenv("REPRO_FAILURE_POLICY", "skip")
        monkeypatch.setenv("REPRO_FAULT_RATE", "0.3")
        config = EngineConfig.from_env()
        assert config == EngineConfig(jobs=6, timeout=45.0, retries=7,
                                      backoff=0.2, failure_policy="skip",
                                      fault_rate=0.3)

    def test_from_env_overrides_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "7")
        assert EngineConfig.from_env(retries=1).retries == 1

    @pytest.mark.parametrize("name,raw", [
        ("REPRO_FAST", "vectr"),
        ("REPRO_TIMEOUT", "soon"),
        ("REPRO_FAILURE_POLICY", "whatever"),
        ("REPRO_JOBS", "x"),
        ("REPRO_VALIDATE_POLICY", "nope"),
    ])
    def test_from_env_rejects_garbage(self, monkeypatch, name, raw):
        """No fallback may be silent: a malformed value names the
        variable instead of quietly keeping the default."""
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=name):
            EngineConfig.from_env()

    def test_from_env_is_the_only_reader(self, monkeypatch, tmp_path):
        """A constructed config, engine and stores ignore the
        environment; only ``from_env`` reads it."""
        from repro.engine import TraceStore

        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_FAST", "off")
        monkeypatch.setenv("REPRO_TRACE_PAGES", "0")
        monkeypatch.setenv("REPRO_TRACE_HANDLES", "9")
        monkeypatch.setenv("REPRO_BREAKER", "0")
        engine = ExperimentEngine(config=EngineConfig(),
                                  cache=ResultCache(tmp_path / "cache"),
                                  trace_store=TraceStore(tmp_path / "traces"))
        assert engine.jobs == 1
        assert engine.config == EngineConfig()
        assert engine.config.fast == "vector"
        assert engine.config.trace_pages and engine.config.breaker
        assert engine.trace_store.handle_limit == 4
        assert engine.cache.backend is None
        resolved = EngineConfig.from_env()
        assert (resolved.jobs, resolved.fast, resolved.trace_pages,
                resolved.trace_handles, resolved.breaker) \
            == (3, "off", False, 9, False)

    def test_defaults_are_concrete(self):
        config = EngineConfig()
        assert (config.fast, config.trace_pages, config.breaker,
                config.integrity, config.store_backend,
                config.trace_handles) \
            == ("vector", True, True, "repair", None, 4)

    @pytest.mark.parametrize("fast,mode", [(True, "vector"),
                                           (False, "off")])
    def test_boolean_fast_warns_and_maps(self, fast, mode):
        with pytest.warns(DeprecationWarning, match="fast="):
            config = EngineConfig(fast=fast)
        assert config.fast == mode

    def test_with_overrides_returns_new_frozen_copy(self):
        config = EngineConfig()
        other = config.with_overrides(jobs=2)
        assert other.jobs == 2 and config.jobs is None
        with pytest.raises(Exception):
            other.jobs = 9  # frozen

    def test_engine_exposes_resolved_config(self, tmp_path):
        engine = ExperimentEngine(
            config=EngineConfig(jobs=2, failure_policy="skip"),
            cache=ResultCache(tmp_path))
        assert engine.config.failure_policy == "skip"
        assert engine.jobs == 2
