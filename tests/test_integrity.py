"""Corruption fuzz suite for the end-to-end integrity layer.

Seeded byte-flips and truncations are injected into every kind of
on-disk state the engine trusts — recorded traces, result-cache
entries, JSONL run ledgers — and the tests assert the full contract of
``docs/integrity.md``: corruption is *detected* (checksums), *moved
aside* (quarantine + machine-readable reason file), *healed*
(transparent re-record / recompute under the default ``repair``
policy) and *harmless* (the final payloads are byte-identical to a
clean run).  The runtime half of the layer — the ``REPRO_VALIDATE``
watchdog that cross-checks the fast timing kernel against the golden
model — is driven through a deliberate perturbation seam.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.cli import main
from repro.engine import (
    EngineConfig,
    ExperimentEngine,
    IntegrityError,
    ResultCache,
    RunRecorder,
    TraceStore,
    ValidationDivergence,
    ValidationWatchdog,
    corrupt_file,
    quarantined_entries,
    read_run_log_checked,
    run_doctor,
    scan_ledger,
)
from repro.engine.integrity import (
    REASON_SUFFIX,
    compare_stats,
    ledger_line_crc,
)
from repro.engine.windows import MATERIALS
from repro.experiments.fig13 import microbench_window_spec
from repro.timing import fastpath_vec
from repro.timing.runner import record_window, replay_window


def _specs():
    """A cheap pair of timed windows (shared trace, two variants)."""
    return [
        microbench_window_spec(400, "full-dup", seed=1, kind="brr",
                               interval=64, lfsr_seed=64),
        microbench_window_spec(400, "none", seed=1),
    ]


def _canonical(payloads):
    return [json.dumps(p, sort_keys=True) for p in payloads]


def _engine(root, **config):
    cfg = EngineConfig(**config)
    # Injected collaborators carry their own policy (the CLI does the
    # same) — the engine only applies cfg.integrity to default stores.
    return ExperimentEngine(config=cfg,
                            cache=ResultCache(root, policy=cfg.integrity))


def _engine_with_traces(cache_root, trace_root, **config):
    """Fresh result cache + existing trace store: forces windows to
    re-execute so the trace path is actually exercised."""
    cfg = EngineConfig(**config)
    return ExperimentEngine(
        config=cfg,
        cache=ResultCache(cache_root, policy=cfg.integrity),
        trace_store=TraceStore(trace_root, policy=cfg.integrity))


def _store_files(root, pattern):
    return sorted(p for p in pathlib.Path(root).rglob(pattern)
                  if "quarantine" not in p.parts)


# ----------------------------------------------------------------------
# Deterministic corruption injection (repro.engine.faults).


class TestCorruptFile:
    def test_flip_is_deterministic_and_changes_one_byte(self, tmp_path):
        a = tmp_path / "a.bin"
        a.write_bytes(bytes(range(200)))
        offset = corrupt_file(a, seed=3, kind="flip")
        damaged = a.read_bytes()
        assert len(damaged) == 200
        assert damaged[offset] != offset
        assert sum(x != y for x, y in zip(damaged, bytes(range(200)))) == 1
        # Same seed, same file name: same offset.
        b = tmp_path / "b" / "a.bin"
        b.parent.mkdir()
        b.write_bytes(bytes(range(200)))
        assert corrupt_file(b, seed=3, kind="flip") == offset

    def test_truncate_drops_at_least_one_byte(self, tmp_path):
        target = tmp_path / "t.bin"
        target.write_bytes(b"x" * 100)
        corrupt_file(target, seed=0, kind="truncate")
        assert 0 <= len(target.read_bytes()) < 100

    def test_empty_file_and_bad_kind_rejected(self, tmp_path):
        empty = tmp_path / "e.bin"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_file(empty, seed=0)
        empty.write_bytes(b"x")
        with pytest.raises(ValueError):
            corrupt_file(empty, seed=0, kind="zero")


# ----------------------------------------------------------------------
# Result-cache corruption: detect, quarantine, self-heal.


class TestCacheCorruption:
    def _poison_payload(self, path):
        """Damage the *payload* (not the envelope) so the entry stays
        parseable but its embedded digest no longer matches."""
        entry = json.loads(path.read_text())
        entry["result"]["cycles"] = (entry["result"].get("cycles") or 0) + 1
        path.write_text(json.dumps(entry, sort_keys=True))

    def test_repair_quarantines_and_recomputes_identically(self, tmp_path):
        specs = _specs()
        clean = _engine(tmp_path / "clean").run(specs)

        root = tmp_path / "victim"
        warm = _engine(root)
        warm.run(specs)
        entries = _store_files(root, "*.json")
        assert entries
        for path in entries:
            self._poison_payload(path)

        healed = _engine(root)
        payloads = healed.run(specs)
        assert _canonical(payloads) == _canonical(clean)
        # Every poisoned entry was moved aside with a reason file, and
        # the recompute counted as a repair.
        quarantined = quarantined_entries(root)
        assert len(quarantined) == len(entries)
        for q in quarantined:
            reason = json.loads(
                (q.parent / (q.name + REASON_SUFFIX)).read_text())
            assert reason["store"] == "results"
            assert "digest" in reason["reason"]
        assert healed.cache.integrity.quarantined == len(entries)
        assert healed.cache.integrity.repaired == len(entries)
        # The healed entries verify again on the next run.
        again = _engine(root)
        assert _canonical(again.run(specs)) == _canonical(clean)
        assert again.cache.integrity.verified == len(specs)

    def test_verify_policy_raises(self, tmp_path):
        specs = _specs()[:1]
        root = tmp_path / "victim"
        _engine(root).run(specs)
        for path in _store_files(root, "*.json"):
            self._poison_payload(path)
        strict = _engine(root, integrity="verify")
        with pytest.raises(IntegrityError, match="corrupt"):
            strict.run(specs)
        assert quarantined_entries(root)

    def test_trust_policy_skips_digest_check(self, tmp_path):
        specs = _specs()[:1]
        root = tmp_path / "victim"
        clean = _engine(root).run(specs)
        for path in _store_files(root, "*.json"):
            self._poison_payload(path)
        trusting = _engine(root, integrity="trust")
        payloads = trusting.run(specs)
        # The poisoned payload is served as-is: trust means trust.
        assert _canonical(payloads) != _canonical(clean)
        assert not quarantined_entries(root)

    def test_seeded_bitflips_never_change_final_payloads(self, tmp_path):
        specs = _specs()
        clean = _engine(tmp_path / "clean").run(specs)
        for seed in range(4):
            root = tmp_path / f"victim{seed}"
            _engine(root).run(specs)
            for i, path in enumerate(_store_files(root, "*.json")):
                corrupt_file(path, seed=seed + i,
                             kind="flip" if seed % 2 else "truncate")
            healed = _engine(root).run(specs)
            assert _canonical(healed) == _canonical(clean)


# ----------------------------------------------------------------------
# Trace-store corruption: every byte of a BRTR v2 file is covered by a
# section checksum, so *any* flip is detected.


class TestTraceCorruption:
    def test_flip_anywhere_quarantines_and_rerecords(self, tmp_path):
        specs = _specs()
        clean = _engine(tmp_path / "clean").run(specs)

        root = tmp_path / "victim"
        warm = _engine(root)
        warm.run(specs)
        traces = _store_files(warm.trace_store.root, "*.trace")
        assert traces
        for i, path in enumerate(traces):
            corrupt_file(path, seed=i, kind="flip")

        healed = _engine_with_traces(tmp_path / "fresh",
                                     warm.trace_store.root)
        payloads = healed.run(specs)
        assert _canonical(payloads) == _canonical(clean)
        quarantined = quarantined_entries(healed.trace_store.root)
        assert quarantined
        reasons = [json.loads((q.parent / (q.name + REASON_SUFFIX))
                              .read_text()) for q in quarantined]
        assert all(r["store"] == "traces" for r in reasons)
        assert healed.trace_store.integrity.quarantined == len(quarantined)
        assert healed.trace_store.integrity.repaired == len(quarantined)
        # Re-recorded traces are intact.
        again = _engine_with_traces(tmp_path / "fresh2",
                                    warm.trace_store.root)
        assert _canonical(again.run(specs)) == _canonical(clean)
        assert again.trace_store.integrity.quarantined == 0

    def test_truncation_is_detected(self, tmp_path):
        root = tmp_path / "victim"
        warm = _engine(root)
        warm.run(_specs()[:1])
        store = TraceStore(warm.trace_store.root, policy="verify")
        (path,) = _store_files(store.root, "*.trace")
        key = path.stem
        corrupt_file(path, seed=0, kind="truncate")
        with pytest.raises(IntegrityError, match="quarantined"):
            store.load(key)
        assert not path.exists()

    def test_lru_does_not_serve_stale_handle_after_prune(self, tmp_path):
        """Satellite: the 4-entry handle cache must be invalidated by
        prune/quarantine, or it would keep serving deleted traces."""
        root = tmp_path / "victim"
        warm = _engine(root)
        warm.run(_specs()[:1])
        store = warm.trace_store
        (path,) = _store_files(store.root, "*.trace")
        key = path.stem
        assert store.load(key) is not None   # now in the handle cache
        path.unlink()
        assert store.load(key) is not None   # masked by the LRU (docs'd)
        store.prune()
        assert store.load(key) is None       # prune invalidated it

    def test_quarantine_invalidates_open_handle(self, tmp_path):
        root = tmp_path / "victim"
        warm = _engine(root)
        warm.run(_specs()[:1])
        store = warm.trace_store
        (path,) = _store_files(store.root, "*.trace")
        key = path.stem
        assert store.load(key) is not None
        corrupt_file(path, seed=1, kind="flip")
        report = store.scan(repair=True)
        assert report["corrupt"] == 1
        # scan quarantined the file *and* dropped the live handle.
        assert store.load(key) is None


# ----------------------------------------------------------------------
# Ledger corruption: per-line CRCs separate torn tails from bit rot.


class TestLedgerIntegrity:
    def _ledger(self, tmp_path):
        log = tmp_path / "run.jsonl"
        recorder = RunRecorder(log)
        recorder.write_meta({"command": "x", "argv": ["x"]})
        for i in range(4):
            recorder.write_validation({"i": i})  # any crc'd line works
        return log

    def test_lines_carry_matching_crc(self, tmp_path):
        log = self._ledger(tmp_path)
        for line in log.read_text().splitlines():
            obj = json.loads(line)
            assert obj["crc"] == ledger_line_crc(obj)

    def test_bitrot_line_is_skipped_and_reported(self, tmp_path):
        log = self._ledger(tmp_path)
        lines = log.read_text().splitlines()
        lines[2] = lines[2].replace('"i":', '"j":', 1)  # parseable rot
        log.write_text("\n".join(lines) + "\n")
        meta, _records, report = read_run_log_checked(log)
        assert meta is not None
        assert report.corrupt == 1
        assert report.ok == len(lines) - 1

    def test_torn_tail_is_tolerated(self, tmp_path):
        log = self._ledger(tmp_path)
        text = log.read_text()
        log.write_text(text[:-15])  # kill mid-line
        meta, _records, report = read_run_log_checked(log)
        assert meta is not None
        assert report.torn == 1
        assert report.corrupt == 0

    def test_scan_ledger_repair_rewrites_in_place(self, tmp_path):
        log = self._ledger(tmp_path)
        lines = log.read_text().splitlines()
        lines[1] = lines[1].replace('"i":', '"j":', 1)
        log.write_text("\n".join(lines)[:-10])  # rot + torn tail
        report = scan_ledger(log, repair=True)
        assert report.bad == 2
        after = scan_ledger(log)
        assert after.bad == 0
        assert after.ok == len(lines) - 2

    def test_legacy_crcless_lines_stay_readable(self, tmp_path):
        log = tmp_path / "legacy.jsonl"
        log.write_text('{"record_type": "run_meta", "argv": ["x"], '
                       '"command": "x"}\n{"key": "k", "cache": "hit"}\n')
        meta, records, report = read_run_log_checked(log)
        assert meta is not None
        assert len(records) == 1
        assert report.legacy == 2
        assert report.bad == 0


class TestResumeTruncatedLedger:
    """Satellite regression: `repro resume` on a ledger whose final
    line was torn by a kill must resume from the last complete line."""

    def _run_with_log(self, tmp_path):
        cache = tmp_path / "cache"
        log = tmp_path / "run.jsonl"
        assert main(["figure13", "--scale", "600",
                     "--cache-dir", str(cache),
                     "--log-jsonl", str(log)]) == 0
        return cache, log

    def test_resume_from_last_complete_line(self, capsys, tmp_path):
        cache, log = self._run_with_log(tmp_path)
        capsys.readouterr()
        text = log.read_text()
        assert text.endswith("\n")
        log.write_text(text[:-20])  # torn final record
        assert main(["resume", str(log)]) == 0
        err = capsys.readouterr().err
        assert "ignored 1 torn and 0 corrupt line(s)" in err
        assert "windows already cached" in err
        # The torn window's result was still durably cached (put is
        # fsync-before-rename), so nothing re-executes.
        assert ", 0 executed" in err

    def test_resume_warns_on_bitrot_and_reexecutes(self, capsys, tmp_path):
        cache, log = self._run_with_log(tmp_path)
        capsys.readouterr()
        lines = log.read_text().splitlines()
        rotted = json.loads(lines[-1])["key"]
        lines[-1] = lines[-1].replace('"cache": "miss"', '"cache": "hitX"')
        log.write_text("\n".join(lines) + "\n")
        # Drop the rotted window from the cache: its ledger line can no
        # longer vouch for it, so resume must re-execute it.
        dropped = [p for p in pathlib.Path(cache).rglob("*.json")
                   if rotted in p.name]
        assert dropped
        dropped[0].unlink()
        assert main(["resume", str(log)]) == 0
        err = capsys.readouterr().err
        assert "ignored 0 torn and 1 corrupt line(s)" in err
        assert ", 1 executed" in err


# ----------------------------------------------------------------------
# The validation watchdog.


def _record_one():
    spec = _specs()[0]
    materials = MATERIALS[spec.kind](spec.params_dict())
    trace = record_window(materials["program"], materials["end"],
                          brr_unit=materials["brr_unit"],
                          setup=materials["setup"])
    return materials, trace


def _replay(materials, trace, fast="vector", watchdog=None):
    return replay_window(trace, materials["begin"], materials["end"],
                         program=materials["program"], fast=fast,
                         watchdog=watchdog)


def _perturb(stats):
    return dataclasses.replace(stats, cycles=stats.cycles + 7)


@pytest.fixture
def buggy_kernel(monkeypatch):
    """Perturb the stats of the kernel entry point the runner calls,
    simulating a buggy fast path without touching the kernel itself."""
    kernel = fastpath_vec.run_fastpath_vec

    def perturbed(*args, **kwargs):
        stats, executed, route = kernel(*args, **kwargs)
        return _perturb(stats), executed, route

    monkeypatch.setattr(fastpath_vec, "run_fastpath_vec", perturbed)


def _cadence_specs():
    """Eight timed Figure-13 windows: seeds 1-4 x {full-dup brr, none}."""
    return [spec for seed in range(1, 5) for spec in (
        microbench_window_spec(400, "full-dup", seed=seed, kind="brr",
                               interval=64, lfsr_seed=64),
        microbench_window_spec(400, "none", seed=seed))]


class TestWatchdog:
    def test_ticket_cadence(self):
        watchdog = ValidationWatchdog(every=3)
        assert [watchdog.take_ticket() for _ in range(6)] == \
            [False, False, True, False, False, True]
        off = ValidationWatchdog(every=None)
        assert not any(off.take_ticket() for _ in range(4))
        assert off.replays == 0

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ValidationWatchdog(every=1, policy="ignore")

    def test_real_windows_report_zero_divergences(self, tmp_path):
        """Acceptance: REPRO_VALIDATE=1 on real windows — every fast
        replay matches the golden model (policy `raise` would abort
        on the first divergence)."""
        engine = _engine(tmp_path / "c", validate_every=1,
                         validate_policy="raise")
        engine.run(_specs())
        summary = engine.summary()
        assert summary["validation_passes"] == summary["fastpath_windows"]
        assert summary["validation_passes"] > 0
        assert summary["validation_divergences"] == 0

    @pytest.mark.parametrize("jobs,passes", [(1, 4), (2, None)])
    def test_cadence_counts_every_replay_of_a_run(self, tmp_path, jobs,
                                                  passes):
        """``validate_every=2`` over eight fast windows: a serial run
        validates every second replay (4 of 8); a pool worker keeps one
        watchdog for its life, so two workers validate too."""
        engine = _engine(tmp_path / "c", jobs=jobs, validate_every=2,
                         validate_policy="raise")
        engine.run(_cadence_specs())
        summary = engine.summary()
        assert summary["fastpath_windows"] == 8
        assert summary["validation_divergences"] == 0
        assert summary["validation_passes"] > 0
        if passes is not None:
            assert summary["validation_passes"] == passes

    def test_perturbed_fastpath_falls_back_to_golden(self, buggy_kernel):
        materials, trace = _record_one()
        golden = _replay(materials, trace, fast="off")
        result = _replay(materials, trace, watchdog=ValidationWatchdog(
            every=1, policy="fallback"))
        info = result.telemetry
        assert info["validation"] == "divergence"
        assert info["validation_mismatches"] == [
            {"field": "cycles", "fast": golden.stats.cycles + 7,
             "golden": golden.stats.cycles}]
        assert result.stats == golden.stats  # the fallback

    def test_warn_policy_keeps_fast_stats(self, buggy_kernel):
        materials, trace = _record_one()
        golden = _replay(materials, trace, fast="off")
        result = _replay(materials, trace, watchdog=ValidationWatchdog(
            every=1, policy="warn"))
        assert result.telemetry["validation"] == "divergence"
        assert result.stats.cycles == golden.stats.cycles + 7

    def test_raise_policy_aborts(self, buggy_kernel):
        materials, trace = _record_one()
        with pytest.raises(ValidationDivergence, match="cycles"):
            _replay(materials, trace, watchdog=ValidationWatchdog(
                every=1, policy="raise"))

    def test_unsampled_replays_carry_no_validation(self):
        materials, trace = _record_one()
        result = _replay(materials, trace,
                         watchdog=ValidationWatchdog(every=None))
        assert "validation" not in result.telemetry
        assert "validation" not in _replay(materials, trace).telemetry

    def test_compare_stats_lists_only_diverging_fields(self):
        materials, trace = _record_one()
        stats = _replay(materials, trace, fast="off").stats
        assert compare_stats(stats, stats) == []
        mismatches = compare_stats(stats, _perturb(stats))
        assert [m["field"] for m in mismatches] == ["cycles"]

    def test_engine_logs_typed_divergence_record(self, tmp_path,
                                                 buggy_kernel):
        """A divergence surfaces in the run ledger twice: as the
        window's `validation` field and as a typed evidence line."""
        log = tmp_path / "run.jsonl"
        engine = ExperimentEngine(
            config=EngineConfig(validate_every=1, validate_policy="warn"),
            cache=ResultCache(tmp_path / "c"),
            recorder=RunRecorder(log))
        engine.run(_specs())
        summary = engine.summary()
        assert summary["validation_divergences"] > 0
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        evidence = [l for l in lines
                    if l.get("record_type") == "validation"]
        assert evidence
        assert evidence[0]["mismatches"][0]["field"] == "cycles"
        assert evidence[0]["policy"] == "warn"
        windows = [l for l in lines if l.get("validation") == "divergence"]
        assert len(windows) == summary["validation_divergences"]


# ----------------------------------------------------------------------
# `repro doctor`.


class TestDoctor:
    def _corrupt_everything(self, tmp_path):
        specs = _specs()
        root = tmp_path / "victim"
        warm = _engine(root)
        warm.run(specs)
        for path in _store_files(root, "*.json"):
            entry = json.loads(path.read_text())
            entry["result"]["poison"] = True
            path.write_text(json.dumps(entry, sort_keys=True))
        for i, path in enumerate(_store_files(warm.trace_store.root,
                                              "*.trace")):
            corrupt_file(path, seed=i)
        return root, warm

    def test_scan_reports_without_touching(self, tmp_path):
        root, warm = self._corrupt_everything(tmp_path)
        fresh = _engine(root)
        report = run_doctor(fresh.cache, fresh.trace_store)
        assert not report["clean"]
        assert report["results"]["corrupt"] > 0
        assert report["traces"]["corrupt"] > 0
        assert not quarantined_entries(root)  # report-only

    def test_repair_then_clean(self, tmp_path):
        root, warm = self._corrupt_everything(tmp_path)
        fresh = _engine(root)
        report = run_doctor(fresh.cache, fresh.trace_store, repair=True)
        assert not report["clean"]
        assert quarantined_entries(root)
        # Everything corrupt was moved aside: a second scan is clean.
        after = run_doctor(fresh.cache, fresh.trace_store)
        assert after["clean"]

    def test_cli_exit_codes(self, capsys, tmp_path):
        root, warm = self._corrupt_everything(tmp_path)
        assert main(["doctor", "--cache-dir", str(root)]) == 1
        assert "CORRUPT" in capsys.readouterr().out
        assert main(["doctor", "--cache-dir", str(root), "--repair"]) == 0
        assert "repaired" in capsys.readouterr().out
        assert main(["doctor", "--cache-dir", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_audits_ledger_and_json_document(self, capsys, tmp_path):
        root = tmp_path / "cache"
        log = tmp_path / "run.jsonl"
        recorder = RunRecorder(log)
        recorder.write_meta({"command": "x", "argv": ["x"]})
        log.write_text(log.read_text() + '{"half": ')
        assert main(["doctor", str(log), "--cache-dir", str(root),
                     "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ledgers"][0]["torn"] == 1
        assert doc["corrupt"] == 1
        assert not doc["clean"]

    def test_api_facade(self, tmp_path):
        from repro import api

        engine = _engine(tmp_path / "c")
        result = api.run_doctor(engine=engine)
        assert result.data["clean"]
        assert "doctor: 0 problem(s)" in result.text


# ----------------------------------------------------------------------
# Telemetry: `repro cache stats` surfaces the health counters.


class TestIntegrityTelemetry:
    def test_cache_stats_reports_counters(self, capsys, tmp_path):
        root = tmp_path / "cache"
        assert main(["figure13", "--scale", "600",
                     "--cache-dir", str(root)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(root),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for store in ("results", "traces"):
            assert doc[store]["policy"] == "repair"
            assert doc[store]["quarantined"] == 0
            assert set(doc[store]["integrity"]) == {
                "verified", "repaired", "quarantined"}

    def test_engine_summary_reports_counters(self, tmp_path):
        engine = _engine(tmp_path / "c")
        engine.run(_specs()[:1])
        integrity = engine.summary()["integrity"]
        assert set(integrity) == {"results", "traces"}
        assert integrity["results"]["quarantined"] == 0

    def test_prune_leaves_zero_quarantine(self, tmp_path):
        specs = _specs()
        root = tmp_path / "victim"
        _engine(root).run(specs)
        for i, path in enumerate(_store_files(root, "*.json")):
            corrupt_file(path, seed=i, kind="truncate")
        healed = _engine(root)
        healed.run(specs)  # re-records over the quarantined entries
        assert quarantined_entries(root)
        healed.cache.prune()
        healed.trace_store.prune()
        assert not quarantined_entries(root)
        assert not quarantined_entries(healed.trace_store.root)
        assert not (pathlib.Path(root) / "quarantine").exists()
