"""The cross-path differential fuzzing harness (``repro.fuzz``).

The load-bearing test is the seeded known-divergence self-test: an
injected fault (via the harness's ``fault=`` seam) must be *detected*
as a divergence on the right comparison and *shrunk* to a minimal
program that still triggers it — proving the harness would catch a
real cross-path bug, not just agree with itself.
"""

import json

import pytest

from repro.fuzz import (
    DEFAULT_CONFIGS,
    TIMING_PAIRS,
    format_fuzz,
    run_differential_fuzz,
)
from repro.workloads.adversarial import build_adversarial


def _seed_with_brr(blocks=10, limit=40):
    """First window seed whose generated program contains a brr block
    (the content hook the injected fault below keys on)."""
    for seed in range(limit):
        if build_adversarial(scheme="mixed", seed=seed,
                             blocks=blocks).uses_brr:
            return seed
    raise AssertionError("no brr block in any candidate seed")


class TestCleanRuns:
    def test_mixed_windows_have_zero_divergences(self):
        report = run_differential_fuzz(windows=4, seed=0, blocks=10)
        assert not report.failed
        assert report.divergences == []
        # Per window: |TIMING_PAIRS| per config + the functional pair
        # + the recorded-vs-decoded columns pair.
        per_window = len(DEFAULT_CONFIGS) * len(TIMING_PAIRS) + 2
        assert report.comparisons == 4 * per_window

    @pytest.mark.parametrize("scheme", ["cbs", "brr"])
    def test_grid_schemes_agree_too(self, scheme):
        report = run_differential_fuzz(windows=1, seed=0, scheme=scheme,
                                       blocks=6)
        assert not report.failed

    def test_determinism(self):
        first = run_differential_fuzz(windows=2, seed=5, blocks=8)
        second = run_differential_fuzz(windows=2, seed=5, blocks=8)
        assert first.to_dict() == second.to_dict()

    def test_format_reports_agreement(self):
        report = run_differential_fuzz(windows=1, seed=0, blocks=6)
        assert "0 divergences" in format_fuzz(report)


class TestKnownDivergenceSelfTest:
    def test_injected_fault_is_detected_and_shrunk(self):
        seed = _seed_with_brr()

        def fault(path, source, payload):
            # A content-dependent fault: the loop kernel "miscounts"
            # cycles whenever the program contains a brr block, so the
            # minimal reproducer must retain at least one.
            if path == "loop" and "brr 1/" in source:
                payload = dict(payload, cycles=payload["cycles"] + 7)
            return payload

        report = run_differential_fuzz(windows=1, seed=seed, blocks=10,
                                       fault=fault)
        assert report.failed
        comparisons = {d.comparison for d in report.divergences}
        assert comparisons == {f"{name}:loop-vs-golden"
                               for name, _ in DEFAULT_CONFIGS}
        shrunk = [d for d in report.divergences
                  if d.shrunk_source is not None]
        assert shrunk
        divergence = shrunk[0]
        assert divergence.fields == ["cycles"]
        assert divergence.shrunk_blocks < divergence.blocks
        # The minimal program still triggers the fault's content hook.
        assert "brr 1/" in divergence.shrunk_source

    def test_functional_fault_hits_trap_comparison(self):
        def fault(path, source, payload):
            if path == "functional:trap":
                payload = dict(payload, checksum=payload["checksum"] ^ 1)
            return payload

        report = run_differential_fuzz(windows=1, seed=0, blocks=8,
                                       shrink=False, fault=fault)
        assert report.failed
        assert (report.divergences[0].comparison
                == "functional:trap-vs-native")
        assert report.divergences[0].fields == ["checksum"]
        assert report.divergences[0].shrunk_source is None

    def test_columns_fault_hits_columns_comparison(self):
        def fault(path, source, payload):
            if path == "columns:recorded":
                payload = dict(payload, has_trapped=True)
            return payload

        report = run_differential_fuzz(windows=1, seed=0, blocks=6,
                                       shrink=False, fault=fault)
        assert [d.comparison for d in report.divergences] \
            == ["columns:recorded-vs-decoded"]
        assert report.divergences[0].fields == ["has_trapped"]

    def test_report_round_trips_through_json(self):
        def fault(path, source, payload):
            if path == "vector":
                payload = dict(payload, cycles=payload["cycles"] + 1)
            return payload

        report = run_differential_fuzz(windows=1, seed=1, blocks=6,
                                       shrink=False, fault=fault)
        document = json.loads(json.dumps(report.to_dict()))
        assert document["failed"] is True
        assert document["divergences"][0]["details"]["cycles"][0] != \
            document["divergences"][0]["details"]["cycles"][1]
        assert "FAIL" in format_fuzz(report)


class TestServeDiff:
    """``serve_diff=True``: an ephemeral ``repro serve`` instance must
    answer every fuzzed window byte-for-byte like the local façade."""

    @pytest.fixture(autouse=True)
    def _hermetic_cache(self, tmp_path, monkeypatch):
        # The ephemeral server builds a default engine; keep its cache
        # out of the real ~/.cache/repro.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_served_windows_match_local_byte_for_byte(self):
        report = run_differential_fuzz(windows=2, seed=0, blocks=6,
                                       serve_diff=True)
        assert not report.failed
        assert report.serve_checked == 2
        assert ", 2 served-vs-local" in format_fuzz(report)

    def test_serve_diff_defaults_off(self):
        report = run_differential_fuzz(windows=1, seed=0, blocks=6)
        assert report.serve_checked == 0
        assert "served-vs-local" not in format_fuzz(report)

    def test_local_perturbation_is_detected_and_shrunk(self):
        def serve_fault(window_seed, blocks, body):
            # Corrupt the *local* reference: the harness must notice
            # the served body no longer matches, at every block count.
            return body.replace(b'"failed"', b'"fialed"')

        report = run_differential_fuzz(windows=1, seed=0, blocks=6,
                                       serve_diff=True,
                                       serve_fault=serve_fault)
        assert report.failed
        divergence = report.divergences[-1]
        assert divergence.comparison == "serve:served-vs-local"
        assert divergence.fields == ["body"]
        served, local = divergence.details["body"]
        assert served != local
        assert served.startswith("sha256:")
        # ddmin shrank the block budget to the 1-minimal reproducer.
        assert divergence.shrunk_blocks == 1

    def test_report_serialises_the_serve_counter(self):
        report = run_differential_fuzz(windows=1, seed=0, blocks=6,
                                       serve_diff=True)
        document = json.loads(json.dumps(report.to_dict()))
        assert document["serve_checked"] == 1
        assert document["failed"] is False
