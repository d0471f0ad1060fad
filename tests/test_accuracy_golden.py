"""Golden digests of the Section 4 accuracy outputs.

Figures 9 and 10 and the Section 4.2 tap and AND-input sensitivity
sweeps are pure functions of two generators: the DaCapo method-
invocation streams (:func:`~repro.workloads.dacapo.event_chunks`) and
the branch-on-random sample positions
(:class:`~repro.sampling.positions.BrrPositionStream`).  These tests
pin the sha256 of each command's canonical ``data`` and of every
benchmark's raw event stream, on an engine with the result cache and
trace store switched off, so a speed change to either generator must
leave every digest here unchanged.
"""

import hashlib
import json

import pytest

from repro import api
from repro.engine import ExperimentEngine
from repro.engine.cache import ResultCache
from repro.engine.tracestore import TraceStore
from repro.experiments.sensitivity import (
    bit_policy_sensitivity,
    taps_sensitivity,
)
from repro.workloads.dacapo import DACAPO_BENCHMARKS, event_chunks

SCALE = 0.002
SENSITIVITY_SCALE = 0.001


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def engine(tmp_path):
    return ExperimentEngine(
        cache=ResultCache(tmp_path / "cache", enabled=False),
        trace_store=TraceStore(tmp_path / "traces", enabled=False))


#: sha256 of ``api.run_figure<N>(scale=SCALE, seed=seed).data``.
FIGURE_DIGESTS = {
    ("figure9", 0):
        "c5d77b58898162387ce5234d29ac108c09f31b3539a0d3f96ebd49cec8d7b9c0",
    ("figure9", 1):
        "bdc6d2c86e25cbc35458db5620eb300b7ed77c00a573ffca64073823b256aec7",
    ("figure10", 0):
        "4ae1ac8cf4573292fbcce5bc035b6c9bbec113d9f4ff46fb7a0e196210e8aa34",
    ("figure10", 1):
        "9f7434bcfa7bb4202b1cb2b4fb306521b3ac9370b5f6046ddb2deae9e44eaf0d",
}

#: sha256 of the sensitivity results' ``to_dict()`` at
#: ``SENSITIVITY_SCALE`` over seeds 0 and 1: the paper's four 32-bit
#: tap sets, and both AND-input policies on a 20-bit register.
SENSITIVITY_DIGESTS = {
    "taps":
        "a68edd442feb3b8f569297761c211afb4c8f8cbf71c07d25ded3d9661a6964c6",
    "bit_policy":
        "3fc47df620b68300083d554207d5ff8e4b4395f0d1bef1d244fd4dd48ad47423",
}

#: sha256 of each benchmark's concatenated int32 event stream at
#: ``SCALE``, seed 0, and its event count.
STREAM_DIGESTS = {
    "fop": (
        "acbc54730266ba1c7fa8c221d09363b57a1ab0f37f019fabb110b44b84579053",
        14000),
    "antlr": (
        "33763790968a4104188e2a2afc13144970bea52721b0fbff9af1f7b3fd841f4e",
        34000),
    "bloat": (
        "e5e5caf41fe22ef46468e113d7da854107b9817d2f8a7eb2195b79ee60e893df",
        186000),
    "lusearch": (
        "42d6892e5bca8f00ef6f8bb27f7a4e1957183b330bb081bc3d81dc649fc78be9",
        216000),
    "xalan": (
        "e6d4baf1631c921ec1ef6ee6b650aa04ec61cec89bec9e6587fa0dbfa9442af8",
        218000),
    "jython": (
        "a506d127c3c781bb6e7a311587669e2e7bf355b3717a99f86f403da842789b1b",
        340000),
    "pmd": (
        "8699629a90c1c63ff30b7f8f9b4629f70f8d618ef67cb22baf6b5a2ddef5c0be",
        390000),
    "luindex": (
        "fcef89a4c191b7f253655c27ecff959498078c0e086838ebfd500f55f3fa018c",
        424000),
}


class TestFigureDigests:
    @pytest.mark.parametrize("figure,seed", sorted(FIGURE_DIGESTS))
    def test_figure_data(self, engine, figure, seed):
        run = getattr(api, f"run_{figure}")
        data = run(scale=SCALE, seed=seed, engine=engine).data
        assert _digest(data) == FIGURE_DIGESTS[(figure, seed)]


class TestSensitivityDigests:
    def test_taps(self, engine):
        result = taps_sensitivity(scale=SENSITIVITY_SCALE, seeds=(0, 1),
                                  engine=engine)
        assert _digest(result.to_dict()) == SENSITIVITY_DIGESTS["taps"]

    def test_bit_policy(self, engine):
        result = bit_policy_sensitivity(scale=SENSITIVITY_SCALE,
                                        seeds=(0, 1), engine=engine)
        assert _digest(result.to_dict()) == \
            SENSITIVITY_DIGESTS["bit_policy"]


class TestStreamDigests:
    @pytest.mark.parametrize("spec", DACAPO_BENCHMARKS,
                             ids=[spec.name for spec in DACAPO_BENCHMARKS])
    def test_event_stream(self, spec):
        digest = hashlib.sha256()
        events = 0
        for chunk in event_chunks(spec, scale=SCALE, seed=0):
            assert chunk.dtype.name == "int32"
            digest.update(chunk.tobytes())
            events += chunk.size
        assert (digest.hexdigest(), events) == STREAM_DIGESTS[spec.name]

    @pytest.mark.parametrize("spec", DACAPO_BENCHMARKS[-3:],
                             ids=lambda spec: spec.name)
    def test_small_chunks_cut_the_same_stream(self, spec):
        """Chunks far smaller than a segment (patterned or drawn) are
        full-sized slices of the pinned stream."""
        digest = hashlib.sha256()
        chunks = list(event_chunks(spec, scale=SCALE, seed=0,
                                   chunk_size=4096))
        for chunk in chunks:
            digest.update(chunk.tobytes())
        assert all(chunk.size == 4096 for chunk in chunks[:-1])
        assert 0 < chunks[-1].size <= 4096
        assert (digest.hexdigest(), sum(c.size for c in chunks)) == \
            STREAM_DIGESTS[spec.name]

