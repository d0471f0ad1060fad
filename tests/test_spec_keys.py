"""Golden digests of window-spec identities.

A :class:`~repro.engine.spec.WindowSpec`'s ``cache_key`` names its
stored result, its trace and its ledger lines, and ``label()`` is the
name the ledger and error messages print.  These tests pin the sha256
of the ordered key and label lists of every window the served request
mix builds (Figures 13/14/2, the sampled Figure 13, Figure 12 and
Figures 9/10), of the timing-configuration sweep, of the scorecard
bench windows and of one adversarial window, plus the keys of a few
edge-case parameter values.  A change to how specs are built,
canonicalised, hashed or labelled must leave every digest here
unchanged, or every stored result and ledger would move.

The specs are captured through the figures' own entry points: an
engine whose ``run`` records the specs it is handed and stops.
"""

import hashlib
import json
from enum import IntEnum

import pytest

from repro import api
from repro.engine import SCHEMA_VERSION, ExperimentEngine, WindowSpec
from repro.engine.cache import ResultCache
from repro.engine.spec import KEY_MEMO_LIMIT
from repro.engine.tracestore import TraceStore
from repro.experiments.bench_timing import scorecard_bench_specs
from repro.experiments.entropy import adversarial_window_spec
from repro.experiments.sensitivity import timing_config_sweep


class _Captured(Exception):
    pass


class _SpecSpy(ExperimentEngine):
    """An engine that keeps the specs of its first batch and stops."""

    def run(self, specs):
        self.captured = list(specs)
        raise _Captured


@pytest.fixture
def spy(tmp_path):
    return _SpecSpy(cache=ResultCache(root=tmp_path, enabled=False),
                    trace_store=TraceStore(tmp_path / "traces",
                                           enabled=False))


def _capture(spy, runner, **params):
    with pytest.raises(_Captured):
        runner(engine=spy, **params)
    return spy.captured


def _digests(specs):
    def sha(lines):
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    return (len(specs), sha(spec.cache_key for spec in specs),
            sha(spec.label() for spec in specs))


def _served(spy):
    """Every window population of the served request mix."""
    cases = {}
    for seed in (1, 7):
        for command in ("figure13", "figure14", "figure2"):
            cases[f"{command}/48/seed{seed}"] = _capture(
                spy, getattr(api, f"run_{command}"), scale=48, seed=seed)
        cases[f"figure13/48/seed{seed}/fraction:0.5"] = _capture(
            spy, api.run_figure13, scale=48, seed=seed,
            sample="fraction:0.5")
    for scale in (0.25, 0.5):
        for interval in (256, 1024):
            cases[f"figure12/{scale}/{interval}"] = _capture(
                spy, api.run_figure12, scale=scale, interval=interval)
    for interval in (256, 1024):
        cases[f"figure12/0.25/{interval}/budget:1"] = _capture(
            spy, api.run_figure12, scale=0.25, interval=interval,
            sample="budget:1")
    for seed in (0, 1):
        for command in ("figure9", "figure10"):
            cases[f"{command}/0.002/seed{seed}"] = _capture(
                spy, getattr(api, f"run_{command}"), scale=0.002, seed=seed)
    return cases


#: name -> (spec count, sha256 of the keys, sha256 of the labels),
#: recorded before the spec memo and the ``_canonical`` fast path.
POPULATIONS = {
    "figure13/48/seed1": (
        82, "f87f68ff9ab047e1d95a16a8a5f3ff8b3effdb3385e6251137210aacfe62742d",
        "c9e025ae3207d38ca5835e3b67caa08ba4e847fb910059b8b42eec4e25cf79df"),
    "figure14/48/seed1": (
        82, "f87f68ff9ab047e1d95a16a8a5f3ff8b3effdb3385e6251137210aacfe62742d",
        "c9e025ae3207d38ca5835e3b67caa08ba4e847fb910059b8b42eec4e25cf79df"),
    "figure2/48/seed1": (
        82, "f87f68ff9ab047e1d95a16a8a5f3ff8b3effdb3385e6251137210aacfe62742d",
        "c9e025ae3207d38ca5835e3b67caa08ba4e847fb910059b8b42eec4e25cf79df"),
    "figure13/48/seed1/fraction:0.5": (
        41, "c48810ef782b7a3427b4967f887cfc1e040c2913e400646d0c0cb64c9021ae72",
        "b1d363fd46840371e67faba6a6330f88984cd2315b66e1fc60b73cc71d225228"),
    "figure13/48/seed7": (
        82, "2a38de1f1a8f6e71af2ede5876c8b81b63df6556804d5abe2be0cef180cb39eb",
        "b4514cae2144a78c06079a0f418cbe3ed82db2cf4e3901b62fe1d09e0a563592"),
    "figure14/48/seed7": (
        82, "2a38de1f1a8f6e71af2ede5876c8b81b63df6556804d5abe2be0cef180cb39eb",
        "b4514cae2144a78c06079a0f418cbe3ed82db2cf4e3901b62fe1d09e0a563592"),
    "figure2/48/seed7": (
        82, "2a38de1f1a8f6e71af2ede5876c8b81b63df6556804d5abe2be0cef180cb39eb",
        "b4514cae2144a78c06079a0f418cbe3ed82db2cf4e3901b62fe1d09e0a563592"),
    "figure13/48/seed7/fraction:0.5": (
        41, "1af6788610e1bbba33eb7e29abcb0afcf3fe0752ce41d9d16c0f053d0c52754a",
        "248cace880951d8fac29ba979e31a8cd2239ce1024c654ca3cf2f8150357c785"),
    "figure12/0.25/256": (
        15, "9cea169b23bdbe988ae52839d7a0a408591ea70833a6f4f5312b6c83797f69aa",
        "788e4d033b8abe8421d90f396264e124b4f2a9d615ecfbe92c68e2ca9c4d7813"),
    "figure12/0.25/1024": (
        15, "412c53f056f116927967017853ed153ff4e2c60ce9e7310d3174820361d0e963",
        "401fb95ee91ececb7a8e87554c06952c817c35e0e3adc1d4a7ab05694259a941"),
    "figure12/0.5/256": (
        15, "54d22336cb8d9c829938b73567d06df5306d471fc8cbd2267c76c7c8d6fd98c6",
        "0cc64f4311e6f859dc91bbfc803b88a5edd81cf24a61a21d4dfac00d5c7c0856"),
    "figure12/0.5/1024": (
        15, "7f889b8abccf996e00d32444c19d47a2b0d11558e9783cb7e3fe9d8442f74095",
        "a46c6939da9d5eaa19396162f5d29f735a8f83bd780f0695baba5dbd6df8d375"),
    "figure12/0.25/256/budget:1": (
        3, "0e27f031a2494a5225a248a36765c4d76a6a5d683ba1887954bbb04e2ae27c78",
        "60438fd0e6b691cf0e764ce42660ce090105e748b826ffca489641643ffc928c"),
    "figure12/0.25/1024/budget:1": (
        3, "e5533cc516bdcc4c07278a0556ef6d2f92726ff8a5bcbe84958dffa98317df1b",
        "533399e2e5b40c12dd65bd777fefcdb392e00d4382fd0b9f9ce39da0c6f50c2d"),
    "figure9/0.002/seed0": (
        24, "733375c36c716fe8850bdb42990035256c85fb3465dcd263e69ff5aff74196ea",
        "89d07ad9a122a392001a20142b85a083d9299a04ae43c67cbcbd7163433afe55"),
    "figure10/0.002/seed0": (
        24, "9b12b89b72e471ad8070a1c285802c05bca9a3c4c72f626c4fbd03f1cc3a3638",
        "ae13ddc26c5b54e13e543444ca8e0a82a0471f59c7620ec98fa1796a1a3a55f5"),
    "figure9/0.002/seed1": (
        24, "36854dc4fef6aaeec0384714fb8dadbde12e9b3a1703d64f95258234c010c932",
        "8190bc8f64139cb37f3a815c2bdd5b7ce2eaba941129164a9251ce2da1e3ffe2"),
    "figure10/0.002/seed1": (
        24, "99985517ea276262ed76bf5b9ce7721997aa1b3e7a47ca9250716ae36d3a0797",
        "eff27b2dea5a32285db459dd8fbf3047249857971402ae170501b2ed3dbb360f"),
    "timing_config_sweep": (
        6, "a7241f7b8b5fd9b8cb9bb00f3bd73e0a5de720661dd9b5fc807dc16b990be58c",
        "d021d39545057f0ae4eff5e356ef7847bbce28a51f342f147582db5e0dd19f4d"),
    "scorecard_bench": (
        19, "2b9156b149c406c2ecf124276cd1b2ec3d64a979b3ff1d49524eee065d0aacf3",
        "71bf15f0f76d84627e4d2229e4c77b719de4dd2e087bc068867ff332cd5ff2ff"),
}


def test_served_population_keys_and_labels(spy):
    got = {name: _digests(specs) for name, specs in _served(spy).items()}
    assert got == {name: POPULATIONS[name] for name in got}


def test_timing_config_sweep_keys_and_labels(spy):
    specs = _capture(spy, lambda engine: timing_config_sweep(engine=engine))
    assert _digests(specs) == POPULATIONS["timing_config_sweep"]


def test_scorecard_bench_keys_and_labels():
    assert _digests(scorecard_bench_specs()) == POPULATIONS["scorecard_bench"]


ADVERSARIAL = (
    "999338855c7493d468a2b57ba3bd1e0ef1fd68b51dd947e290073bd51acf2f3c",
    "adversarial(scheme=brr, seed=3)")


def test_adversarial_key_and_label():
    spec = adversarial_window_spec("brr", 0.25, iterations=32,
                                   history_bits=12, history_stress=2,
                                   call_depth=1, seed=3)
    assert (spec.cache_key, spec.label()) == ADVERSARIAL


class _Level(IntEnum):
    LOW = 1


#: Edge-case parameter values and the keys they hash to.
EDGE_KEYS = {
    "true": "17beef2a78681b5f4bf2b7471c82ee513c28b016df58fcf2ee8d17ea9b28fed5",
    "one": "e6c914e84e25f1186dff904adc36f314cb618498785b0e3614fc508176329da3",
    "one_float": "c29c5a0984aa00fb7ccfc99bdc7cfb0611303176a0de4a6f49f13f11093f7790",
    "none": "ab928cd1c32808d4a167cf2140130190e2e9c1b794ece2b009eb38380031ce3a",
    "nested": "a1b34319937ebcebcad67eef6ad6fc329c20a754dcdb183ba65275f4eb1af89d",
    "empty_dict": "89a9783cc586e3536375bbd7abf46973499e129e4633a2b438b1b06163248b1e",
}


def _edge_specs():
    return {
        "true": WindowSpec.make("edge", interval=True),
        "one": WindowSpec.make("edge", interval=1),
        "one_float": WindowSpec.make("edge", interval=1.0),
        "none": WindowSpec.make("edge", interval=None),
        "nested": WindowSpec.make(
            "edge", interval=4,
            config={"b": [1, 2.5, {"c": None, "a": (True, "x")}],
                    "a": {"z": [], "y": -3}}),
        "empty_dict": WindowSpec.make("edge", config={}),
    }


def test_edge_keys():
    specs = _edge_specs()
    assert {name: spec.cache_key for name, spec in specs.items()} \
        == EDGE_KEYS
    # bool, int and float stay distinct identities.
    assert len({specs[name].cache_key
                for name in ("true", "one", "one_float")}) == 3
    assert specs["none"].label() == "edge()"
    assert specs["true"].label() == "edge(interval=True)"
    assert specs["one_float"].label() == "edge(interval=1.0)"


def test_int_enum_value_keeps_its_identity():
    spec = WindowSpec.make("edge", interval=_Level.LOW)
    assert spec.cache_key == EDGE_KEYS["one"]
    assert spec.param("interval") is _Level.LOW
    assert spec.label() == f"edge(interval={_Level.LOW})"


def test_key_and_label_are_stable_per_instance():
    spec = _edge_specs()["nested"]
    assert spec.cache_key == spec.cache_key == EDGE_KEYS["nested"]
    assert spec.label() == spec.label()
    twin = WindowSpec.make("edge", **spec.params_dict())
    assert twin == spec and hash(twin) == hash(spec)
    assert twin.cache_key == spec.cache_key


# ----------------------------------------------------------------------
# The process-wide digest memo: keyed by the exact canonical form, so
# parameters that compare equal but hash to different keys never share
# an entry.

#: Keys of values the memo must keep apart, beside ``EDGE_KEYS``.
MEMO_KEYS = {
    "one_str": "8cff51ee82cff69486724a951ea37cf2b7616d1c19563583558a7754fdb964dc",
    "pairs": "c3265d78584e4b20323e196c5df11edac033f3b6cd7f97e6e38d5746c1a54af9",
}


@pytest.fixture
def key_memo(monkeypatch):
    """An empty memo for one test."""
    from repro.engine import spec as spec_module

    memo = {}
    monkeypatch.setattr(spec_module, "_key_memo", memo)
    return memo


_EQUAL_VALUES = {"one": 1, "true": True, "one_float": 1.0, "one_str": "1"}


@pytest.mark.parametrize("order", [
    ("one", "true", "one_float", "one_str"),
    ("one_str", "one_float", "true", "one"),
    ("true", "one", "one_str", "one_float"),
])
def test_memo_keeps_equal_values_apart(key_memo, order):
    pinned = dict(EDGE_KEYS, **MEMO_KEYS)
    for _ in range(2):  # the second pass reads every key from the memo
        keys = {name: WindowSpec.make("edge",
                                      interval=_EQUAL_VALUES[name]).cache_key
                for name in order}
        assert keys == {name: pinned[name] for name in order}
    assert len(set(keys.values())) == 4
    assert len(key_memo) == 4


def test_memo_keeps_pinned_enum_and_pair_keys(key_memo):
    for _ in range(2):
        assert WindowSpec.make("edge", interval=1).cache_key \
            == EDGE_KEYS["one"]
        assert WindowSpec.make("edge", interval=_Level.LOW).cache_key \
            == EDGE_KEYS["one"]
        assert WindowSpec.make("edge", config=[("a", 1)]).cache_key \
            == MEMO_KEYS["pairs"]
        assert WindowSpec.make("edge", config={"a": 1}).cache_key \
            == MEMO_KEYS["pairs"]


def _reference_key(kind, params):
    blob = json.dumps({"schema": SCHEMA_VERSION, "kind": kind,
                       "params": params},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_memo_past_its_bound_still_returns_correct_keys(key_memo):
    total = KEY_MEMO_LIMIT + 300
    params = [{"interval": index, "scale": index / 8}
              for index in range(total)]
    for _ in range(2):  # the second pass finds the first specs evicted
        for index in (0, 1, 299, 300, total - 1):
            spec = WindowSpec.make("edge", **params[index])
            assert spec.cache_key == _reference_key("edge", params[index])
        for entry in params:
            WindowSpec.make("edge", **entry).cache_key
        assert len(key_memo) == KEY_MEMO_LIMIT
    assert WindowSpec.make("edge", interval=True).cache_key \
        == EDGE_KEYS["true"]
