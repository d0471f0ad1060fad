"""The ``repro serve`` multi-tenant simulation service.

The tentpole contract (satellite coverage): N concurrent identical
requests coalesce onto exactly one simulation and receive
byte-identical JSON; the served document's ``data`` matches a local
``repro.api`` run of the same command byte-for-byte; validation
failures are clean 400s; ``/healthz`` and ``/statsz`` expose liveness
and the serve + store-tier counters.
"""

import asyncio
import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.engine import EngineConfig, ExperimentEngine, ResultCache
from repro.serve import (
    RequestError,
    ServerThread,
    SimulationService,
    request_key,
)
from repro.serve.service import validate_request

SCALE = 400  # characters: small enough for sub-second microbenchmarks


def _engine(tmp_path):
    return ExperimentEngine(
        config=EngineConfig(jobs=1),
        cache=ResultCache(tmp_path / "cache"))


@pytest.fixture()
def server(tmp_path):
    with ServerThread(SimulationService(engine=_engine(tmp_path))) as thread:
        yield thread


def _get(server, path):
    return urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=120)


def _post(server, document):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/v1/figure",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    return urllib.request.urlopen(request, timeout=120)


# ----------------------------------------------------------------------
# Request validation and canonicalisation (no server needed).


class TestValidation:
    def test_unknown_command_rejected(self):
        with pytest.raises(RequestError, match="unknown command"):
            validate_request("rm_rf", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(RequestError, match="unknown parameter"):
            validate_request("figure13", {"bogus": 1})

    def test_bad_value_rejected(self):
        with pytest.raises(RequestError, match="bad value"):
            validate_request("figure13", {"scale": "many"})
        with pytest.raises(RequestError, match="bad value"):
            validate_request("figure13", {"scale": "400.5"})

    def test_coercion_canonicalises(self):
        # "2" and 2 and 2.0 are the same request.
        keys = {request_key("figure12", validate_request(
            "figure12", {"scale": raw})) for raw in ("2", 2, 2.0)}
        assert len(keys) == 1

    def test_seed_lists_from_query_and_json(self):
        from_query = validate_request("figure9", {"seeds": "0,1,2"})
        from_json = validate_request("figure9", {"seeds": [0, 1, 2]})
        assert from_query == from_json
        assert request_key("figure9", from_query) \
            == request_key("figure9", from_json)

    def test_param_order_does_not_matter(self):
        a = validate_request("figure12", {"scale": 2, "interval": 512})
        b = validate_request("figure12", {"interval": 512, "scale": 2})
        assert request_key("figure12", a) == request_key("figure12", b)

    def test_new_command_knobs_reach_the_request_key(self):
        # Regression: requests differing only in a new command's knob
        # must NOT coalesce — every whitelisted knob has to land in the
        # canonical key.
        fuzz_keys = {request_key("fuzz", validate_request(
            "fuzz", {"scheme": scheme, "windows": 5}))
            for scheme in ("cbs", "brr", "mixed")}
        assert len(fuzz_keys) == 3
        entropy_keys = {request_key("entropy", validate_request(
            "entropy", {"stride": stride})) for stride in (4, 8)}
        assert len(entropy_keys) == 2

    def test_scheme_choice_is_validated(self):
        with pytest.raises(RequestError, match="bad value"):
            validate_request("fuzz", {"scheme": "surprise"})
        assert validate_request("fuzz", {"scheme": " BRR "}) \
            == {"scheme": "brr"}

    def test_whitelist_matches_facade_signatures(self):
        # Audit: every whitelisted parameter must be a keyword of its
        # facade function, and every facade keyword (minus the engine
        # plumbing) must be whitelisted — so a knob added to the API
        # can never silently coalesce across distinct values.
        import inspect

        from repro.serve.service import COMMANDS

        for command, allowed in COMMANDS.items():
            signature = inspect.signature(getattr(api, f"run_{command}"))
            facade = {name for name in signature.parameters
                      if name != "engine"}
            assert set(allowed) == facade, command


# ----------------------------------------------------------------------
# Coalescing (service level, no sockets).


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_simulation(
            self, tmp_path):
        service = SimulationService(engine=_engine(tmp_path))

        async def fan_out():
            return await asyncio.gather(*[
                service.submit("figure13", {"scale": SCALE})
                for _ in range(6)])

        results = asyncio.new_event_loop().run_until_complete(fan_out())
        assert service.counters.requests == 6
        assert service.counters.simulations == 1
        assert service.counters.coalesced == 5
        documents = {json.dumps(r.document(), sort_keys=True)
                     for r in results}
        assert len(documents) == 1
        assert sum(r.coalesced for r in results) == 5

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        service = SimulationService(engine=_engine(tmp_path))

        async def fan_out():
            return await asyncio.gather(
                service.submit("figure13", {"scale": SCALE}),
                service.submit("figure14", {"scale": SCALE}))

        asyncio.new_event_loop().run_until_complete(fan_out())
        assert service.counters.simulations == 2
        assert service.counters.coalesced == 0

    def test_sequential_requests_recompute_through_engine_cache(
            self, tmp_path):
        """After the in-flight window closes, a repeat request runs
        again — but its simulation windows are engine-cache hits."""
        service = SimulationService(engine=_engine(tmp_path))
        loop = asyncio.new_event_loop()
        loop.run_until_complete(service.submit("figure13", {"scale": SCALE}))
        loop.run_until_complete(service.submit("figure13", {"scale": SCALE}))
        assert service.counters.simulations == 2
        summary = service.engine.summary()
        assert summary["cache_hits"] > 0


# ----------------------------------------------------------------------
# The HTTP surface.


class TestHttp:
    def test_healthz(self, server):
        with _get(server, "/healthz") as response:
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_concurrent_identical_requests_byte_identical(self, server):
        path = f"/v1/figure/figure13?scale={SCALE}"
        with ThreadPoolExecutor(6) as pool:
            bodies = list(pool.map(
                lambda _: _get(server, path).read(), range(6)))
        assert len(set(bodies)) == 1
        stats = json.loads(_get(server, "/statsz").read())
        assert stats["serve"]["simulations"] == 1
        assert stats["serve"]["coalesced"] == 5
        assert stats["serve"]["requests"] == 6

    def test_get_and_post_agree(self, server):
        get_body = _get(server, f"/v1/figure/figure13?scale={SCALE}").read()
        post_body = _post(server, {
            "command": "figure13", "params": {"scale": SCALE}}).read()
        assert get_body == post_body

    def test_served_data_matches_local_api(self, server, tmp_path):
        body = json.loads(_get(
            server, f"/v1/figure/figure13?scale={SCALE}").read())
        local = api.run_figure13(
            scale=SCALE,
            engine=ExperimentEngine(
                config=EngineConfig(jobs=1),
                cache=ResultCache(tmp_path / "local")))
        assert json.dumps(body["data"], sort_keys=True) \
            == json.dumps(local.data, sort_keys=True)
        assert body["text"] == local.text

    def test_validation_errors_are_400(self, server):
        for path in ("/v1/figure/rm_rf",
                     "/v1/figure/figure13?bogus=1",
                     f"/v1/figure/figure13?scale=lots",
                     "/v1/figure"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, path)
            assert excinfo.value.code == 400
            assert "error" in json.loads(excinfo.value.read())
        stats = json.loads(_get(server, "/statsz").read())
        assert stats["serve"]["rejected"] >= 3
        assert stats["serve"]["simulations"] == 0

    def test_statsz_surfaces_store_tiers(self, server):
        _get(server, f"/v1/figure/figure13?scale={SCALE}").read()
        stats = json.loads(_get(server, "/statsz").read())
        for store in ("results", "traces"):
            assert set(stats["stores"][store]) \
                == {"memory", "disk", "integrity"}
        assert stats["engine"]["windows"] > 0

    def test_post_with_malformed_body_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/figure",
            data=b"{not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
