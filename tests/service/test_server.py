"""The async multi-tenant HTTP front end: routes, pinning, admission.

Exercises :mod:`repro.service.server` over real HTTP (the server on a
background thread via ``run_in_thread``, clients on ``http.client`` /
``urllib``), plus the closed-loop load generator and its differential
oracle (:mod:`repro.service.loadgen`) in-loop.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpq import Theory
from repro.service import RPQServer, TenantConfig, run_in_thread
from repro.service.loadgen import (
    make_tenant_workload,
    replay_oracle,
    run_loadgen,
)
from repro.service.server import Tenant


def _tenant_config(**overrides) -> TenantConfig:
    knobs = dict(
        views={"q1": "a", "q2": "b"},
        theory=Theory.trivial({"a", "b"}),
        extensions={"q1": [("u", "v"), ("w", "v")], "q2": [("v", "z")]},
    )
    knobs.update(overrides)
    return TenantConfig(**knobs)


def _request(url: str, method: str, path: str, payload=None):
    """One HTTP exchange; returns (status, decoded JSON body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, (json.loads(body) if body else {})


@pytest.fixture
def served():
    server = RPQServer({"alpha": _tenant_config()})
    handle = run_in_thread(server)
    try:
        yield server, handle.url
    finally:
        handle.stop()


class TestEndpoints:
    def test_health_reports_every_tenant(self, served):
        _server, url = served
        status, body = _request(url, "GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["tenants"]["alpha"]["version"] >= 1
        assert body["tenants"]["alpha"]["pending"] == 0

    def test_all_pairs_query_with_version_pin(self, served):
        server, url = served
        status, body = _request(url, "POST", "/tenants/alpha/query", {"query": "a.b"})
        assert status == 200
        assert body["mode"] == "all"
        assert body["version"] == server.tenants["alpha"].store.version
        assert body["answers"] == [["u", "z"], ["w", "z"]]

    def test_single_source_and_pair_modes(self, served):
        _server, url = served
        status, body = _request(
            url, "POST", "/tenants/alpha/query", {"query": "a.b", "source": "u"}
        )
        assert (status, body["mode"], body["targets"]) == (200, "single_source", ["z"])
        status, body = _request(
            url,
            "POST",
            "/tenants/alpha/query",
            {"query": "a.b", "source": "u", "target": "z"},
        )
        assert (status, body["mode"], body["found"]) == (200, "pair", True)
        status, body = _request(
            url,
            "POST",
            "/tenants/alpha/query",
            {"query": "a.b", "source": "u", "target": "u"},
        )
        assert (status, body["found"]) == (200, False)

    def test_update_flows_into_answers(self, served):
        server, url = served
        before = server.tenants["alpha"].store.version
        status, body = _request(
            url,
            "POST",
            "/tenants/alpha/update",
            {
                "ops": [
                    {"op": "insert", "symbol": "q1", "source": "x", "target": "v"},
                    {"op": "delete", "symbol": "q1", "source": "w", "target": "v"},
                ]
            },
        )
        assert status == 200
        assert body["applied"] == 2
        assert body["requested"] == 2
        assert body["seq"] == 1
        assert body["version"] == before + 2
        status, body = _request(url, "POST", "/tenants/alpha/query", {"query": "a.b"})
        assert status == 200
        assert body["answers"] == [["u", "z"], ["x", "z"]]
        assert body["version"] == before + 2

    def test_duplicate_insert_applies_nothing_but_succeeds(self, served):
        _server, url = served
        status, body = _request(
            url,
            "POST",
            "/tenants/alpha/update",
            {"ops": [{"op": "insert", "symbol": "q1", "source": "u", "target": "v"}]},
        )
        assert status == 200
        assert body["applied"] == 0

    def test_stats_counts_served_requests(self, served):
        _server, url = served
        _request(url, "POST", "/tenants/alpha/query", {"query": "a.b"})
        _request(
            url,
            "POST",
            "/tenants/alpha/update",
            {"ops": [{"op": "insert", "symbol": "q2", "source": "v", "target": "y"}]},
        )
        status, body = _request(url, "GET", "/stats")
        assert status == 200
        tenant = body["tenants"]["alpha"]
        assert tenant["served"]["queries"] == 1
        assert tenant["served"]["updates"] == 1
        assert tenant["served"]["errors"] == 0
        assert tenant["writes"] == 1
        assert tenant["session"]["requests"] >= 1
        assert body["server"]["requests"] >= 3
        status, alone = _request(url, "GET", "/tenants/alpha/stats")
        assert status == 200
        assert alone["name"] == "alpha"
        assert alone["tuples"] == tenant["tuples"]

    def test_keep_alive_serves_many_requests_per_connection(self, served):
        server, url = served
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connections_before = server.stats["connections"]
            for _ in range(3):
                connection.request(
                    "POST",
                    "/tenants/alpha/query",
                    body=json.dumps({"query": "a.b"}),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                assert json.load(response)["answers"] == [["u", "z"], ["w", "z"]]
            assert server.stats["connections"] == connections_before + 1
        finally:
            connection.close()

    def test_connection_close_honoured(self, served):
        server, url = served
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request(
                "GET", "/health", headers={"Connection": "close"}
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()


class TestRejections:
    def test_unknown_tenant_404(self, served):
        _server, url = served
        status, body = _request(url, "POST", "/tenants/nope/query", {"query": "a"})
        assert status == 404
        assert "unknown tenant" in body["error"]

    def test_unknown_route_404(self, served):
        _server, url = served
        status, _body = _request(url, "GET", "/totally/else")
        assert status == 404

    def test_bad_json_400(self, served):
        server, url = served
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request(
                "POST", "/tenants/alpha/query", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.load(response)["error"]
        finally:
            connection.close()

    def test_missing_query_400(self, served):
        _server, url = served
        status, body = _request(url, "POST", "/tenants/alpha/query", {"q": "a"})
        assert status == 400
        assert "'query'" in body["error"]

    def test_unparseable_query_400(self, served):
        _server, url = served
        status, body = _request(
            url, "POST", "/tenants/alpha/query", {"query": "a.(b"}
        )
        assert status == 400
        assert "bad query" in body["error"]

    def test_target_without_source_400(self, served):
        _server, url = served
        status, body = _request(
            url, "POST", "/tenants/alpha/query", {"query": "a", "target": "v"}
        )
        assert status == 400

    def test_update_unknown_symbol_400(self, served):
        server, url = served
        before = server.tenants["alpha"].store.version
        status, body = _request(
            url,
            "POST",
            "/tenants/alpha/update",
            {"ops": [{"op": "insert", "symbol": "zz", "source": "a", "target": "b"}]},
        )
        assert status == 400
        assert "unknown view symbol" in body["error"]
        assert body["symbols"] == ["q1", "q2"]
        # Validation happens before admission: nothing was applied.
        assert server.tenants["alpha"].store.version == before

    def test_query_unknown_symbol_400(self, served):
        """A query over symbols outside the tenant's database alphabet
        is rejected up front (400), not evaluated into a 500: the
        compile alphabet is pinned to the view symbols, so such a query
        can never be answered."""
        server, url = served
        for query in ("zz", "a.zz*"):
            status, body = _request(
                url, "POST", "/tenants/alpha/query", {"query": query}
            )
            assert status == 400, query
            assert "outside this tenant's database alphabet" in body["error"]
            assert "zz" in body["error"]
            assert body["symbols"] == ["a", "b"]
        assert server.tenants["alpha"].served["errors"] == 0

    def test_update_bad_shape_400(self, served):
        _server, url = served
        for ops in ([], [{"op": "upsert", "symbol": "q1", "source": "a", "target": "b"}],
                    [{"op": "insert", "symbol": "q1", "source": 3, "target": "b"}],
                    ["nope"]):
            status, _body = _request(
                url, "POST", "/tenants/alpha/update", {"ops": ops}
            )
            assert status == 400, ops

    def test_errors_do_not_kill_the_connection(self, served):
        server, url = served
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("POST", "/tenants/alpha/query", body=b"")
            assert connection.getresponse().read() is not None
            connection.request(
                "POST",
                "/tenants/alpha/query",
                body=json.dumps({"query": "a.b"}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
        finally:
            connection.close()


class TestLifecycle:
    def test_shutdown_endpoint_stops_the_server(self):
        server = RPQServer({"alpha": _tenant_config()})
        handle = run_in_thread(server)
        status, body = _request(handle.url, "POST", "/shutdown", {})
        assert (status, body["status"]) == (200, "shutting-down")
        handle._thread.join(timeout=30)
        assert not handle._thread.is_alive()
        handle.stop()  # idempotent after the thread exited

    def test_handle_is_a_context_manager(self):
        server = RPQServer({"alpha": _tenant_config()})
        with run_in_thread(server) as handle:
            status, _body = _request(handle.url, "GET", "/health")
            assert status == 200

    def test_server_requires_tenants(self):
        with pytest.raises(ValueError, match="at least one tenant"):
            RPQServer({})

    def test_max_queue_validated(self):
        with pytest.raises(ValueError, match="max_queue"):
            _tenant_config(max_queue=0)


class TestVersionPinning:
    def test_reads_interleaved_with_writes_pin_consistent_versions(self):
        """A read admitted between write batches reports a version it
        could only hold if it ran at a batch boundary, and its answers
        are exactly the oracle's answers at that version."""
        workload = make_tenant_workload(
            "pin", "grid", 11, edges=60, requests=80, write_fraction=0.3
        )
        server = RPQServer({"pin": workload.config})

        async def drive():
            await server.start()
            try:
                return await run_loadgen(
                    server.host, server.port, [workload], readers_per_tenant=3
                )
            finally:
                await server.aclose()

        records, _wall = asyncio.run(drive())
        checked = replay_oracle(workload, records)
        queries = sum(1 for op in workload.traffic if op.kind == "query")
        rejected = sum(1 for r in records if r["status"] == 429)
        assert checked == queries - rejected
        assert checked > 0
        assert all(r["status"] in (200, 429) for r in records)

    def test_two_tenants_are_isolated(self):
        """Writes to one tenant never move another tenant's versions or
        answers; both oracles hold simultaneously."""
        workloads = [
            make_tenant_workload("iso-a", "grid", 5, edges=60, requests=40),
            make_tenant_workload("iso-b", "chain", 9, edges=50, requests=40),
        ]
        server = RPQServer({w.name: w.config for w in workloads})

        async def drive():
            await server.start()
            try:
                return await run_loadgen(
                    server.host, server.port, workloads, readers_per_tenant=2
                )
            finally:
                await server.aclose()

        records, _wall = asyncio.run(drive())
        for workload in workloads:
            assert replay_oracle(workload, records) > 0
        for workload in workloads:
            expected = len(
                [op for op in workload.traffic if op.kind == "update"]
            )
            assert server.tenants[workload.name].write_seq == expected


def _dumped_all_pairs(tenant: Tenant, query: str) -> bytes:
    """The all-pairs body the way the server built it before bodies were
    joined from stored bytes: one ``json.dumps`` of the whole payload."""
    payload = {
        "answers": [[str(x), str(y)] for x, y in tenant.session.answer_sorted(query)],
        "mode": "all",
        "query": query,
        "version": tenant.store.version,
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


WIRE_QUERIES = ("a.b", "a", "(a+b).(a+b)", "a.b*")
# Names that would break a hand-rolled encoder: JSON metacharacters, the
# separator the body is joined with, non-ASCII, and ints (``str(1)`` and
# ``"1"`` are two nodes with one encoding).
_AWKWARD_NODES = ['"', "\\", "],[", '","', "é", "日本", "\n", "", "1", 1, 2, -7]
_node_pools = st.lists(
    st.one_of(st.sampled_from(_AWKWARD_NODES), st.text(max_size=6), st.integers()),
    min_size=2,
    max_size=7,
    unique_by=lambda node: (type(node).__name__, node),
)


@st.composite
def _wire_histories(draw):
    nodes = draw(_node_pools)
    edge = st.tuples(
        st.sampled_from(("q1", "q2")), st.sampled_from(nodes), st.sampled_from(nodes)
    )
    seed = draw(st.lists(edge, max_size=8))
    steps = draw(
        st.lists(st.tuples(st.sampled_from(("insert", "delete")), edge), max_size=12)
    )
    return seed, steps


class TestAllPairsBodyBytes:
    """``run_query`` in mode ``all`` returns the response body itself,
    joined from per-pair bytes the tenant keeps between versions."""

    @settings(max_examples=60, deadline=None)
    @given(_wire_histories())
    def test_body_is_byte_identical_to_one_dumps_at_every_version(self, history):
        seed, steps = history
        extensions = {"q1": [], "q2": []}
        for symbol, source, target in seed:
            extensions[symbol].append((source, target))
        tenant = Tenant("wire", _tenant_config(extensions=extensions))
        try:
            for step in [None, *steps]:
                if step is not None:
                    action, (symbol, source, target) = step
                    tenant.run_update([(action, symbol, source, target)], 0)
                for query in WIRE_QUERIES:
                    body = tenant.run_query(query, "all", None, None)
                    assert body == _dumped_all_pairs(tenant, query)
                    assert len(tenant._wire[query][2]) == len(
                        json.loads(body)["answers"]
                    )
        finally:
            tenant.close()

    def test_repeat_at_a_version_is_the_stored_object_and_skips_the_session(
        self, monkeypatch
    ):
        tenant = Tenant("wire", _tenant_config())
        try:
            first = tenant.run_query("a.b", "all", None, None)
            assert tenant.served["encoded_hits"] == 0
            calls = []
            answer_sorted = tenant.session.answer_sorted
            monkeypatch.setattr(
                tenant.session,
                "answer_sorted",
                lambda query: calls.append(query) or answer_sorted(query),
            )
            assert tenant.run_query("a.b", "all", None, None) is first
            assert tenant.run_query("a.b", "all", None, None) is first
            assert (calls, tenant.served["encoded_hits"]) == ([], 2)
            tenant.run_update([("insert", "q2", "v", "z2")], 1)
            moved = tenant.run_query("a.b", "all", None, None)
            assert calls == ["a.b"] and tenant.served["encoded_hits"] == 2
            assert json.loads(moved)["answers"] == [
                ["u", "z"], ["u", "z2"], ["w", "z"], ["w", "z2"],
            ]
        finally:
            tenant.close()

    def test_entries_hold_exactly_the_current_answer_after_churn(self):
        rng = random.Random(21)
        nodes = [f"n{i}" for i in range(12)]
        tenant = Tenant("wire", _tenant_config(extensions={"q1": [], "q2": []}))
        try:
            for _ in range(200):
                before = tenant.store.version
                while tenant.store.version == before:
                    tenant.run_update(
                        [(
                            rng.choice(("insert", "insert", "delete")),
                            rng.choice(("q1", "q2")),
                            rng.choice(nodes),
                            rng.choice(nodes),
                        )],
                        0,
                    )
                for query in WIRE_QUERIES:
                    assert tenant.run_query(
                        query, "all", None, None
                    ) == _dumped_all_pairs(tenant, query)
            assert set(tenant._wire) == set(WIRE_QUERIES)
            for query, (version, _body, pair_bytes) in tenant._wire.items():
                answer = tenant.session.answer_sorted(query)
                assert version == tenant.store.version
                assert set(pair_bytes) == set(answer) and len(answer) > 0
            assert set(tenant._node_bytes) <= set(nodes)
        finally:
            tenant.close()

    def test_empty_answer_and_non_ascii_query_text(self):
        tenant = Tenant(
            "wire",
            _tenant_config(
                views={"q1": "a", "q2": "'é'"},
                theory=Theory.trivial({"a", "é"}),
                extensions={"q1": [("u", "v")], "q2": []},
            ),
        )
        try:
            query = "a.'é'"
            body = tenant.run_query(query, "all", None, None)
            assert body == _dumped_all_pairs(tenant, query)
            assert body.startswith(
                b'{"answers":[],"mode":"all","query":"a.\'\\u00e9\'","version":'
            )
        finally:
            tenant.close()

    def test_close_drops_the_stored_bodies(self):
        tenant = Tenant("wire", _tenant_config())
        tenant.run_query("a.b", "all", None, None)
        assert tenant._wire and tenant._node_bytes
        tenant.close()
        assert not tenant._wire and not tenant._node_bytes

    def test_http_round_trip_per_mode_and_the_hit_counter(self, served):
        server, url = served
        version = server.tenants["alpha"].store.version
        connection = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        all_pairs = (
            {"query": "a.b"},
            {"answers": [["u", "z"], ["w", "z"]], "mode": "all",
             "query": "a.b", "version": version},
        )
        try:
            expected = [
                all_pairs,
                (
                    {"query": "a.b", "source": "u"},
                    {"mode": "single_source", "query": "a.b", "source": "u",
                     "targets": ["z"], "version": version},
                ),
                (
                    {"query": "a.b", "source": "u", "target": "z"},
                    {"found": True, "mode": "pair", "query": "a.b",
                     "source": "u", "target": "z", "version": version},
                ),
                all_pairs,  # the repeat: the stored body, an encoded hit
            ]
            for payload, decoded in expected:
                connection.request(
                    "POST", "/tenants/alpha/query", body=json.dumps(payload)
                )
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200
                assert int(response.getheader("Content-Length")) == len(body)
                # Same keys in the same (sorted) order as a dumped payload.
                assert body == json.dumps(
                    decoded, separators=(",", ":"), sort_keys=True
                ).encode()
        finally:
            connection.close()
        _status, one = _request(url, "GET", "/tenants/alpha/stats")
        _status, every = _request(url, "GET", "/stats")
        assert one["served"] == every["tenants"]["alpha"]["served"]
        assert one["served"] == {
            "queries": 4, "updates": 0, "rejected": 0, "errors": 0,
            "max_pending": 1, "encoded_hits": 1,
        }
        # The all-pairs repeat never reached the session's memo.
        assert one["session"]["answer_memo_hits"] == 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
