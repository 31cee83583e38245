"""Fault injection against the serving front end.

Five failure families, each of which must degrade — never corrupt:

* a broken sharded kernel cannot reach a tenant, which answers on the
  sequential incremental path with byte-identical answers;
* a change log too stale to replay (bounded log overrun) triggers a
  full recompute, not an error;
* admission overflow returns 429 without touching the tenant's session
  state, and the tenant serves correct answers as soon as the backlog
  drains;
* malformed or hostile request framing — lie-length or oversized
  bodies, unparseable ``Content-Length``, unbounded header blocks — is
  rejected with 413/400 before any body buffering, and the server keeps
  serving well-formed traffic afterwards;
* a tenant op that raises is one 500 on its own thread, and a shutdown
  that lands while writes queue behind a busy tenant thread applies
  them all first.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.rpq import Theory
from repro.rpq import sharded as sharded_mod
from repro.service import RPQServer, TenantConfig, run_in_thread
from repro.service import server as server_mod
from repro.service.server import Tenant


def _request(url: str, method: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, (json.loads(body) if body else {})


def _config(**overrides) -> TenantConfig:
    knobs = dict(
        views={"q1": "a", "q2": "b"},
        theory=Theory.trivial({"a", "b"}),
        extensions={"q1": [("u", "v"), ("w", "v")], "q2": [("v", "z")]},
    )
    knobs.update(overrides)
    return TenantConfig(**knobs)


class TestWorkerPoolDeath:
    def test_dead_worker_degrades_to_sequential_with_correct_answers(
        self, monkeypatch
    ):
        """Tenants answer on the sequential incremental path only: with
        every sharded window sweep broken, queries and writes still serve
        correct answers and the session reports no shard counters."""

        def boom(*args, **kwargs):
            raise RuntimeError("worker died")

        monkeypatch.setattr(sharded_mod, "_sweep_window", boom)
        server = RPQServer({"alpha": _config()})
        handle = run_in_thread(server)
        try:
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200, body
            assert body["answers"] == [["u", "z"], ["w", "z"]]
            status, stats = _request(handle.url, "GET", "/tenants/alpha/stats")
            assert not any(key.startswith("parallel") for key in stats["session"])
            assert stats["served"]["errors"] == 0
            status, _ = _request(
                handle.url,
                "POST",
                "/tenants/alpha/update",
                {"ops": [{"op": "insert", "symbol": "q1", "source": "x", "target": "v"}]},
            )
            assert status == 200
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200
            assert body["answers"] == [["u", "z"], ["w", "z"], ["x", "z"]]
        finally:
            handle.stop()


class TestStaleChangeLog:
    def test_log_overrun_triggers_full_recompute_not_error(self):
        # log_limit=3: one 6-op batch is guaranteed to compact away the
        # baseline the retained sweep state reflects.
        server = RPQServer({"alpha": _config(log_limit=3)})
        handle = run_in_thread(server)
        try:
            status, first = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200
            ops = [
                {"op": "insert", "symbol": "q1", "source": f"s{i}", "target": "v"}
                for i in range(6)
            ]
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/update", {"ops": ops}
            )
            assert (status, body["applied"]) == (200, 6)
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200, body
            expected = sorted(
                [["u", "z"], ["w", "z"]] + [[f"s{i}", "z"] for i in range(6)]
            )
            assert sorted(body["answers"]) == expected
            status, stats = _request(handle.url, "GET", "/tenants/alpha/stats")
            session = stats["session"]
            # Both sweeps were full recomputes (state built, then rebuilt
            # after the compacted log), never an incremental patch and
            # never a 5xx.
            assert session["full_recomputes"] >= 2
            assert session["incremental_updates"] == 0
            assert stats["served"]["errors"] == 0
            assert stats["log_size"] <= 3
        finally:
            handle.stop()


class TestAdmissionOverflow:
    def test_overflow_returns_429_and_recovers_clean(self):
        server = RPQServer({"alpha": _config(max_queue=2)})
        handle = run_in_thread(server)
        release = threading.Event()
        occupied = threading.Event()
        try:
            tenant = server.tenants["alpha"]

            def blocker():
                occupied.set()
                assert release.wait(timeout=60)

            # Deterministically wedge the tenant thread (below admission:
            # the pending counter is untouched), then fill the queue.
            tenant.jobs.put((blocker, None))
            assert occupied.wait(timeout=30)

            results: list[tuple[int, dict]] = []

            def queued_query():
                results.append(
                    _request(
                        handle.url,
                        "POST",
                        "/tenants/alpha/query",
                        {"query": "a.b"},
                    )
                )

            stuck = [
                threading.Thread(target=queued_query) for _ in range(2)
            ]
            for thread in stuck:
                thread.start()
            deadline = 30.0
            import time

            start = time.monotonic()
            while tenant.pending < 2:
                assert time.monotonic() - start < deadline, "queue never filled"
                time.sleep(0.01)

            # The queue is full: the next request must be shed with 429,
            # before it touches the tenant thread.
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 429
            assert body["max_queue"] == 2
            status, body = _request(
                handle.url,
                "POST",
                "/tenants/alpha/update",
                {"ops": [{"op": "insert", "symbol": "q1", "source": "x", "target": "v"}]},
            )
            assert status == 429
            # Overflow corrupted nothing: no write was admitted.
            assert tenant.write_seq == 0

            release.set()
            for thread in stuck:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert [status for status, _ in results] == [200, 200]
            for _status, body in results:
                assert body["answers"] == [["u", "z"], ["w", "z"]]

            # Recovered: fresh requests are admitted and correct.
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200
            assert body["answers"] == [["u", "z"], ["w", "z"]]
            status, stats = _request(handle.url, "GET", "/tenants/alpha/stats")
            assert stats["served"]["rejected"] == 2
            assert stats["served"]["errors"] == 0
            assert stats["pending"] == 0
        finally:
            release.set()
            handle.stop()


def _insert(source: str) -> dict:
    return {"ops": [{"op": "insert", "symbol": "q1", "source": source, "target": "v"}]}


class TestTenantThreads:
    def test_each_tenant_runs_every_op_on_its_own_thread(self, monkeypatch):
        """Confinement: all of one tenant's queries and writes run on one
        thread, which is neither the event loop's nor another tenant's."""
        seen: dict[str, set[threading.Thread]] = {"alpha": set(), "beta": set()}
        for name in ("run_query", "run_update"):
            original = getattr(Tenant, name)

            def spy(self, *args, _original=original):
                seen[self.name].add(threading.current_thread())
                return _original(self, *args)

            monkeypatch.setattr(Tenant, name, spy)
        server = RPQServer({"alpha": _config(), "beta": _config()})
        handle = run_in_thread(server)
        try:
            for tenant in ("alpha", "beta", "alpha", "beta"):
                for index in range(3):
                    path = f"/tenants/{tenant}"
                    status, _ = _request(
                        handle.url, "POST", path + "/update", _insert(f"x{index}")
                    )
                    assert status == 200
                    for query in ({"query": "a.b"}, {"query": "a", "source": "u"}):
                        status, _ = _request(handle.url, "POST", path + "/query", query)
                        assert status == 200
        finally:
            handle.stop()
        (alpha,), (beta,) = seen["alpha"], seen["beta"]
        assert alpha is not beta
        assert threading.main_thread() not in (alpha, beta)
        assert handle._thread not in (alpha, beta)  # the event loop's thread
        # Lifecycle: stop() joined both, and a second close is harmless.
        assert not alpha.is_alive() and not beta.is_alive()
        for tenant in server.tenants.values():
            tenant.close()

    def test_a_raising_op_is_a_500_and_the_next_request_serves(self, monkeypatch):
        original = Tenant.run_query
        calls = []

        def flaky(self, *args):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("injected")
            return original(self, *args)

        monkeypatch.setattr(Tenant, "run_query", flaky)
        server = RPQServer({"alpha": _config()})
        handle = run_in_thread(server)
        try:
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert (status, body) == (500, {"error": "RuntimeError: injected"})
            status, body = _request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            assert status == 200
            assert body["answers"] == [["u", "z"], ["w", "z"]]
            _, stats = _request(handle.url, "GET", "/stats")
            assert stats["server"]["errors"] == 1
            assert stats["tenants"]["alpha"]["served"]["errors"] == 1
            assert stats["tenants"]["alpha"]["served"]["queries"] == 1
            assert stats["tenants"]["alpha"]["pending"] == 0
        finally:
            handle.stop()

    def test_a_cancelled_waiter_does_not_cancel_its_admitted_write(self):
        """The job runs, and settling its cancelled future is skipped
        without an error on the loop."""
        server = RPQServer({"alpha": _config()})
        tenant = server.tenants["alpha"]
        release = threading.Event()
        tenant.jobs.put((lambda: release.wait(timeout=60), None))
        loop_errors: list[dict] = []

        async def scenario() -> None:
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            body = json.dumps(_insert("late")).encode()
            waiter = asyncio.create_task(
                server._dispatch("POST", "/tenants/alpha/update", body)
            )
            await asyncio.sleep(0)  # the waiter runs up to its await
            assert tenant.pending == 1
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            release.set()
            done = asyncio.get_running_loop().create_future()
            tenant.jobs.put((lambda: None, done))
            await done  # every job queued before this one has run and settled
            await server.aclose()

        asyncio.run(scenario())
        assert ("late", "v") in tenant.store.extension("q1")
        assert tenant.write_seq == 1 and tenant.pending == 0
        assert loop_errors == []

    def test_aclose_waits_for_an_admitted_request_to_be_answered(self, monkeypatch):
        """A non-durable tenant queues no shutdown checkpoint, so only the
        in-flight wait keeps aclose from joining the tenant thread (which
        blocks the loop) and returning before the response is written."""
        server = RPQServer({"alpha": _config()})
        tenant = server.tenants["alpha"]
        release = threading.Event()
        tenant.jobs.put((lambda: release.wait(timeout=60), None))
        events: list[str] = []
        encode = server_mod._encode_response

        def encode_and_note(*args):
            events.append("response")  # written in the same loop step
            return encode(*args)

        monkeypatch.setattr(server_mod, "_encode_response", encode_and_note)

        async def scenario() -> bytes:
            await server.start()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            body = json.dumps({"query": "a.b"}).encode()
            writer.write(
                b"POST /tenants/alpha/query HTTP/1.1\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
                + body
            )
            await writer.drain()
            deadline = time.monotonic() + 30
            while tenant.pending < 1:  # admitted, queued behind the wedge
                assert time.monotonic() < deadline, "request never admitted"
                await asyncio.sleep(0.005)
            closing = asyncio.create_task(server.aclose())
            closing.add_done_callback(lambda _task: events.append("aclose"))
            # From another thread: an aclose that skipped the wait would
            # block this loop in the join until the wedge lifts.
            timer = threading.Timer(0.1, release.set)
            timer.start()
            try:
                await closing
                response = await reader.read()
            finally:
                timer.join(timeout=30)
                writer.close()
                await writer.wait_closed()
            return response

        response = asyncio.run(scenario())
        assert events == ["response", "aclose"]
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(payload)["answers"] == [["u", "z"], ["w", "z"]]

    def test_writes_queued_behind_a_wedged_tenant_survive_shutdown(self, tmp_path):
        """/shutdown while writes wait behind a busy tenant thread: every
        queued write is applied and acked, and a restart recovers them."""
        server = RPQServer({"alpha": _config()}, data_dir=tmp_path)
        handle = run_in_thread(server)
        release = threading.Event()
        occupied = threading.Event()
        statuses: list[int] = []
        try:
            tenant = server.tenants["alpha"]

            def blocker():
                occupied.set()
                assert release.wait(timeout=60)

            tenant.jobs.put((blocker, None))
            assert occupied.wait(timeout=30)

            def write(index: int) -> None:
                status, _ = _request(
                    handle.url, "POST", "/tenants/alpha/update", _insert(f"q{index}")
                )
                statuses.append(status)

            writers = [threading.Thread(target=write, args=(i,)) for i in range(5)]
            for thread in writers:
                thread.start()
            deadline = time.monotonic() + 30
            while tenant.pending < 5:
                assert time.monotonic() < deadline, "writes never queued"
                time.sleep(0.01)
            assert _request(handle.url, "POST", "/shutdown", {})[0] == 200
            release.set()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            release.set()
            handle.stop()
        assert statuses == [200] * 5
        restarted = RPQServer({"alpha": _config(extensions={})}, data_dir=tmp_path)
        with run_in_thread(restarted) as again:
            status, body = _request(
                again.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
        assert status == 200
        assert sorted(body["answers"]) == sorted(
            [["u", "z"], ["w", "z"]] + [[f"q{i}", "z"] for i in range(5)]
        )


def _raw_exchange(server, head: str, body: bytes = b"") -> tuple[int, dict]:
    """Send a hand-framed HTTP request and parse the status + JSON body
    (urllib/http.client refuse to emit the malformed framing under test)."""
    import socket

    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(head.encode("latin-1") + body)
        sock.shutdown(socket.SHUT_WR)
        blob = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            blob += chunk
    head_blob, _, payload = blob.partition(b"\r\n\r\n")
    status = int(head_blob.split(None, 2)[1])
    return status, (json.loads(payload) if payload else {})


class TestRequestBounds:
    @pytest.fixture()
    def bounded(self):
        server = RPQServer({"alpha": _config()}, max_request_bytes=1024)
        handle = run_in_thread(server)
        try:
            yield server, handle
        finally:
            handle.stop()

    def test_oversized_body_rejected_413_before_buffering(self, bounded):
        server, handle = bounded
        big = json.dumps(
            {"query": "a.b", "padding": "x" * 4096}
        ).encode()
        status, body = _raw_exchange(
            server,
            "POST /tenants/alpha/query HTTP/1.1\r\n"
            "Host: t\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(big)}\r\n\r\n",
            big,
        )
        assert status == 413
        assert "1024-byte limit" in body["error"]
        assert server.stats["bad_requests"] == 1

    def test_lie_length_header_rejected_without_reading_the_body(self, bounded):
        server, _handle = bounded
        # The header claims 10 MiB; no body ever arrives.  The bound
        # check fires on the declared length alone, so the response is
        # immediate rather than a read-until-timeout stall.
        status, body = _raw_exchange(
            server,
            "POST /tenants/alpha/query HTTP/1.1\r\n"
            "Host: t\r\nContent-Length: 10485760\r\n\r\n",
        )
        assert status == 413

    @pytest.mark.parametrize("raw_length", ["banana", "-5", "0x10", "1e3"])
    def test_malformed_content_length_rejected_400(self, bounded, raw_length):
        server, _handle = bounded
        status, body = _raw_exchange(
            server,
            "POST /tenants/alpha/query HTTP/1.1\r\n"
            f"Host: t\r\nContent-Length: {raw_length}\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_header_block_rejected_413(self, bounded):
        server, _handle = bounded
        status, body = _raw_exchange(
            server,
            "POST /tenants/alpha/query HTTP/1.1\r\n"
            "Host: t\r\n"
            f"X-Filler: {'y' * 200_000}\r\n\r\n",
        )
        assert status == 413
        assert "head" in body["error"]

    def test_server_keeps_serving_after_rejections(self, bounded):
        server, handle = bounded
        for raw in ("banana", "999999999"):
            _raw_exchange(
                server,
                "POST /tenants/alpha/query HTTP/1.1\r\n"
                f"Host: t\r\nContent-Length: {raw}\r\n\r\n",
            )
        status, body = _request(
            handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
        )
        assert status == 200
        assert body["answers"] == [["u", "z"], ["w", "z"]]
        assert server.stats["bad_requests"] == 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
