"""Checkpoint/recovery: restore fidelity, quarantine, replay, wiring.

The contract under test is the durability equation — *newest valid
checkpoint + WAL suffix = exact acknowledged state* — plus its failure
arms: corrupt checkpoints are quarantined with fallback to the previous
one, WAL suffixes that no longer follow are cut like torn tails, and
recovery never raises on mangled input.  Byte-exactness goes through
the interning table: a recovered store must re-intern nodes in the
original order so the engine's documented answer order is unchanged.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.rpq import Theory
from repro.service import QuerySession, RPQServer, TenantConfig, run_in_thread
from repro.service.recovery import (
    TenantDurability,
    list_checkpoints,
    load_checkpoint,
    recover_store,
    write_checkpoint,
)
from repro.service.store import MaterializedViewStore
from repro.service.wal import WriteAheadLog, scan_wal


def _populated_store() -> MaterializedViewStore:
    store = MaterializedViewStore(
        {"q1": [("u", "v"), ("w", "v")], "q2": [("v", "z")]}
    )
    store.add("q1", "x", "v")
    store.remove("q1", "w", "v")
    store.replace("q2", [("v", "z"), ("v", "y")])
    return store


class TestStoreRestore:
    def test_restore_is_byte_exact_including_interning_order(self):
        store = _populated_store()
        nodes = [store.graph.node_at(i) for i in range(store.graph.num_nodes)]
        extensions = {s: sorted(store.extension(s)) for s in store.symbols}
        twin = MaterializedViewStore.restore(nodes, extensions, store.version)
        assert twin.snapshot() == store.snapshot()
        assert [
            twin.graph.node_at(i) for i in range(twin.graph.num_nodes)
        ] == nodes
        # The replay horizon sits at the restored version: older
        # baselines must recompute, the current one patches trivially.
        assert twin.delta_since(store.version - 1) is None
        assert twin.delta_since(store.version).num_changes == 0

    def test_apply_wal_changes_is_one_version_bump(self):
        store = MaterializedViewStore({"q1": [("a", "b")]})
        version = store.version
        applied = store.apply_wal_changes(
            [("insert", "q1", "c", "d"), ("delete", "q1", "a", "b")],
            version + 1,
        )
        assert applied == 2
        assert store.version == version + 1
        delta = store.delta_since(version)
        assert delta.num_changes == 2

    def test_apply_wal_changes_rejects_ineffective_records_untouched(self):
        store = MaterializedViewStore({"q1": [("a", "b")]})
        snapshot = store.snapshot()
        with pytest.raises(ValueError, match="insert of present"):
            store.apply_wal_changes([("insert", "q1", "a", "b")], store.version + 1)
        with pytest.raises(ValueError, match="delete of absent"):
            store.apply_wal_changes([("delete", "q1", "zz", "zz")], store.version + 1)
        with pytest.raises(ValueError, match="does not advance"):
            store.apply_wal_changes([("insert", "q1", "c", "d")], store.version)
        assert store.snapshot() == snapshot


class TestCheckpoint:
    def test_write_then_load_round_trips(self, tmp_path):
        store = _populated_store()
        path = write_checkpoint(store, tmp_path)
        nodes, extensions, meta = load_checkpoint(path)
        assert meta["version"] == store.version
        assert nodes == [
            store.graph.node_at(i) for i in range(store.graph.num_nodes)
        ]
        assert {
            symbol: frozenset(pairs) for symbol, pairs in extensions.items()
        } == {symbol: store.extension(symbol) for symbol in store.symbols}

    def test_checkpoint_saves_the_graphs_cached_snapshot(self, tmp_path, monkeypatch):
        """``graph.to_csr()``, not a second ``from_graph``: same bytes as a
        fresh freeze, and no freeze at all while the cache is current."""
        from repro.rpq.csr import CSRSnapshot

        store = _populated_store()
        CSRSnapshot.from_graph(store.graph).save(tmp_path / "fresh.csr")
        store.graph.to_csr()
        monkeypatch.setattr(
            CSRSnapshot, "from_graph", lambda graph: pytest.fail("froze the graph again")
        )
        path = write_checkpoint(store, tmp_path / "ckpt")
        with open(os.path.join(path, "graph.csr"), "rb") as saved:
            assert saved.read() == (tmp_path / "fresh.csr").read_bytes()

    def test_same_version_checkpoint_is_idempotent(self, tmp_path):
        store = _populated_store()
        assert write_checkpoint(store, tmp_path) == write_checkpoint(
            store, tmp_path
        )
        assert len(list_checkpoints(tmp_path)) == 1

    def test_pruning_keeps_the_newest_two(self, tmp_path):
        store = MaterializedViewStore({"q1": [("a", "b")]})
        for i in range(4):
            store.add("q1", f"n{i}", "b")
            write_checkpoint(store, tmp_path, keep=2)
        versions = [v for v, _ in list_checkpoints(tmp_path)]
        assert versions == [store.version, store.version - 1]

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda p: (p / "meta.json").write_text("{torn"),
            lambda p: (p / "meta.json").write_text(json.dumps([1, 2])),
            lambda p: (p / "meta.json").unlink(),
            lambda p: (p / "graph.csr").write_bytes(b"not a snapshot"),
            lambda p: (p / "graph.csr").write_bytes(
                (p / "graph.csr").read_bytes()[:-20]
            ),
        ],
        ids=["torn-json", "wrong-shape", "missing-meta", "bad-magic", "truncated-csr"],
    )
    def test_every_corruption_class_raises_recovery_error(self, tmp_path, mangle):
        from pathlib import Path

        from repro.service.recovery import RecoveryError

        store = _populated_store()
        path = Path(write_checkpoint(store, tmp_path))
        mangle(path)
        with pytest.raises(RecoveryError):
            load_checkpoint(path)

    def test_flipped_snapshot_bit_fails_the_digest(self, tmp_path):
        from pathlib import Path

        from repro.service.recovery import RecoveryError

        store = _populated_store()
        path = Path(write_checkpoint(store, tmp_path))
        blob = bytearray((path / "graph.csr").read_bytes())
        blob[len(blob) // 2] ^= 0x10
        (path / "graph.csr").write_bytes(bytes(blob))
        with pytest.raises(RecoveryError, match="digest"):
            load_checkpoint(path)


class TestRecoverStore:
    def test_checkpoint_plus_wal_suffix_equals_acknowledged_state(self, tmp_path):
        durability = TenantDurability(tmp_path, checkpoint_every_bytes=200)
        store = durability.open_or_recover({"q1": [("u", "v")]})
        for i in range(20):
            store.add("q1", f"n{i}", "v")
            durability.wal.commit()
            durability.maybe_checkpoint(store)
        expected = store.snapshot()
        durability.close()
        assert len(list_checkpoints(tmp_path)) >= 2  # it actually rolled

        result = recover_store(tmp_path)
        assert result.store.snapshot() == expected
        assert result.replayed > 0 or result.checkpoint_version == expected[0]
        assert result.wal_error is None

    def test_corrupt_newest_checkpoint_quarantined_with_fallback(self, tmp_path):
        durability = TenantDurability(tmp_path, checkpoint_every_bytes=200)
        store = durability.open_or_recover({"q1": [("u", "v")]})
        for i in range(20):
            store.add("q1", f"n{i}", "v")
            durability.wal.commit()
            durability.maybe_checkpoint(store)
        expected = store.snapshot()
        durability.close()

        newest = list_checkpoints(tmp_path)[0][1]
        with open(os.path.join(newest, "meta.json"), "w") as handle:
            handle.write("{garbage")
        result = recover_store(tmp_path)
        # The older checkpoint seeds; the *longer* WAL suffix replays to
        # the same acknowledged state.
        assert result.store.snapshot() == expected
        assert len(result.quarantined) == 1
        assert result.quarantined[0].endswith(".corrupt")
        assert not os.path.exists(newest)
        # Quarantined checkpoints are never retried on the next pass.
        again = recover_store(tmp_path)
        assert again.store.snapshot() == expected
        assert again.quarantined == []

    def test_all_checkpoints_gone_replays_the_wal_from_empty(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append([("insert", "q1", "a", "b")], 1)
        wal.append([("insert", "q1", "c", "d"), ("insert", "q2", "b", "e")], 2)
        wal.close()
        result = recover_store(tmp_path)
        assert result.checkpoint is None
        assert result.replayed == 2
        assert result.store.extension("q1") == frozenset({("a", "b"), ("c", "d")})

    def test_inconsistent_wal_suffix_is_cut_not_fatal(self, tmp_path):
        durability = TenantDurability(tmp_path)
        store = durability.open_or_recover({"q1": [("u", "v")]})
        store.add("q1", "a", "b")
        durability.wal.commit()
        durability.close()
        # Append a CRC-valid record that does not follow from the state
        # (inserts an already-present tuple).
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append([("insert", "q1", "a", "b")], store.version + 1)
        wal.close()
        result = recover_store(tmp_path)
        assert result.store.version == store.version
        assert "does not apply" in result.wal_error
        # Reopening through TenantDurability truncates the cut suffix so
        # serving can append again.
        durability2 = TenantDurability(tmp_path)
        store2 = durability2.open_or_recover()
        assert store2.snapshot() == store.snapshot()
        assert durability2.stats["wal_truncated_bytes"] > 0
        assert store2.add("q1", "c", "d")
        durability2.wal.commit()
        durability2.close()
        assert scan_wal(tmp_path / "wal.log").error is None

    def test_empty_directory_recovers_to_an_empty_store(self, tmp_path):
        result = recover_store(tmp_path / "nothing-here")
        assert result.store.version == 0
        assert result.store.num_tuples == 0
        assert result.checkpoint is None


class TestTenantDurability:
    def test_fresh_directory_seeds_and_checkpoints_initial_extensions(self, tmp_path):
        durability = TenantDurability(tmp_path)
        store = durability.open_or_recover({"q1": [("u", "v"), ("w", "v")]})
        durability.close()
        # The seed never touches the WAL — the initial checkpoint is the
        # durable floor — yet a crash right now must lose nothing.
        assert scan_wal(tmp_path / "wal.log").records == ()
        result = recover_store(tmp_path)
        assert result.store.snapshot() == store.snapshot()

    def test_existing_directory_ignores_config_extensions(self, tmp_path):
        durability = TenantDurability(tmp_path)
        store = durability.open_or_recover({"q1": [("u", "v")]})
        store.add("q1", "x", "y")
        durability.wal.commit()
        durability.close()
        durability2 = TenantDurability(tmp_path)
        store2 = durability2.open_or_recover({"q1": [("DECOY", "DECOY")]})
        assert store2.extension("q1") == frozenset({("u", "v"), ("x", "y")})
        durability2.close()

    def test_recovered_session_answers_match_pre_crash_session(self, tmp_path):
        views = {"q1": "a", "q2": "b"}
        theory = Theory.trivial({"a", "b"})
        durability = TenantDurability(tmp_path)
        store = durability.open_or_recover(
            {"q1": [("u", "v"), ("w", "v")], "q2": [("v", "z")]}
        )
        store.add("q1", "x", "v")
        store.add("q2", "v", "t")
        durability.wal.commit()
        with QuerySession(store, views, theory) as session:
            before = sorted(session.answer("a.b"))
        durability.close()

        result = recover_store(tmp_path)
        with QuerySession(result.store, views, theory) as session:
            after = sorted(session.answer("a.b"))
        assert after == before

    def test_checkpoint_every_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every_bytes"):
            TenantDurability(tmp_path, checkpoint_every_bytes=0)


class TestRecoveryFuzz:
    def test_random_mangling_always_recovers_consistent(self, tmp_path):
        """The recovery fuzzer of the tentpole acceptance criteria: bit
        flips, truncations, and duplicated tails over the *whole* data
        directory (WAL and checkpoint files alike) must always land in
        a consistent, serveable store — never an exception, and always
        a prefix of the acknowledged history."""
        durability = TenantDurability(tmp_path, checkpoint_every_bytes=300)
        store = durability.open_or_recover({"q1": [("u", "v")]})
        versions = {store.version: store.snapshot()}
        for i in range(25):
            store.add("q1", f"n{i}", "v")
            durability.wal.commit()
            durability.maybe_checkpoint(store)
            versions[store.version] = store.snapshot()
        durability.close()

        wal_path = tmp_path / "wal.log"
        pristine_wal = wal_path.read_bytes()
        pristine_ckpts = {}
        for _version, ckpt in list_checkpoints(tmp_path):
            for name in ("graph.csr", "meta.json"):
                file = os.path.join(ckpt, name)
                with open(file, "rb") as handle:
                    pristine_ckpts[file] = handle.read()

        import shutil

        rng = random.Random("recovery-fuzz")
        for round_number in range(60):
            # Restore the pristine layout (a prior round may have
            # quarantined a checkpoint directory), then mangle one file.
            for stray in list(tmp_path.iterdir()):
                if stray.is_dir() and ".corrupt" in stray.name:
                    shutil.rmtree(stray)
            wal_path.write_bytes(pristine_wal)
            for file, blob in pristine_ckpts.items():
                os.makedirs(os.path.dirname(file), exist_ok=True)
                with open(file, "wb") as handle:
                    handle.write(blob)
            victim = rng.choice([os.fspath(wal_path)] + list(pristine_ckpts))
            blob = bytearray(Path(victim).read_bytes())
            mode = rng.randrange(3)
            if mode == 0 and blob:  # bit flip
                blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            elif mode == 1:  # truncation
                del blob[rng.randrange(len(blob) + 1) :]
            else:  # duplicated tail
                keep = rng.randrange(len(blob) + 1)
                blob = blob + blob[keep:]
            with open(victim, "wb") as handle:
                handle.write(bytes(blob))

            result = recover_store(tmp_path)
            snapshot = result.store.snapshot()
            assert snapshot[0] in versions, f"round {round_number}: {victim}"
            assert snapshot == versions[snapshot[0]], f"round {round_number}"


class TestDurableServer:
    def _config(self) -> TenantConfig:
        return TenantConfig(
            views={"q1": "a", "q2": "b"},
            theory=Theory.trivial({"a", "b"}),
            extensions={"q1": [("u", "v"), ("w", "v")], "q2": [("v", "z")]},
        )

    def _request(self, url, method, path, payload=None):
        import urllib.error
        import urllib.request

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

    def test_clean_shutdown_then_restart_serves_identical_answers(self, tmp_path):
        server = RPQServer({"alpha": self._config()}, data_dir=tmp_path)
        with run_in_thread(server) as handle:
            status, _ = self._request(
                handle.url,
                "POST",
                "/tenants/alpha/update",
                {"ops": [{"op": "insert", "symbol": "q1", "source": "x", "target": "v"}]},
            )
            assert status == 200
            _, first = self._request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            _, stats = self._request(handle.url, "GET", "/tenants/alpha/stats")
            assert stats["durability"]["wal"]["commits"] == 1
        # Decoy extensions: a durable restart must ignore them.
        decoy = TenantConfig(
            views={"q1": "a", "q2": "b"},
            theory=Theory.trivial({"a", "b"}),
            extensions={"q1": [("DECOY", "DECOY")]},
        )
        server2 = RPQServer({"alpha": decoy}, data_dir=tmp_path)
        with run_in_thread(server2) as handle:
            _, second = self._request(
                handle.url, "POST", "/tenants/alpha/query", {"query": "a.b"}
            )
            _, stats = self._request(handle.url, "GET", "/tenants/alpha/stats")
            assert stats["durability"]["recoveries"] == 1
        assert second["answers"] == first["answers"]
        assert second["version"] == first["version"]

    def test_shutdown_drains_queued_writes_before_exit(self, tmp_path):
        """The clean-shutdown contract: every write the server accepted
        (admitted past the 429 check) is applied, acknowledged, and
        durable even when /shutdown lands while the queue is full."""
        import http.client
        import threading

        server = RPQServer(
            {"alpha": self._config()}, data_dir=tmp_path, fsync="batch"
        )
        handle = run_in_thread(server)
        url = handle.url
        statuses: list[tuple[int, int]] = []

        def writer(lane: int) -> None:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                for i in range(8):
                    connection.request(
                        "POST",
                        "/tenants/alpha/update",
                        body=json.dumps(
                            {
                                "ops": [
                                    {
                                        "op": "insert",
                                        "symbol": "q1",
                                        "source": f"w{lane}-{i}",
                                        "target": "v",
                                    }
                                ]
                            }
                        ),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    statuses.append((lane, response.status))
                    response.read()
            except OSError:
                # The listener closed mid-stream: the write in flight was
                # never acknowledged, so it owes the client nothing.
                pass
            finally:
                connection.close()

        threads = [
            threading.Thread(target=writer, args=(lane,)) for lane in range(4)
        ]
        for thread in threads:
            thread.start()
        # Shutdown races the writers: whatever was acknowledged 200 must
        # survive into the recovered store.
        self._request(url, "POST", "/shutdown", {})
        for thread in threads:
            thread.join()
        handle.stop()

        acked = sum(1 for _lane, status in statuses if status == 200)
        result = recover_store(os.path.join(tmp_path, "alpha"))
        recovered = result.store.extension("q1")
        # Every acknowledged write inserted one distinct `w*` tuple, so
        # at least `acked` of them must have survived the shutdown.
        durable_writer_tuples = sum(
            1 for source, _target in recovered if source.startswith("w")
        )
        assert durable_writer_tuples >= acked
        assert result.wal_error is None


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
