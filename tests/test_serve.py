"""The brick-library daemon end to end (repro.serve).

Each server under test runs in a background thread on an ephemeral
port with its own Session and a fresh memory-only cache, so tests are
hermetic and parallel-safe.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import cli
from repro.errors import ServeError
from repro.obs.export import write_trace_jsonl
from repro.obs.trace import Tracer
from repro.perf.cache import CharacterizationCache
from repro.serve import (
    ArtifactStore,
    BrickServer,
    RequestCoalescer,
    ServeClient,
    encode_frame,
)
from repro.serve.handlers import ServeContext, dispatch
from repro.serve.protocol import Request
from repro.serve.store import MAX_TRACED_REQUESTS
from repro.session import Session
from repro.tech import cmos65

SWEEP_PARAMS = {"total_words": 128, "bits": [8, 16, 32],
                "brick_words": [16, 32, 64]}


class ServerHarness:
    """One daemon in a background thread, shut down deterministically."""

    def __init__(self, **server_kwargs):
        self.session = Session(cmos65(), jobs=1,
                               cache=CharacterizationCache())
        self.server = BrickServer(self.session, **server_kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(20), "server failed to start"

    def _run(self):
        async def main():
            await self.server.start()
            self._ready.set()
            await self.server._shutdown_event.wait()
            await self.server.drain()
        asyncio.run(main())

    @property
    def port(self):
        return self.server.port

    def client(self, **kwargs):
        return ServeClient(port=self.port, **kwargs)

    def stop(self):
        if self._thread.is_alive():
            try:
                with self.client() as c:
                    c.shutdown()
            except ServeError:
                pass
        self._thread.join(20)
        assert not self._thread.is_alive(), "server did not drain"
        self.session.close()


@pytest.fixture()
def harness():
    h = ServerHarness()
    yield h
    h.stop()


class TestRoundTrips:
    def test_ping(self, harness):
        with harness.client() as c:
            result = c.ping()
        assert result["pong"] is True
        assert result["protocol"] == 1
        assert result["tech"] == "cmos65"

    def test_characterize_inline_and_stored(self, harness):
        with harness.client() as c:
            result = c.characterize(type="8T", words=16, bits=10,
                                    stack=2)
            fetched = c.fetch(result["artifact"])
        assert result["data"]["name"] == "brick_16_10"
        assert result["data"]["stack"] == 2
        assert result["data"]["read_delay"] > 0
        assert fetched == result["data"]

    def test_sweep_summary_then_fetch(self, harness):
        with harness.client() as c:
            summary = c.sweep(**SWEEP_PARAMS)
            data = c.fetch(summary["artifact"])
        assert summary["n_points"] == 9
        assert summary["artifact"].startswith("sweep:")
        assert len(data["points"]) == 9
        assert data["pareto"]

    def test_repeated_sweep_same_artifact(self, harness):
        with harness.client() as c:
            one = c.sweep(**SWEEP_PARAMS)
            two = c.sweep(**SWEEP_PARAMS)
        assert one["artifact"] == two["artifact"]
        assert one["fingerprint"] == two["fingerprint"]

    def test_yield_matches_local_analysis(self, harness):
        from repro.bricks.spec import BrickSpec
        from repro.faults import RepairPlan, analyze_yield
        with harness.client() as c:
            result = c.yield_analysis(type="8T", words=16, bits=10,
                                      population=200)
        local = analyze_yield(
            BrickSpec("8T", 16, 10), n_bricks=200,
            plan=RepairPlan(spare_rows=2, spare_cols=1, ecc=False),
            session=Session(cmos65()))
        assert result["data"]["render"] == local.render()
        assert result["raw_yield"] == local.raw_yield

    def test_stats_surface(self, harness):
        with harness.client() as c:
            c.sweep(**SWEEP_PARAMS)
            stats = c.stats()
        counters = stats["snapshot"]["counters"]
        # The stats request itself is recorded after its snapshot, so
        # the counters cover exactly the requests that preceded it.
        assert counters["serve.requests"] == 1
        assert counters["serve.requests.sweep"] == 1
        assert stats["snapshot"]["request_id"].startswith("c")
        assert stats["artifacts"] == 1
        # Per-request log entries carry cache hit ratios.
        sweep_entries = [r for r in stats["requests"]
                         if r["type"] == "sweep"]
        assert len(sweep_entries) == 1
        assert sweep_entries[0]["ok"] is True
        assert sweep_entries[0]["cache_lookups"] > 0

    def test_report_renders_serve_counters(self, harness):
        with harness.client() as c:
            c.sweep(**SWEEP_PARAMS)
            report = c.report()["render"]
        assert "server report" in report
        assert "serve: serve.requests = " in report

    def test_fetch_unknown_artifact_is_not_found(self, harness):
        with harness.client() as c:
            with pytest.raises(ServeError) as err:
                c.fetch("sweep:0000")
        assert err.value.code == "not_found"

    def test_bad_params_rejected(self, harness):
        with harness.client() as c:
            with pytest.raises(ServeError) as err:
                c.request("characterize", {"words": -3})
        assert err.value.code == "bad_request"
        with harness.client() as c:
            with pytest.raises(ServeError) as err:
                c.request("sweep", {"bits": "eight"})
        assert err.value.code == "bad_request"

    def test_impossible_sweep_is_internal_error(self, harness):
        # 100 words not divisible by any brick size -> empty lattice.
        with harness.client() as c:
            with pytest.raises(ServeError) as err:
                c.request("sweep", {"total_words": 100,
                                    "brick_words": [3]})
        assert err.value.code == "internal"
        assert "exploration" in str(err.value)
        # The daemon survives the failed request.
        with harness.client() as c:
            assert c.ping()["pong"] is True


class TestWireErrors:
    def _raw(self, harness, payload: bytes):
        sock = socket.create_connection(("127.0.0.1", harness.port),
                                        timeout=10)
        try:
            sock.sendall(payload)
            reader = sock.makefile("rb")
            line = reader.readline()
            return json.loads(line.decode()) if line else None
        finally:
            sock.close()

    def test_malformed_frame_rejected_connection_survives(self,
                                                          harness):
        sock = socket.create_connection(("127.0.0.1", harness.port),
                                        timeout=10)
        try:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            reply = json.loads(reader.readline().decode())
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad_request"
            # Same connection still serves valid requests.
            sock.sendall(encode_frame({"v": 1, "id": "p", "type":
                                       "ping", "params": {}}))
            reply = json.loads(reader.readline().decode())
            assert reply["ok"] is True
        finally:
            sock.close()

    def test_wrong_version_rejected(self, harness):
        reply = self._raw(harness, encode_frame(
            {"v": 99, "id": "x", "type": "ping", "params": {}}))
        assert reply["error"]["code"] == "unsupported_version"
        assert reply["id"] == "x"

    def test_unknown_type_rejected(self, harness):
        reply = self._raw(harness, encode_frame(
            {"v": 1, "id": "x", "type": "frobnicate", "params": {}}))
        assert reply["error"]["code"] == "unknown_type"

    def test_oversized_frame_kills_only_that_connection(self, harness):
        from repro.serve import MAX_FRAME_BYTES
        sock = socket.create_connection(("127.0.0.1", harness.port),
                                        timeout=10)
        try:
            reader = sock.makefile("rb")
            sock.sendall(b'{"pad": "' + b"x" * (MAX_FRAME_BYTES + 64)
                         + b'"}\n')
            reply = json.loads(reader.readline().decode())
            assert reply["error"]["code"] == "too_large"
            assert reader.readline() == b""  # connection closed
        finally:
            sock.close()
        # The daemon itself is unharmed.
        with harness.client() as c:
            assert c.ping()["pong"] is True


class TestCoalescing:
    @staticmethod
    def _burst(harness, params_list):
        """Send every frame in ONE sendall on ONE connection.

        The connection loop creates each request task synchronously
        while draining the buffered frames, before any task body runs —
        so every identical request deterministically finds the first
        one in flight (a barrier across separate connections cannot
        guarantee that under GIL scheduling).
        """
        sock = socket.create_connection(("127.0.0.1", harness.port),
                                        timeout=60)
        try:
            reader = sock.makefile("rb")
            sock.sendall(b"".join(encode_frame(
                {"v": 1, "id": f"b{i}", "type": "sweep", "params": p})
                for i, p in enumerate(params_list)))
            replies = [json.loads(reader.readline().decode())
                       for _ in params_list]
        finally:
            sock.close()
        return replies

    def test_concurrent_identical_sweeps_compute_once(self, harness):
        n = 8
        replies = self._burst(harness, [SWEEP_PARAMS] * n)
        assert all(r["ok"] for r in replies)
        # Byte-identical results, exactly one computation.
        payloads = {json.dumps(r["result"], sort_keys=True)
                    for r in replies}
        assert len(payloads) == 1
        stats = harness.server.ctx.coalescer.stats
        assert stats.computed == 1
        assert stats.coalesced == n - 1

    def test_distinct_concurrent_sweeps_all_computed(self, harness):
        n = 8
        clients = [harness.client().connect() for _ in range(n)]
        barrier = threading.Barrier(n)

        def one(indexed):
            index, client = indexed
            barrier.wait()
            return client.sweep(total_words=128, bits=[8 + index],
                                brick_words=[16, 32])["artifact"]

        try:
            with ThreadPoolExecutor(max_workers=n) as pool:
                artifacts = list(pool.map(one, enumerate(clients)))
        finally:
            for client in clients:
                client.close()
        assert len(set(artifacts)) == n
        assert harness.server.ctx.coalescer.stats.computed == n

    def test_coalesced_requests_logged_per_request(self, harness):
        n = 4
        replies = self._burst(harness, [SWEEP_PARAMS] * n)
        assert all(r["ok"] for r in replies)
        with harness.client() as c:
            stats = c.stats()
        entries = [r for r in stats["requests"] if r["type"] == "sweep"]
        assert len(entries) == n  # every request logged exactly once
        assert sum(1 for r in entries if r["coalesced"]) == n - 1
        assert stats["snapshot"]["counters"]["serve.coalesced"] == n - 1


class TestBackpressure:
    def test_busy_reply_when_inflight_limit_hit(self):
        harness = ServerHarness(max_inflight=1)
        try:
            sock = socket.create_connection(
                ("127.0.0.1", harness.port), timeout=30)
            reader = sock.makefile("rb")
            frames = b"".join(encode_frame(
                {"v": 1, "id": f"r{i}", "type": "sweep",
                 "params": SWEEP_PARAMS}) for i in range(3))
            sock.sendall(frames)  # burst: no reads in between
            replies = [json.loads(reader.readline().decode())
                       for _ in range(3)]
            sock.close()
            busy = [r for r in replies if not r["ok"]]
            served = [r for r in replies if r["ok"]]
            assert served, "at least the first request is served"
            assert busy, "burst beyond max_inflight gets busy replies"
            for reply in busy:
                assert reply["error"]["code"] == "busy"
                assert reply["error"]["retry_after_s"] > 0
            counters = harness.session.metrics.counter(
                "serve.busy_rejections")
            assert counters.value == len(busy)
        finally:
            harness.stop()

    def test_client_retries_busy_transparently(self):
        harness = ServerHarness(max_inflight=1)
        try:
            n = 4
            clients = [harness.client().connect() for _ in range(n)]
            barrier = threading.Barrier(n)

            def one(client):
                barrier.wait()
                return client.sweep(**SWEEP_PARAMS)["artifact"]

            with ThreadPoolExecutor(max_workers=n) as pool:
                artifacts = list(pool.map(one, clients))
            for client in clients:
                client.close()
            assert len(set(artifacts)) == 1  # all eventually served
        finally:
            harness.stop()


class TestShutdown:
    def test_shutdown_request_drains_and_refuses_new_connections(self):
        harness = ServerHarness()
        with harness.client() as c:
            assert c.ping()["pong"] is True
            c.shutdown()
        harness._thread.join(20)
        assert not harness._thread.is_alive()
        with pytest.raises(ServeError):
            ServeClient(port=harness.port, busy_retries=0).ping()
        harness.session.close()

    def test_session_pool_survives_until_owner_closes(self):
        harness = ServerHarness()
        pool = harness.session.pool
        assert pool is not None  # server materialized it at start
        harness.stop()
        assert pool.closed  # session.close() in stop() shut it down


class TestGoldenCliEquivalence:
    """`repro client X` stdout is byte-identical to local `repro X`."""

    def test_sweep_stdout_identical(self, harness, capsys):
        assert cli.main(["sweep"]) == 0
        local = capsys.readouterr().out
        assert cli.main(["client", "--port", str(harness.port),
                         "sweep"]) == 0
        served = capsys.readouterr().out
        assert served == local
        # and the table is actually there, not empty
        assert "pareto-optimal:" in served

    def test_sweep_timing_goes_to_stderr(self, capsys):
        assert cli.main(["sweep"]) == 0
        captured = capsys.readouterr()
        assert "design points in" in captured.err
        assert "design points in" not in captured.out

    def test_brick_stdout_identical(self, harness, capsys):
        argv = ["--type", "CAM", "--words", "32", "--bits", "12"]
        assert cli.main(["brick"] + argv) == 0
        local = capsys.readouterr().out
        assert cli.main(["client", "--port", str(harness.port),
                         "brick"] + argv) == 0
        served = capsys.readouterr().out
        assert served == local
        assert "match path" in served  # CAM has a match port

    def test_yield_stdout_identical(self, harness, capsys):
        assert cli.main(["faults", "--population", "200"]) == 0
        local = capsys.readouterr().out
        assert cli.main(["client", "--port", str(harness.port),
                         "yield", "--population", "200"]) == 0
        served = capsys.readouterr().out
        assert served == local


class TestArtifactStore:
    def test_put_get_round_trip(self):
        store = ArtifactStore()
        artifact = store.put("sweep", "abc", {"points": [1, 2]})
        assert artifact == "sweep:abc"
        assert store.get(artifact) == {"points": [1, 2]}
        assert artifact in store

    def test_idempotent_per_fingerprint(self):
        store = ArtifactStore()
        one = store.put("sweep", "abc", {"round": 1})
        two = store.put("sweep", "abc", {"round": 2})
        assert one == two
        assert len(store) == 1
        assert store.get(one) == {"round": 2}

    def test_lru_eviction_bounds_footprint(self):
        store = ArtifactStore(max_artifacts=3)
        ids = [store.put("k", f"f{i}", i) for i in range(5)]
        assert len(store) == 3
        assert store.stats.evictions == 2
        with pytest.raises(KeyError):
            store.get(ids[0])
        assert store.get(ids[4]) == 4

    def test_get_refreshes_lru_position(self):
        store = ArtifactStore(max_artifacts=2)
        a = store.put("k", "a", 1)
        b = store.put("k", "b", 2)
        store.get(a)           # refresh a; b is now oldest
        store.put("k", "c", 3)
        assert a in store
        assert b not in store


class TestCoalescerUnit:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_none_key_never_coalesces(self):
        coalescer = RequestCoalescer()

        async def main():
            calls = []

            async def compute():
                calls.append(1)
                return "x"

            await coalescer.run(None, compute)
            await coalescer.run(None, compute)
            return calls

        assert len(self._run(main())) == 2
        assert coalescer.stats.computed == 0

    def test_concurrent_same_key_computes_once(self):
        coalescer = RequestCoalescer()

        async def main():
            calls = []
            gate = asyncio.Event()

            async def compute():
                calls.append(1)
                await gate.wait()
                return "result"

            tasks = [asyncio.ensure_future(
                coalescer.run("k", compute)) for _ in range(5)]
            await asyncio.sleep(0.01)
            gate.set()
            results = await asyncio.gather(*tasks)
            return calls, results

        calls, results = self._run(main())
        assert len(calls) == 1
        assert results == ["result"] * 5
        assert coalescer.stats.computed == 1
        assert coalescer.stats.coalesced == 4

    def test_sequential_same_key_recomputes(self):
        coalescer = RequestCoalescer()

        async def main():
            async def compute():
                return "r"

            await coalescer.run("k", compute)
            await coalescer.run("k", compute)

        self._run(main())
        assert coalescer.stats.computed == 2
        assert coalescer.stats.coalesced == 0

    def test_failure_shared_then_key_released(self):
        coalescer = RequestCoalescer()

        async def main():
            gate = asyncio.Event()

            async def failing():
                await gate.wait()
                raise ValueError("boom")

            tasks = [asyncio.ensure_future(
                coalescer.run("k", failing)) for _ in range(3)]
            await asyncio.sleep(0.01)
            gate.set()
            results = await asyncio.gather(*tasks,
                                           return_exceptions=True)
            assert all(isinstance(r, ValueError) for r in results)
            assert not coalescer.is_inflight("k")

            async def healthy():
                return "recovered"

            return await coalescer.run("k", healthy)

        assert self._run(main()) == "recovered"


class TestDaemonTraceBound:
    """A long-lived daemon retains the span trees of its most recent
    requests only, so its trace cannot grow without bound."""

    def test_keeps_most_recent_request_trees(self, tmp_path, capsys):
        session = Session(cmos65(), jobs=1,
                          cache=CharacterizationCache(),
                          tracer=Tracer(source="server"))
        ctx = ServeContext(session)
        extra = 40
        total = MAX_TRACED_REQUESTS + extra
        for i in range(total):
            dispatch(ctx, Request(id=f"c{i}", type="ping"))
        tracer = session.tracer
        # One serve:ping span per request, oldest trees gone first.
        assert len(tracer.spans) == MAX_TRACED_REQUESTS
        assert [s.attrs["request_id"] for s in tracer.spans] == \
            [f"c{i}" for i in range(extra, total)]
        tracer.validate()
        stats = dispatch(ctx, Request(id="s", type="stats"))
        assert stats["snapshot"]["counters"][
            "serve.trace_evictions"] == extra
        path = str(tmp_path / "server.jsonl")
        write_trace_jsonl(tracer.spans, path, source="server")
        assert cli.main(["report", path, "--request",
                         f"c{total - 1}"]) == 0
        assert "serve:ping" in capsys.readouterr().out
        assert cli.main(["report", path, "--request", "c0"]) == 0
        assert "serve:ping" not in capsys.readouterr().out

    def test_evicts_one_whole_graft(self):
        tracer = Tracer(source="server")
        root = tracer.open("daemon")
        blocks = []
        for n in (3, 2, 4):
            child = Tracer()
            with child.span("request"):
                for _ in range(n - 1):
                    with child.span("leaf"):
                        pass
            blocks.append(tracer.graft(child.spans))
        tracer.close(root)
        tracer.evict(blocks[1])
        assert [s.span_id for s in tracer.spans] == \
            [root.span_id] + [s.span_id for s in blocks[0] + blocks[2]]
        tracer.validate()
        tracer.evict([])
        assert len(tracer.spans) == 8
