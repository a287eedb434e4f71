"""Tests for the batch service: wire format, streaming, dedup, perf.

What must hold for ``repro serve`` to be trustworthy:

- ``RunSpec.to_jsonable``/``from_jsonable`` round-trip *digest-stably*
  — a spec serialized over the wire keys the same cache rows;
- ``run_iter`` streams every input index exactly once, cache hits
  first, duplicates together — the primitive the NDJSON stream wraps;
- the executor's worker pool persists across ``run()`` calls and
  parallel payloads stay byte-identical to serial ones;
- two clients posting the same batch concurrently cost one execution
  per unique digest and read byte-identical payloads (the acceptance
  scenario, driven over real HTTP);
- the warm SQLite tier answers a fully-cached 64-spec batch at
  < 1 ms per-spec lookup p50;
- memory-tier hits are answered on the event loop in one write, with
  record lines byte-identical to the executor-thread path and to the
  plain ``json.dumps`` of the record;
- ``POST /batch`` fails closed: every malformed request gets a 4xx JSON
  error (a truncated body: a closed connection), never a 200 head, a
  server traceback or a store;
- the plain-socket client raises ``ServiceError`` on every bad reply.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.runtime import ResultCache, RunSpec, SweepExecutor
from repro.runtime import cache as cache_module
from repro.service.client import ServiceError, get_json, iter_batch, submit_batch
from repro.service.server import (SweepService, _stream_batch, payload_digest,
                                  pick_free_port, serve)


def spec_n(n: int) -> RunSpec:
    return RunSpec.microbench("latency", "infiniband", sizes=(4,),
                              iters=2, seed=n)


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    @pytest.mark.parametrize("spec", [
        RunSpec.microbench("latency", "myrinet", sizes=[4, 8], iters=5,
                           net_overrides={"bus_kind": "pci", "mtu": 2048},
                           mpi_options={"rendezvous": "send_recv"}, seed=3),
        RunSpec.app("is", "B", "quadrics", 8, ppn=2, verify=True,
                    faults={"drop_rate": 0.01}, topology="fat_tree"),
        RunSpec(kind="microbench", target="bandwidth", network="infiniband"),
    ])
    def test_roundtrip_is_digest_stable(self, spec):
        wire = json.loads(json.dumps(spec.to_jsonable()))
        back = RunSpec.from_jsonable(wire)
        assert back == spec
        assert back.digest == spec.digest

    def test_defaults_elided(self):
        data = RunSpec(kind="microbench", target="latency").to_jsonable()
        assert set(data) == {"kind", "target"}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            RunSpec.from_jsonable({"kind": "app", "target": "is",
                                   "klass": "A", "bogus": 1})

    def test_handwritten_dict_accepted(self):
        spec = RunSpec.from_jsonable(
            {"kind": "microbench", "target": "latency",
             "network": "myrinet", "sizes": [4], "iters": 3,
             "mpi_options": {"rendezvous": "send_recv"}})
        assert spec.sizes == (4,)
        assert dict(spec.mpi_options) == {"rendezvous": "send_recv"}


# ----------------------------------------------------------------------
# run_iter streaming + persistent pool
# ----------------------------------------------------------------------
class TestRunIter:
    def test_every_index_yielded_once_duplicates_together(self):
        specs = [spec_n(0), spec_n(1), spec_n(0), spec_n(1), spec_n(0)]
        executor = SweepExecutor(jobs=1, cache=ResultCache())
        seen = [index for index, _s, _p in executor.run_iter(specs)]
        assert sorted(seen) == [0, 1, 2, 3, 4]
        # duplicate indexes of one digest arrive adjacently
        pos = {i: n for n, i in enumerate(seen)}
        assert abs(pos[0] - pos[2]) in (1, 2) and abs(pos[2] - pos[4]) in (1, 2)

    def test_cache_hits_stream_before_executions(self):
        cache = ResultCache()
        warm = spec_n(0)
        SweepExecutor(jobs=1, cache=cache).run([warm])
        specs = [spec_n(1), warm]  # cold first in input order
        seen = [i for i, _s, _p in SweepExecutor(jobs=1,
                                                 cache=cache).run_iter(specs)]
        assert seen[0] == 1  # the warm spec resolved first

    def test_pool_persists_and_parallel_matches_serial(self):
        specs = [RunSpec.microbench("latency", net, sizes=(4, 64), iters=3)
                 for net in ("infiniband", "myrinet", "quadrics")]
        serial = SweepExecutor(jobs=1).run(specs)
        with SweepExecutor(jobs=2) as executor:
            first = executor.run(specs)
            pool = executor._pool
            second = executor.run(specs)
            assert executor._pool is pool and pool is not None
        assert executor._pool is None  # context exit released it
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(first, sort_keys=True)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)


# ----------------------------------------------------------------------
# the service over real HTTP
# ----------------------------------------------------------------------
@pytest.fixture
def live_service(tmp_path):
    port = pick_free_port()
    service = SweepService(cache_dir=tmp_path / "cache", jobs=1,
                           ledger=tmp_path / "ledger.jsonl")
    thread = threading.Thread(target=serve, args=(service, "127.0.0.1", port),
                              daemon=True)
    thread.start()
    for _ in range(200):
        try:
            get_json("/healthz", port=port, timeout_s=2)
            break
        except Exception:
            time.sleep(0.02)
    else:
        pytest.fail("service did not come up")
    yield service, port, tmp_path / "ledger.jsonl"


class TestService:
    def test_healthz_and_stats(self, live_service):
        _service, port, _ledger = live_service
        health = get_json("/healthz", port=port)
        assert health["ok"] and health["backend"] == "sqlite"
        stats = get_json("/stats", port=port)
        assert stats["backend"] == "sqlite"
        assert "eviction" in stats

    def test_batch_streams_every_spec(self, live_service):
        _service, port, _ledger = live_service
        specs = [spec_n(0), spec_n(1), spec_n(0)]
        records = list(iter_batch(specs, port=port))
        done = records[-1]
        assert done["done"] and done["count"] == 3 and done["errors"] == 0
        assert sorted(r["index"] for r in records[:-1]) == [0, 1, 2]
        # duplicate indexes carry byte-identical payloads
        by_index = {r["index"]: r for r in records[:-1]}
        assert by_index[0]["payload_digest"] == by_index[2]["payload_digest"]
        assert by_index[0]["digest"] == specs[0].digest

    def test_two_clients_same_batch_execute_once(self, live_service):
        """The acceptance scenario: two concurrent clients, one 16-spec
        batch each, identical specs — exactly 16 ledger ``run_started``
        events and byte-identical payload digests on both sides."""
        from repro.obs.ledger import read_ledger

        _service, port, ledger_path = live_service
        specs = [spec_n(n) for n in range(16)]
        results = {}

        def client(name):
            results[name] = submit_batch(specs, port=port)

        threads = [threading.Thread(target=client, args=(n,))
                   for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert json.dumps(results["a"], sort_keys=True) == \
            json.dumps(results["b"], sort_keys=True)
        assert [payload_digest(p) for p in results["a"]] == \
            [payload_digest(p) for p in results["b"]]
        events = read_ledger(ledger_path)
        started = [e for e in events if e["event"] == "run_started"]
        assert len(started) == 16
        assert len({e["digest"] for e in started}) == 16

    def test_submitting_errors_reported_not_fatal(self, live_service):
        _service, port, _ledger = live_service
        bad = RunSpec(kind="microbench", target="no_such_bench",
                      network="infiniband")
        records = list(iter_batch([bad, spec_n(0)], port=port))
        done = records[-1]
        assert done["count"] == 2 and done["errors"] == 1
        by_index = {r["index"]: r for r in records[:-1]}
        assert by_index[0]["error"] is True
        assert "error" in by_index[0]["payload"]
        assert by_index[1]["error"] is False

    def test_bad_requests_rejected(self, live_service):
        _service, port, _ledger = live_service
        with pytest.raises(ServiceError, match="404"):
            get_json("/nope", port=port)
        with pytest.raises(ServiceError, match="HTTP 400"):
            list(iter_batch([{"kind": "bogus-kind", "target": "x"}],
                            port=port))


# ----------------------------------------------------------------------
# the warm-tier latency bar (acceptance criterion)
# ----------------------------------------------------------------------
class TestWarmLatency:
    def test_warm_64_spec_batch_p50_under_1ms(self, tmp_path):
        specs = [spec_n(n) for n in range(64)]
        seed = ResultCache(disk_dir=tmp_path, backend="sqlite")
        for n, spec in enumerate(specs):
            seed.store(spec, {"points": [[4, float(n)]]})
        seed.close()

        warm = ResultCache(disk_dir=tmp_path, backend="sqlite")
        for spec in specs:
            assert warm.lookup(spec) is not None
        assert warm.stats.disk_hits == 64
        p50_us = warm.stats.percentile_us(0.50)
        assert p50_us < 1000.0, f"warm lookup p50 {p50_us:.0f}us >= 1ms"
        warm.close()


# ----------------------------------------------------------------------
# the two resolution phases
# ----------------------------------------------------------------------
class _NoSharedTier:
    """A shared-tier backend that fails any access (memory phase probe)."""

    kind = "forbidden"
    supports_claims = False
    stats = None

    def get(self, digest):
        raise AssertionError("memory phase touched the shared tier")

    put = get

    def close(self):
        pass


class TestResolutionPhases:
    def test_memory_phase_never_touches_the_shared_tier(self):
        cache = ResultCache(backend=_NoSharedTier())
        warm, cold = spec_n(0), spec_n(1)
        cache._install(warm.digest, {"points": [[4, 1.0]]})
        executor = SweepExecutor(jobs=1, cache=cache)
        hits, rest = executor.resolve_memory([warm, cold, warm])
        assert [i for i, _s, _p in hits] == [0, 2]
        assert rest.pending == [cold] and rest.cached == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_phases_count_each_digest_once(self, tmp_path):
        seed = ResultCache(disk_dir=tmp_path, backend="sqlite")
        disk = spec_n(2)
        seed.store(disk, {"points": [[4, 2.0]]})
        seed.close()
        cache = ResultCache(disk_dir=tmp_path, backend="sqlite")
        mem = spec_n(0)
        cache.store(mem, {"points": [[4, 0.0]]})
        executor = SweepExecutor(jobs=1, cache=cache)
        specs = [disk, spec_n(1), mem, disk]
        order = [i for i, _s, _p in executor.run_iter(specs)]
        assert order[0] == 2  # the memory hit first, then the disk hits
        assert sorted(order) == [0, 1, 2, 3]
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.disk_hits) == (2, 1, 1)
        sweep = executor.sweep
        assert (sweep.specs, sweep.unique, sweep.cached,
                sweep.executed) == (4, 3, 2, 1)
        cache.close()

    def test_all_hit_batch_is_one_write(self):
        cache = ResultCache()
        specs = [spec_n(n) for n in range(3)]
        for n, spec in enumerate(specs):
            cache.store(spec, {"points": [[4, float(n)]]})
        service = SweepService(cache=cache)

        class Writer:
            def __init__(self):
                self.writes = []

            def write(self, data):
                self.writes.append(data)

            async def drain(self):
                pass

        writer = Writer()
        asyncio.run(_stream_batch(service, specs + specs[:1], writer))
        assert len(writer.writes) == 1
        lines = writer.writes[0].split(b"\r\n\r\n", 1)[1].splitlines()
        assert len(lines) == 5 and json.loads(lines[-1])["count"] == 4
        # encoded once per entry: the memo holds the payload it encoded
        assert all(cache._encoded[s.digest][0] is cache._mem[s.digest]
                   for s in specs)

    def test_concurrent_lookups_lose_no_counts(self):
        """The loop thread and executor threads share one cache: every
        lookup is counted and sampled exactly once."""
        cache = ResultCache()
        specs = [spec_n(n) for n in range(4)]
        for spec in specs:
            cache.store(spec, {"points": []})
        threads, rounds = 6, 3000

        def look():
            for i in range(rounds):
                if i % 2:
                    cache.lookup(specs[i % 4])
                else:
                    cache.lookup_memory(specs[i % 4])
                cache.lookup(spec_n(99))  # a miss

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=look) for _ in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in workers)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (threads * rounds,
                                              threads * rounds)
        assert len(stats.lookup_us) == 2 * threads * rounds

    def test_encoding_memo_follows_its_entry(self):
        cache = ResultCache()
        spec = spec_n(0)
        calls = []

        def encode(payload):
            calls.append(payload)
            return len(calls)

        cache.store(spec, {"points": [[4, 0.0]]})
        payload = cache.lookup(spec)
        assert cache.encoded(spec.digest, payload, encode) == 1
        assert cache.encoded(spec.digest, payload, encode) == 1
        cache.store(spec, {"points": [[4, 1.0]]})  # replaced: memo dropped
        assert spec.digest not in cache._encoded
        assert cache.encoded(spec.digest, cache.lookup(spec), encode) == 2
        cache.clear()
        assert not cache._encoded


# ----------------------------------------------------------------------
# lookup-sample statistics
# ----------------------------------------------------------------------
@pytest.fixture
def sort_calls(monkeypatch):
    calls = []

    def counting_sorted(values, *args, **kwargs):
        calls.append(len(values))
        return sorted(values, *args, **kwargs)

    monkeypatch.setattr(cache_module, "sorted", counting_sorted, raising=False)
    return calls


class TestLookupSampleSorts:
    def test_ledgerless_executor_never_sorts_samples(self, sort_calls):
        cache = ResultCache()
        executor = SweepExecutor(jobs=1, cache=cache)
        executor.run([spec_n(0), spec_n(1)])  # two misses
        executor.run([spec_n(0)])             # one hit
        assert cache.stats.lookups == 3
        assert sort_calls == []

    def test_stats_sort_once_for_both_quantiles(self, sort_calls):
        stats = cache_module.CacheStats()
        for us in (5.0, 1.0, 3.0, 2.0, 4.0):
            stats.record_lookup(us)
        out = stats.as_dict()
        assert (out["lookup_p50_us"], out["lookup_p95_us"]) == (3.0, 5.0)
        assert "p50 0.003ms p95 0.005ms" in str(stats)
        assert sort_calls == [5, 5]  # one sort per rendering

    def test_ledger_still_gets_the_cache_stats(self, tmp_path, sort_calls):
        from repro.obs.ledger import RunLedger, read_ledger

        path = tmp_path / "runs.jsonl"
        cache = ResultCache()
        with RunLedger(path) as ledger:
            SweepExecutor(jobs=1, cache=cache, ledger=ledger).run([spec_n(0)])
        finished = [e for e in read_ledger(path)
                    if e["event"] == "sweep_finished"]
        assert len(finished) == 1 and sort_calls == [1]
        assert finished[0]["cache"] == cache.stats.as_dict()
        assert set(finished[0]) >= {"executed", "errors", "wall_s", "cache"}


# ----------------------------------------------------------------------
# byte-identical record lines across the two serving paths
# ----------------------------------------------------------------------
def _raw_post(port: int, body: bytes, head: bytes = b"") -> bytes:
    """Send one raw request; return everything the server sent back."""
    if not head:
        head = (b"POST /batch HTTP/1.1\r\nContent-Length: %d\r\n"
                b"Connection: close\r\n\r\n" % len(body))
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head + body)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _record_lines(reply: bytes) -> list:
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 "), head
    lines = body.splitlines()
    assert json.loads(lines[-1])["done"]
    return sorted(lines[:-1], key=lambda line: json.loads(line)["index"])


class TestRecordLineParity:
    def test_memory_and_thread_paths_are_byte_identical(self, live_service):
        service, port, _ledger = live_service
        specs = [spec_n(0), spec_n(1), spec_n(0), RunSpec.microbench(
            "latency", "quadrics", sizes=(64, 4096), iters=3)]
        body = json.dumps({"specs": [s.to_jsonable() for s in specs]}).encode()
        executed = _record_lines(_raw_post(port, body))     # executor thread
        from_memory = _record_lines(_raw_post(port, body))  # event loop
        memoized = _record_lines(_raw_post(port, body))     # memo reused
        service.cache.clear(stats=False)
        from_sqlite = _record_lines(_raw_post(port, body))  # thread, disk hits
        assert executed == from_memory == memoized == from_sqlite
        # and identical to json.dumps of the whole record, as always encoded
        payloads = SweepExecutor(jobs=1).run(specs)
        expected = [json.dumps(
            {"index": i, "spec": s.describe(), "digest": s.digest,
             "error": False, "payload_digest": payload_digest(p), "payload": p},
            separators=(",", ":"), default=str).encode()
            for i, (s, p) in enumerate(zip(specs, payloads))]
        assert executed == expected


# ----------------------------------------------------------------------
# fail-closed POST /batch, against a real `repro serve` process
# ----------------------------------------------------------------------
def _batch(*specs) -> bytes:
    return json.dumps({"specs": list(specs)}).encode()


def _spec(**fields) -> dict:
    return {"kind": "microbench", "target": "latency", "sizes": [4],
            "iters": 2, **fields}


_MALFORMED = {
    "negative length": (b"POST /batch HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                        b"", 400),
    "non-numeric length": (b"POST /batch HTTP/1.1\r\nContent-Length: ten"
                           b"\r\n\r\n", b"", 400),
    "oversized length": (b"POST /batch HTTP/1.1\r\nContent-Length: "
                         b"99999999999\r\n\r\n", b"", 413),
    "truncated body": (b"POST /batch HTTP/1.1\r\nContent-Length: 500\r\n\r\n",
                       _batch(_spec()), None),
    "invalid utf-8": (b"", b"\xff\xfe{}", 400),
    "invalid json": (b"", b'{"specs": [', 400),
    "deeply nested json": (b"", b"[" * 100000, 400),
    "header too long": (b"POST /batch HTTP/1.1\r\nX: " + b"a" * 70000
                        + b"\r\n\r\n", b"", 400),
    "specs not a list": (b"", b'{"specs": {"kind": "microbench"}}', 400),
    "empty specs": (b"", _batch(), 400),
    "non-object spec": (b"", _batch(1), 400),
    "list spec": (b"", _batch([["kind", "microbench"]]), 400),
    "unknown field": (b"", _batch(_spec(bogus=1)), 400),
    "missing kind": (b"", _batch({"target": "latency"}), 400),
    "sizes a string": (b"", _batch(_spec(sizes="4")), 400),
    "sizes of floats": (b"", _batch(_spec(sizes=[4.5])), 400),
    "nprocs a string": (b"", _batch(_spec(nprocs="2")), 400),
    "nprocs a boolean": (b"", _batch(_spec(nprocs=True)), 400),
    "params a number": (b"", _batch(_spec(params=5)), 400),
    "params bad pairs": (b"", _batch(_spec(params=[["a", 1, 2]])), 400),
    "network a number": (b"", _batch(_spec(network=5)), 400),
    "unknown network": (b"", _batch(_spec(network="ethernet")), 400),
}


@pytest.fixture(scope="module")
def server_process(tmp_path_factory):
    """``repro serve`` in a child process, its stderr kept in a file."""
    tmp = tmp_path_factory.mktemp("serve")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    stderr_path = tmp / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", str(tmp / "cache")],
            stdout=subprocess.PIPE, stderr=stderr, env=env)
    try:
        announce = proc.stdout.readline().decode()
        port = int(announce.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        yield port, stderr_path
    finally:
        proc.terminate()
        proc.wait(timeout=30)
        proc.stdout.close()


class TestFailClosed:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_batch_is_refused(self, server_process, case):
        port, stderr_path = server_process
        head, body, status = _MALFORMED[case]
        logged = stderr_path.stat().st_size
        before = get_json("/stats", port=port)
        if not head:
            head = (b"POST /batch HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                    % len(body))
        reply = _raw_post(port, body, head)
        if status is None:
            assert reply == b""  # closed without a reply
        else:
            assert reply.startswith(b"HTTP/1.1 %d " % status), reply[:200]
            error = json.loads(reply.partition(b"\r\n\r\n")[2])
            assert set(error) == {"error"}
        after = get_json("/stats", port=port)
        assert after["cache"]["stores"] == before["cache"]["stores"]
        assert after["specs"] == before["specs"] == 0
        log = stderr_path.read_bytes()[logged:].decode(errors="replace")
        assert "Traceback" not in log and "Unhandled" not in log, log


# ----------------------------------------------------------------------
# the plain-socket client
# ----------------------------------------------------------------------
@pytest.fixture
def canned_server():
    """A one-shot server replying with fixed bytes (None: never reply)."""
    servers = []

    def start(reply):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def run():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                if reply is None:
                    time.sleep(1.0)
                    return
                conn.sendall(reply)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        servers.append((listener, thread))
        return listener.getsockname()[1]

    yield start
    for listener, thread in servers:
        thread.join(timeout=5)
        listener.close()


_OK_HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n"


class TestClient:
    @pytest.mark.parametrize("reply, match", [
        (b"HTTP/1.1 503 Service Unavailable\r\n\r\n{\"error\": \"busy\"}\n",
         "HTTP 503: .*busy"),
        (b"garbage\r\n\r\n", "bad status line"),
        (b"", "bad status line"),
        (_OK_HEAD + b'{"index": 0}\nnot json\n', "bad NDJSON line"),
        (_OK_HEAD + b"[1, 2]\n", "bad NDJSON line"),
        (_OK_HEAD + b'{"index": 0, "payload": {}}\n', "before its done line"),
        (_OK_HEAD + b'{"done": true, "failed": "RuntimeError: boom"}\n',
         "batch failed: RuntimeError: boom"),
    ])
    def test_bad_replies_raise_service_error(self, canned_server, reply, match):
        port = canned_server(reply)
        with pytest.raises(ServiceError, match=match):
            list(iter_batch([spec_n(0)], port=port))

    def test_records_then_done(self, canned_server):
        port = canned_server(_OK_HEAD + b'{"index": 0, "payload": {}}\n\n'
                             b'{"done": true, "count": 1}\n')
        records = list(iter_batch([spec_n(0)], port=port))
        assert records == [{"index": 0, "payload": {}},
                           {"done": True, "count": 1}]

    def test_timeout_is_honoured(self, canned_server):
        port = canned_server(None)
        t0 = time.perf_counter()
        with pytest.raises(OSError):
            get_json("/stats", port=port, timeout_s=0.2)
        assert time.perf_counter() - t0 < 0.9
