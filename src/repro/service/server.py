"""Async batch front-end: POST RunSpec batches, stream NDJSON results.

One :class:`SweepService` owns the warm state — a shared
:class:`~repro.runtime.cache.ResultCache` (SQLite tier by default, so
concurrent clients also share in-flight claims), one persistent worker
pool and one run ledger — while each connection gets its own
:class:`~repro.runtime.executor.SweepExecutor` view with private sweep
stats.  Results stream back the moment each spec resolves::

    POST /batch          {"specs": [{...RunSpec.to_jsonable()...}, ...]}
      -> 200 application/x-ndjson, one line per input spec (resolution
         order), then a final {"done": true, ...} summary line
    GET /healthz         {"ok": true, ...}
    GET /stats           cache counters + eviction totals + service totals

Stdlib only: ``asyncio.start_server`` speaking minimal HTTP/1.1 with
``Connection: close`` framing (clients read until EOF), so the server
never needs to know a response's length before streaming it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import socket
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.metrics import MetricsRegistry
from repro.obs.ledger import RunLedger
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor, SweepStats, is_error_payload
from repro.runtime.spec import RunSpec

__all__ = ["SweepService", "serve", "payload_digest", "MAX_BODY_BYTES"]

#: refuse request bodies larger than this (a 4096-spec batch is ~1 MiB)
MAX_BODY_BYTES = 32 * 1024 * 1024

# reused encoders: json.dumps with options builds a new encoder per call
#: what every NDJSON line is encoded with
_WIRE_JSON = json.JSONEncoder(separators=(",", ":"), default=str).encode
#: the canonical payload JSON behind payload_digest
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                   default=str).encode


def payload_digest(payload: dict) -> str:
    """Short content digest of a result payload (canonical JSON, 16 hex).

    Used by clients and the CI smoke job to prove that deduped requests
    were served byte-identical results.
    """
    blob = _CANONICAL_JSON(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _encode_payload(payload: dict) -> Tuple[bytes, str]:
    """A payload's wire JSON and its :func:`payload_digest`.

    Computed once per memory-tier entry (``ResultCache.encoded``) for
    cache hits, once per line for fresh executions.
    """
    if is_error_payload(payload) and "_exc" in payload:
        # the in-process exception object never goes on the wire
        payload = {k: v for k, v in payload.items() if k != "_exc"}
    return _WIRE_JSON(payload).encode("utf-8"), payload_digest(payload)


def _record_line(index: int, spec: RunSpec, error: bool,
                 encoded: Tuple[bytes, str]) -> bytes:
    """One NDJSON record line around an already-encoded payload.

    Byte-identical to ``json.dumps({"index", "spec", "digest", "error",
    "payload_digest", "payload"}, separators=(",", ":"), default=str)``:
    the payload is the last key, so its JSON closes the object.
    """
    wire, digest = encoded
    head = _WIRE_JSON({"index": index, "spec": spec.describe(),
                       "digest": spec.digest, "error": error,
                       "payload_digest": digest})
    return head[:-1].encode("utf-8") + b',"payload":' + wire + b"}\n"


class _UnreadMetrics(MetricsRegistry):
    """Metrics aggregate of a per-connection executor.

    Nothing reads it (``/stats`` reports cache and sweep counters), so
    resolving a hit skips folding the payload's run metrics into it.
    """

    def merge(self, other) -> "MetricsRegistry":
        return self


class SweepService:
    """Shared warm state behind the batch endpoint.

    ``cache`` defaults to a fresh SQLite-backed tier under ``cache_dir``
    so that (a) every connection of this server shares one result store
    and (b) *other* processes pointed at the same directory — more
    servers, or plain ``repro`` CLI runs — dedup in-flight work through
    the claim table.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 cache_dir: Union[str, Path, None] = None,
                 cache_backend: Optional[str] = None,
                 jobs: int = 1, timeout_s: Optional[float] = None,
                 ledger: Union[str, Path, RunLedger, None] = None) -> None:
        if cache is None:
            cache = ResultCache(disk_dir=cache_dir,
                                backend=cache_backend or "sqlite")
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.timeout_s = timeout_s
        if ledger is not None and not isinstance(ledger, RunLedger):
            ledger = RunLedger(ledger)
        self.ledger = ledger
        self._pool = None
        self.totals = SweepStats()
        self.batches = 0

    def _shared_pool(self):
        if self.jobs > 1 and self._pool is None:
            self._pool = multiprocessing.Pool(self.jobs)
        return self._pool

    def executor(self) -> SweepExecutor:
        """A per-connection executor over the shared cache/pool/ledger."""
        return SweepExecutor(jobs=self.jobs, cache=self.cache,
                             metrics=_UnreadMetrics(),
                             timeout_s=self.timeout_s, ledger=self.ledger,
                             pool=self._shared_pool())

    def stats_payload(self) -> dict:
        out: Dict[str, Any] = {
            "batches": self.batches,
            "specs": self.totals.specs,
            "executed": self.totals.executed,
            "peer_served": self.totals.served,
            "cache": self.cache.stats.as_dict(),
            "backend": self.cache.backend_kind,
        }
        backend = self.cache.backend
        eviction = getattr(backend, "eviction_stats", None)
        if callable(eviction):
            out["eviction"] = eviction()
        return out

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        if self.ledger is not None:
            self.ledger.close()
        self.cache.close()


# ----------------------------------------------------------------------
# minimal HTTP plumbing
# ----------------------------------------------------------------------
async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, bytes]]:
    """Parse one request; returns (method, path, body) or None on EOF.

    A truncated body raises ``asyncio.IncompleteReadError`` (the caller
    closes without replying); everything else malformed is an
    :class:`_HttpError`.
    """
    line = await _read_line(reader)
    if not line:
        return None
    try:
        method, path, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _HttpError(400, "malformed request line")
    length = 0
    while True:
        header = await _read_line(reader)
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            value = value.strip()
            if not (value.isascii() and value.isdigit()):  # refuses "-1"
                raise _HttpError(400, "bad Content-Length")
            length = int(value)
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, body


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # a line beyond the stream's 64 KiB limit
        raise _HttpError(400, "request line or header too long")


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


def _head(status: int, content_type: str = "application/json") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    return (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Connection: close\r\n\r\n").encode("latin-1")


async def _send_json(writer: asyncio.StreamWriter, status: int,
                     payload: dict) -> None:
    writer.write(_head(status) + json.dumps(payload).encode("utf-8") + b"\n")
    await writer.drain()


def _parse_batch(body: bytes) -> List[RunSpec]:
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"body is not valid JSON: {exc}")
    except RecursionError:
        raise _HttpError(400, "body is nested too deeply")
    if isinstance(data, dict):
        data = data.get("specs")
    if not isinstance(data, list) or not data:
        raise _HttpError(400, 'expected {"specs": [...]} with >= 1 spec')
    specs = []
    for i, item in enumerate(data):
        try:
            specs.append(RunSpec.from_jsonable(item))
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"specs[{i}]: {exc}")
    return specs


# ----------------------------------------------------------------------
# the batch handler
# ----------------------------------------------------------------------
async def _stream_batch(service: SweepService, specs: List[RunSpec],
                        writer: asyncio.StreamWriter) -> None:
    """Answer memory-tier hits on the loop, stream the rest from a thread.

    The event loop itself only reads the in-memory tier
    (``resolve_memory``): the response head and every hit line go out
    in one write, each hit's payload encoded once per cache entry.
    Shared-tier reads, claims and execution (``resolve_rest``) run in
    an executor thread, which encodes and hands over one line at a time.
    """
    executor = service.executor()
    cache = service.cache
    hits, rest = executor.resolve_memory(specs)
    out = [_head(200, "application/x-ndjson")]
    for index, spec, payload in hits:
        out.append(_record_line(index, spec, False, cache.encoded(
            spec.digest, payload, _encode_payload)))
    streamed = len(hits)
    errors = 0
    failure: Optional[BaseException] = None
    if rest.pending:
        writer.write(b"".join(out))
        out = []
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()

        def pump() -> None:
            try:
                for index, spec, payload in executor.resolve_rest(rest):
                    error = is_error_payload(payload)
                    line = _record_line(index, spec, error,
                                        _encode_payload(payload))
                    loop.call_soon_threadsafe(queue.put_nowait, (line, error))
            except BaseException as exc:  # surfaced as the final line
                loop.call_soon_threadsafe(queue.put_nowait, exc)
            finally:
                loop.call_soon_threadsafe(queue.put_nowait, None)

        task = loop.run_in_executor(None, pump)
        while True:
            item = await queue.get()
            if item is None:
                break
            if isinstance(item, BaseException):
                failure = item
                continue
            line, error = item
            if error:
                errors += 1
            writer.write(line)
            await writer.drain()
            streamed += 1
        await task
    tail: Dict[str, Any] = {"done": True, "count": streamed, "errors": errors,
                            "sweep": executor.sweep.line()}
    if failure is not None:
        tail["failed"] = f"{type(failure).__name__}: {failure}"
    out.append(_WIRE_JSON(tail).encode("utf-8") + b"\n")
    writer.write(b"".join(out))
    await writer.drain()
    service.batches += 1
    service.totals.merge(executor.sweep)


async def _handle(service: SweepService, reader: asyncio.StreamReader,
                  writer: asyncio.StreamWriter) -> None:
    try:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            method, path, body = request
            if path == "/healthz" and method == "GET":
                await _send_json(writer, 200, {"ok": True,
                                               "backend": service.cache.backend_kind,
                                               "jobs": service.jobs})
            elif path == "/stats" and method == "GET":
                await _send_json(writer, 200, service.stats_payload())
            elif path == "/batch" and method == "POST":
                await _stream_batch(service, _parse_batch(body), writer)
            elif path in ("/batch", "/healthz", "/stats"):
                await _send_json(writer, 405,
                                 {"error": f"{method} not allowed on {path}"})
            else:
                await _send_json(writer, 404, {"error": f"no route {path}"})
        except _HttpError as exc:
            await _send_json(writer, exc.status, {"error": exc.message})
        except asyncio.IncompleteReadError:
            pass
    except (ConnectionError, BrokenPipeError):  # client went away mid-stream
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def _serve_async(service: SweepService, host: str, port: int,
                       ready: Optional[Any] = None) -> None:
    async def handler(reader, writer):
        await _handle(service, reader, writer)

    # fork the worker pool *before* any sockets exist: children forked
    # mid-connection would inherit the accepted fd and hold it open,
    # so clients waiting for EOF after the final NDJSON line would
    # hang until the pool exits
    service._shared_pool()
    server = await asyncio.start_server(handler, host=host, port=port)
    bound = server.sockets[0].getsockname()[:2] if server.sockets else (host, port)
    if ready is not None:
        ready(bound[0], bound[1])
    async with server:
        await server.serve_forever()


def serve(service: SweepService, host: str = "127.0.0.1", port: int = 8123,
          announce: Optional[Any] = None) -> None:
    """Run the service until interrupted (blocking; Ctrl-C to stop).

    ``port=0`` binds an ephemeral port; ``announce(host, port)`` is
    called once listening (the CLI prints it, tests capture it).
    """
    try:
        asyncio.run(_serve_async(service, host, port, ready=announce))
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        service.close()


def pick_free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (tests / --port 0 helpers)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]
