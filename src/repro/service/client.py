"""Stdlib client for the sweep service: submit batches, stream results.

:func:`iter_batch` POSTs a RunSpec batch and yields one parsed NDJSON
record per spec as the server resolves it (cache hits arrive in
milliseconds, fresh simulations as they finish); :func:`submit_batch`
collects them back into input order.  The transport is a plain socket
speaking the server's ``Connection: close`` framing: one request, then
the status line, headers and body lines read until EOF — no chunked
encoding, no keep-alive, nothing ``http.client`` would add per request.
"""

from __future__ import annotations

import json
import socket
from contextlib import contextmanager
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Union

from repro.runtime.spec import RunSpec

__all__ = ["ServiceError", "iter_batch", "submit_batch", "get_json"]

Specish = Union[RunSpec, Dict]


class ServiceError(RuntimeError):
    """The server refused or aborted a request (HTTP error or bad line)."""


def _jsonable(spec: Specish) -> dict:
    return spec.to_jsonable() if isinstance(spec, RunSpec) else dict(spec)


@contextmanager
def _exchange(method: str, path: str, host: str, port: int,
              timeout_s: float, body: bytes = b"") -> Iterator[BinaryIO]:
    """Send one request; yield the reply body stream once the status is 200.

    A non-200 reply raises :class:`ServiceError` carrying its body.
    """
    head = (f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(head.encode("latin-1") + body)
        with sock.makefile("rb") as stream:
            status_line = stream.readline()
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[0].startswith(b"HTTP/") \
                    or not parts[1].isdigit():
                raise ServiceError(
                    f"bad status line from server: {status_line[:80]!r}")
            while stream.readline() not in (b"\r\n", b"\n", b""):
                pass  # headers: the framing is always Connection: close
            status = int(parts[1])
            if status != 200:
                detail = stream.read().decode("utf-8", "replace").strip()
                raise ServiceError(f"HTTP {status}: {detail}")
            yield stream


def iter_batch(specs: Sequence[Specish], host: str = "127.0.0.1",
               port: int = 8123, timeout_s: float = 600.0) -> Iterator[dict]:
    """POST a batch, yield one result record per line as it streams in.

    Records look like ``{"index": 3, "digest": "...", "payload": {...},
    "payload_digest": "...", "error": false}``; the terminal
    ``{"done": true}`` summary is yielded last.  Raises
    :class:`ServiceError` on a non-200 response, a bad NDJSON line, a
    server-reported batch failure or a stream that ends before ``done``.
    """
    body = json.dumps({"specs": [_jsonable(s) for s in specs]}).encode("utf-8")
    with _exchange("POST", "/batch", host, port, timeout_s, body) as stream:
        for raw in stream:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError as exc:
                raise ServiceError(f"bad NDJSON line from server: {exc}")
            if not isinstance(record, dict):
                raise ServiceError(f"bad NDJSON line from server: {raw[:80]!r}")
            if record.get("done"):
                if record.get("failed"):
                    raise ServiceError(f"batch failed: {record['failed']}")
                yield record
                return
            yield record
    raise ServiceError("server closed the stream before its done line")


def submit_batch(specs: Sequence[Specish], host: str = "127.0.0.1",
                 port: int = 8123, timeout_s: float = 600.0) -> List[dict]:
    """Run a batch through the service; payloads back in input order."""
    payloads: List[Optional[dict]] = [None] * len(specs)
    for record in iter_batch(specs, host=host, port=port, timeout_s=timeout_s):
        if record.get("done"):
            continue
        payloads[record["index"]] = record["payload"]
    missing = [i for i, p in enumerate(payloads) if p is None]
    if missing:
        raise ServiceError(f"server never resolved specs {missing}")
    return payloads  # type: ignore[return-value]


def get_json(path: str, host: str = "127.0.0.1", port: int = 8123,
             timeout_s: float = 30.0) -> dict:
    """GET a JSON endpoint (``/healthz``, ``/stats``)."""
    with _exchange("GET", path, host, port, timeout_s) as stream:
        data = stream.read()
    try:
        return json.loads(data)
    except ValueError as exc:
        raise ServiceError(f"bad JSON from server: {exc}")
