"""Shared helpers: spans, percentiles, digests and per-layer attribution.

Everything here is benchmark-side: it reads the program's public
outputs (payload ``metrics``, ``GET /stats``, ``runtime.cache_stats()``)
and the host-side profiles the benchmark itself takes, and never
reaches into the simulator.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import os
import pstats
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: packages of ``repro`` whose host self time is reported one by one
LAYERS = ("core", "hardware", "networks", "mpi", "microbench", "apps",
          "profiling", "experiments", "runtime", "service")
FABRICS = ("infiniband", "myrinet", "quadrics")

#: per-layer metric catalogue: name -> unit (the order is the output order)
PER_LAYER = {
    "import.repro_ms": "ms",
    "import.numpy_ms": "ms",
    "core.self_s": "s",
    "core.events": "count",
    "core.us_per_event": "us",
    "hardware.self_s": "s",
    "hardware.bus_transfers": "count",
    "hardware.wire_bytes": "bytes",
    "networks.self_s": "s",
    "networks.infiniband.self_s": "s",
    "networks.myrinet.self_s": "s",
    "networks.quadrics.self_s": "s",
    "networks.packets": "count",
    "networks.retransmits": "count",
    "mpi.self_s": "s",
    "mpi.msgs_eager": "count",
    "mpi.msgs_rndv": "count",
    "mpi.nic_matches": "count",
    "microbench.self_s": "s",
    "apps.self_s": "s",
    "profiling.self_s": "s",
    "profiling.records": "count",
    "experiments.self_s": "s",
    "experiments.paper_err_pct": "%",
    "runtime.self_s": "s",
    "runtime.lookup_us_p50": "us",
    "runtime.lookup_us_p95": "us",
    "runtime.hits": "count",
    "runtime.misses": "count",
    "runtime.executed": "count",
    "runtime.hit_ratio": "ratio",
    "service.self_s": "s",
    "service.ttfb_ms_p50": "ms",
    "service.stream_ms_p50": "ms",
    "service.response_bytes": "bytes",
    "service.errors": "count",
    "service.hit_ms_p50": "ms",
    "service.hit_ms_p99": "ms",
    "service.miss_ms_p50": "ms",
    "service.miss_ms_p90": "ms",
    "service.requests_per_s": "1/s",
    "stdlib.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}

#: per-layer metrics that are event or work counts: they must repeat
#: exactly between two traced runs at one seed (see tests/)
COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items()
                      if unit in ("count", "bytes"))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log: name, start, end, parent and trace id.

    Times are ``time.monotonic()`` seconds, which on Linux share one
    clock across processes, so spans recorded by a child interpreter
    line up with the parent's.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.records: List[dict] = []
        self._stack: List[int] = []

    def begin(self, name: str, **attrs) -> int:
        span_id = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append({"id": span_id, "trace": self.trace_id,
                             "parent": parent, "name": name,
                             "start": time.monotonic(), "end": None, **attrs})
        self._stack.append(span_id)
        return span_id

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **attrs) -> int:
        """Record a finished span whose instants were taken elsewhere."""
        span_id = len(self.records)
        self.records.append({"id": span_id, "trace": self.trace_id,
                             "parent": parent, "name": name,
                             "start": start, "end": end, **attrs})
        return span_id

    def end(self, span_id: int) -> None:
        self.records[span_id]["end"] = time.monotonic()
        self._stack.remove(span_id)

    def adopt(self, records: Iterable[dict], parent: Optional[int]) -> None:
        """Attach spans recorded elsewhere (a child) under ``parent``."""
        base = len(self.records)
        for rec in records:
            rec = dict(rec)
            rec["id"] += base
            rec["parent"] = parent if rec["parent"] is None else rec["parent"] + base
            rec["trace"] = self.trace_id
            self.records.append(rec)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.records}, indent=1) + "\n")


# ----------------------------------------------------------------------
# statistics and digests
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1); 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def digest(obj) -> str:
    """Short sha256 of canonical JSON (results only, never wall clocks)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def artifact_digest(result) -> str:
    """Digest of a rendered artifact's data: a figure's series or a table's
    cells."""
    if hasattr(result, "series"):
        return digest([[s.label, s.points] for s in result.series])
    return digest([result.headers, result.rows])


def result_digest(payload: dict) -> str:
    """Digest of a payload's results (``points`` / ``elapsed_s``), never
    of its wall-clock side channels or counters."""
    return digest({k: payload[k] for k in ("points", "elapsed_s")
                   if k in payload})


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


# ----------------------------------------------------------------------
# host self time by package
# ----------------------------------------------------------------------
def bucket_of(filename: str, repro_dir: str, bench_dir: str) -> str:
    """``repro.<package>`` bucket of a profiled code location.

    Fabric subpackages of ``networks`` get their own bucket; code outside
    ``repro`` and the benchmark (stdlib, builtins, numpy) is ``stdlib``.
    """
    if filename.startswith(repro_dir):
        parts = filename[len(repro_dir):].lstrip(os.sep).split(os.sep)
        if len(parts) == 1:
            return "repro"
        if parts[0] == "networks" and len(parts) > 2:
            return f"networks.{parts[1]}"
        return parts[0]
    if filename.startswith(bench_dir):
        return "bench"
    return "stdlib"


#: builtins a thread blocks in while it has nothing to do; their time is
#: idle waiting, not work, and lands in the unreported ``wait`` bucket
WAITS = ("select.epoll", "select.poll", "select.select", "_thread.lock",
         "_queue.SimpleQueue", "time.sleep")


def profile_buckets(profiles: Iterable[cProfile.Profile], repro_dir: str,
                    bench_dir: str) -> Dict[str, float]:
    """Sum of cProfile self time (tottime) per package bucket, seconds."""
    out: Dict[str, float] = {}
    for prof in profiles:
        for (filename, _line, fn), row in pstats.Stats(prof).stats.items():
            if filename == "~" and any(w in fn for w in WAITS):
                key = "wait"
            else:
                key = bucket_of(filename, repro_dir, bench_dir)
            out[key] = out.get(key, 0.0) + row[2]
    return out


def layer_self_times(buckets: Dict[str, float]) -> Dict[str, float]:
    """Per-layer ``*.self_s`` metrics from package buckets."""
    out = {f"{layer}.self_s": buckets.get(layer, 0.0) for layer in LAYERS}
    for fabric in FABRICS:
        share = buckets.get(f"networks.{fabric}", 0.0)
        out[f"networks.{fabric}.self_s"] = share
        out["networks.self_s"] += share
    out["stdlib.self_s"] = buckets.get("stdlib", 0.0)
    return out


def counter_metrics(counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer work counts from a payload ``metrics['counters']`` map."""
    return {
        "core.events": counters.get("engine.events_total", 0.0),
        "hardware.bus_transfers": counters.get("hw.bus.transfers", 0.0),
        "hardware.wire_bytes": counters.get("hw.wire.bytes", 0.0),
        "networks.packets": sum(v for k, v in counters.items()
                                if k.startswith("net.pkts.")),
        "networks.retransmits": counters.get("net.retransmits", 0.0),
        "mpi.msgs_eager": counters.get("mpi.msgs.eager", 0.0),
        "mpi.msgs_rndv": counters.get("mpi.msgs.rndv", 0.0),
        "mpi.nic_matches": counters.get("proto.nic_matches", 0.0),
    }


def add_counters(total: Dict[str, float], counters: Dict[str, float]) -> None:
    for name, value in counters.items():
        total[name] = total.get(name, 0.0) + value


def import_times(stderr: str) -> Dict[str, float]:
    """Cumulative ``-X importtime`` ms of ``repro.__main__`` and ``numpy``."""
    out = {"import.repro_ms": 0.0, "import.numpy_ms": 0.0}
    names = {"repro.__main__": "import.repro_ms", "numpy": "import.numpy_ms"}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        key = names.get(fields[2].strip())
        if key is not None and fields[1].strip().isdigit():
            out[key] = int(fields[1].strip()) / 1000.0
    return out
