"""``service_warm``: one closed-loop client against a warm ``repro serve``.

The server runs serially (``--jobs 1``) over a fresh SQLite tier that an
untimed Figs. 1-12 pass has filled with real figure-sweep payloads.  The
client, like a ``repro submit`` caller, sends its next request only
after the previous reply's ``done`` line.  Requests come in blocks of
``BLOCK`` drawn from the seed: every ``MISS_EVERY``-th is a miss — one
fresh spec of fixed cost, a latency sweep made distinct by its ``seed``
field — and the rest are hits of ``HIT_BATCH`` seeded specs each.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
import procs
import sweep

BLOCK = 100
MISS_EVERY = 10
HIT_BATCH = 8
#: blocks a run always times: >= 1000 hits and >= 100 misses, so that
#: hit p99 and miss p90 each have at least ten samples beyond them
MIN_BLOCKS = 12
#: blocks between the extra cold starts of a probe server
PROBE_EVERY = 4
REQUEST_TIMEOUT_S = 60.0


def miss_template():
    from repro.runtime.spec import RunSpec

    return RunSpec.microbench("latency", "infiniband",
                              sizes=(4, 256, 4096, 65536), iters=15)


class Client:
    """Closed-loop request generator and checker for one run."""

    def __init__(self, seed: int, seeded: List[dict], expected: dict) -> None:
        from repro.runtime.spec import RunSpec

        self.rng = random.Random(seed)
        self.seeded = [RunSpec.from_jsonable(s) for s in seeded]
        self.expected = expected
        self.template = miss_template()
        self.used_seeds = {0}
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.reset_samples()

    def reset_samples(self) -> None:
        self.hit_ms: List[float] = []
        self.miss_ms: List[float] = []
        self.ttfb_ms: List[float] = []
        self.stream_ms: List[float] = []
        self.block_s: List[float] = []
        self.response_bytes = 0
        self.errors = 0
        self.miss_counters: Dict[str, float] = {}

    def _miss_spec(self):
        seed = 0
        while seed in self.used_seeds:
            seed = self.rng.randrange(1, 2 ** 31)
        self.used_seeds.add(seed)
        return self.template.replace(seed=seed)

    def _expected_digest(self, spec, is_miss: bool) -> Optional[str]:
        if is_miss:
            return self.expected["miss"]
        return self.expected["payloads"].get(spec.digest)

    def request(self, specs, is_miss: bool, port: int, host: str,
                spans: Optional[layers.Spans] = None) -> None:
        """One request: time it, check every record, count a failure."""
        from repro.service.client import ServiceError, iter_batch

        self.attempted += 1
        problem = None
        seen = set()
        span = spans.begin("iter_batch", miss=is_miss) if spans else None
        t_send = time.perf_counter()
        t_first = None
        try:
            for record in iter_batch(specs, host=host, port=port,
                                     timeout_s=REQUEST_TIMEOUT_S):
                if t_first is None:
                    t_first = time.perf_counter()
                if record.get("done"):
                    continue
                self.response_bytes += len(json.dumps(
                    record, separators=(",", ":"))) + 1
                index = record["index"]
                seen.add(index)
                payload = record["payload"]
                if record.get("error"):
                    self.errors += 1
                    problem = f"error payload for {record.get('spec')}"
                elif layers.result_digest(payload) != self._expected_digest(
                        specs[index], is_miss):
                    problem = f"result differs from pin for {record.get('spec')}"
                elif is_miss:
                    layers.add_counters(self.miss_counters,
                                        payload["metrics"]["counters"])
        except (ServiceError, OSError, KeyError, IndexError, TypeError) as exc:
            self.errors += 1
            problem = f"{type(exc).__name__}: {exc}"
        t_done = time.perf_counter()
        if spans:
            spans.end(span)
        if problem is None and len(seen) != len(specs):
            problem = f"{len(specs) - len(seen)} spec(s) never resolved"
        if problem is not None:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(problem)
            return
        (self.miss_ms if is_miss else self.hit_ms).append((t_done - t_send) * 1e3)
        self.ttfb_ms.append((t_first - t_send) * 1e3)
        self.stream_ms.append((t_done - t_first) * 1e3)

    def block(self, server: procs.Server,
              spans: Optional[layers.Spans] = None) -> None:
        t0 = time.perf_counter()
        for i in range(BLOCK):
            if i % MISS_EVERY == MISS_EVERY - 1:
                self.request([self._miss_spec()], True, server.port,
                             server.host, spans)
            else:
                self.request(self.rng.sample(self.seeded, HIT_BATCH), False,
                             server.port, server.host, spans)
        self.block_s.append(time.perf_counter() - t0)

    def warm(self, server: procs.Server) -> None:
        """Untimed: touch every seeded spec once, so hits are memory hits;
        then start the samples afresh."""
        self.request(self.seeded, False, server.port, server.host)
        self.reset_samples()

    def summary(self) -> Dict[str, float]:
        loop_s = sum(self.block_s)
        return {
            "service.hit_ms_p50": layers.percentile(self.hit_ms, 0.50),
            "service.hit_ms_p99": layers.percentile(self.hit_ms, 0.99),
            "service.miss_ms_p50": layers.percentile(self.miss_ms, 0.50),
            "service.miss_ms_p90": layers.percentile(self.miss_ms, 0.90),
            "service.requests_per_s": (BLOCK * len(self.block_s) / loop_s
                                       if loop_s else 0.0),
        }

    def describe(self) -> str:
        s = self.summary()
        return (f"{len(self.block_s)} blocks of {BLOCK}: "
                f"hit p50 {s['service.hit_ms_p50']:.2f}ms "
                f"p99 {s['service.hit_ms_p99']:.2f}ms (n={len(self.hit_ms)}), "
                f"miss p50 {s['service.miss_ms_p50']:.2f}ms "
                f"p90 {s['service.miss_ms_p90']:.2f}ms (n={len(self.miss_ms)}), "
                f"{s['service.requests_per_s']:.1f} req/s")


def _seed_tier(tier: Path, expected: dict, tally: sweep.Tally,
               log) -> tuple:
    """Untimed Figs. 1-12 pass storing its payloads in ``tier``."""
    _t, result = sweep.run_pass("figs_micro", sweep.FIGURES, expected["figs_micro"],
                                cache_dir=str(tier), validate=True)
    tally.add(result)
    log(f"seeded {len(result['specs'])} specs; paper_err_pct "
        f"{result['paper_err_pct']:.2f}% (median |error| of the quick §3 "
        f"headline items)")
    return result["specs"], result["paper_err_pct"]


def _probe_server(work: Path, n: int) -> float:
    server = procs.Server(work / f"probe-{n}")
    server.stop()
    return server.setup_s


def _run_dir() -> Path:
    work = procs.WORK / f"service-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    return work


def _merge(tally: sweep.Tally, client: Client) -> None:
    tally.attempted += client.attempted
    tally.failed += client.failed
    tally.notes += client.notes


def measure(seed: int, seconds: float, expected: dict, tally: sweep.Tally,
            log) -> Dict[str, float]:
    """Untraced run: set-up, block time and server peak RSS."""
    work = _run_dir()
    try:
        seeded, _err = _seed_tier(work / "tier", expected, tally, log)
        client = Client(seed, seeded, expected["service_warm"])
        setup = [_probe_server(work, 0)]
        server = procs.Server(work / "tier")
        try:
            setup.append(server.setup_s)
            client.warm(server)
            t_start = time.monotonic()
            while (len(client.block_s) < MIN_BLOCKS
                   or time.monotonic() - t_start < seconds):
                client.block(server)
                if len(client.block_s) % PROBE_EVERY == 0:
                    setup.append(_probe_server(work, len(setup)))
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        setup.append(_probe_server(work, len(setup)))
        _merge(tally, client)
        log(client.describe())
        log(f"{len(setup)} server starts; median block "
            f"{layers.median(client.block_s):.3f}s")
        return {"setup_s": layers.median(setup),
                "wall_s": layers.median(client.block_s), "peak_rss_mb": rss}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    return {"runtime.hits": hits, "runtime.misses": misses,
            "runtime.executed": after["executed"] - before["executed"],
            "runtime.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.lookup_us_p50": after["cache"].get("lookup_p50_us", 0.0),
            "runtime.lookup_us_p95": after["cache"].get("lookup_p95_us", 0.0)}


def trace(seed: int, expected: dict, tally: sweep.Tally, spans: layers.Spans,
          log) -> Dict[str, float]:
    """Traced run: MIN_BLOCKS untraced, then MIN_BLOCKS against a profiled
    server; both servers start from the same seeded tier."""
    from repro.service.client import get_json

    work = _run_dir()
    try:
        seeded, paper_err = _seed_tier(work / "tier", expected, tally, log)
        imports = [layers.import_times(procs.importtime_probe()) for _ in range(3)]
        out = {key: layers.median([imp[key] for imp in imports])
               for key in imports[0]}
        out["experiments.paper_err_pct"] = paper_err
        client = Client(seed, seeded, expected["service_warm"])
        server = procs.Server(work / "tier")
        try:
            client.warm(server)
            for _ in range(MIN_BLOCKS):
                client.block(server)
        finally:
            server.stop()
        untraced_wall = layers.median(client.block_s)
        out.update(client.summary())
        log("untraced: " + client.describe())

        profile_path = work / "server-profile.json"
        server = procs.Server(work / "tier", profile_to=profile_path)
        spans.add("startup", server.t_spawn, server.t_ready, server="profiled")
        try:
            client.warm(server)
            before = get_json("/stats", host=server.host, port=server.port)
            for _ in range(MIN_BLOCKS):
                client.block(server, spans)
            after = get_json("/stats", host=server.host, port=server.port)
        finally:
            server.stop()
        _merge(tally, client)
        log("traced: " + client.describe())
        traced_wall = layers.median(client.block_s)

        out.update(layers.layer_self_times(json.loads(profile_path.read_text())))
        out.update(layers.counter_metrics(client.miss_counters))
        # host time here is mostly cache service, not simulation
        out["core.us_per_event"] = 0.0
        out.update(_stats_delta(before, after))
        out.update({"service.ttfb_ms_p50": layers.percentile(client.ttfb_ms, 0.5),
                    "service.stream_ms_p50": layers.percentile(client.stream_ms, 0.5),
                    "service.response_bytes": client.response_bytes,
                    "service.errors": client.errors,
                    "trace.untraced_wall_s": untraced_wall,
                    "trace.traced_wall_s": traced_wall,
                    "trace.overhead_s": traced_wall - untraced_wall})
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)
