"""One fresh interpreter of the sweep workloads.

``python3 perfbench/child.py probe`` imports ``repro.__main__``,
configures the runtime the way ``repro figN`` does (serial, in-memory
cache) and reports the ``time.monotonic()`` instant it was ready; the
parent, which noted the instant it spawned the process, takes the
difference as one set-up sample.

``python3 perfbench/child.py pass <spec.json>`` does the same and then
runs one artifact set in this process — Figs. 1-12 through
``run_figure(..., quick=True)`` plus ``render()``, or Tables 1/3/4/5
through ``run_table`` — exactly as the CLI runs them, and prints one
JSON line with the timing, the result digests and, when asked, the
host profile, spans and program counters of the pass.
"""

import time

import repro.__main__  # noqa: F401  (the CLI module: what set-up pays for)
from repro import runtime
from repro.experiments import run_figure, run_table

runtime.configure(jobs=1)
READY = time.monotonic()

import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.dirname(repro.__file__)


def _seeding_tier(cache_dir: str, dump: list) -> None:
    """Store results in a SQLite tier and note every spec resolved."""
    runtime.configure(disk_dir=cache_dir, cache_backend="sqlite")
    executor = runtime.get_executor()
    run = executor.run

    def recording_run(specs):
        dump.extend(spec.to_jsonable() for spec in specs)
        return run(specs)

    executor.run = recording_run


def _paper_err_pct() -> float:
    from repro.experiments.validate import validate_micro

    errs = [abs(item.rel_error) for item in validate_micro(quick=True)]
    return 100.0 * layers.median(errs)


def _recorder_records() -> int:
    """Recorder records held by the Tables' nine profiled runs."""
    from repro.experiments.tables import APP_SPECS
    from repro.runtime import RunSpec

    cache = runtime.get_cache()
    total = 0
    for app, klass, nprocs in APP_SPECS:
        spec = RunSpec.app(app, klass, "infiniband", nprocs, record=True,
                           sample_iters=2)
        payload = cache.peek(spec) if cache is not None else None
        recorder = (payload or {}).get("recorder") or {}
        total += len(recorder.get("calls", ())) + len(recorder.get("transfers", ()))
    return total


def run_pass(job: dict) -> dict:
    run = run_figure if job["workload"] == "figs_micro" else run_table
    expected = job["expected"]
    spans = layers.Spans(job.get("trace_id", "pass")) if job.get("trace") else None
    dumped: list = []
    if job.get("cache_dir"):
        _seeding_tier(job["cache_dir"], dumped)
    profiler = cProfile.Profile() if job.get("trace") else None

    digests, errors = {}, {}
    t0 = time.monotonic()
    if profiler is not None:
        profiler.enable()
    for artifact in job["order"]:
        span = spans.begin("run", artifact=artifact) if spans else None
        try:
            result = run(artifact, quick=True)
            inner = spans.begin("render", artifact=artifact) if spans else None
            result.render()
            if spans:
                spans.end(inner)
            digests[artifact] = layers.artifact_digest(result)
        except Exception as exc:  # counted as a failed operation
            errors[artifact] = f"{type(exc).__name__}: {exc}"
        if spans:
            spans.end(span)
    if profiler is not None:
        profiler.disable()
    wall = time.monotonic() - t0

    mismatched = sorted(a for a, d in digests.items() if expected.get(a) != d)
    out = {"ready": READY, "wall_s": wall, "rss_mb": layers.peak_rss_mb(),
           "attempted": len(job["order"]),
           "failed": len(mismatched) + len(errors),
           "mismatched": mismatched, "errors": errors}
    if job.get("trace"):
        stats = runtime.cache_stats()
        metrics = runtime.metrics().to_dict()["counters"]
        out["counters"] = metrics
        out["profile"] = layers.profile_buckets([profiler], REPRO_DIR, HERE)
        out["spans"] = spans.records
        out["runtime"] = {"hits": stats.hits, "misses": stats.misses,
                          "executed": runtime.sweep_stats().executed,
                          "lookup_us_p50": stats.percentile_us(0.5) or 0.0,
                          "lookup_us_p95": stats.percentile_us(0.95) or 0.0}
        out["recorder_records"] = _recorder_records()
    if job.get("validate"):
        out["paper_err_pct"] = _paper_err_pct()
    if dumped:
        out["specs"] = dumped
    return out


def main(argv) -> int:
    if argv[:1] == ["probe"]:
        print(json.dumps({"ready": READY}), flush=True)
        return 0
    if len(argv) == 2 and argv[0] == "pass":
        job = json.loads(Path(argv[1]).read_text())
        print(json.dumps(run_pass(job)), flush=True)
        return 0
    print("usage: child.py probe | child.py pass <job.json>", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
