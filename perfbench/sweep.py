"""``figs_micro`` and ``tables_apps``: artifact sets in fresh interpreters.

Each pass is one new interpreter that imports the CLI, configures the
runtime serially with an empty in-memory cache and regenerates the
whole artifact set in paper order — what a user running ``repro fig1``
… ``repro fig12`` (or ``repro table1`` … ``table5``) in one process
pays.  The inputs are the paper's artifacts, so the seed changes
nothing here (a shuffled order only made peak RSS jitter by 5%).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

import layers
import procs

FIGURES = [f"fig{i}" for i in range(1, 13)]
TABLES = ["table1", "table3", "table4", "table5"]
ARTIFACTS = {"figs_micro": FIGURES, "tables_apps": TABLES}

#: extra cold starts before each pass (and after the last): a figs pass
#: is short, so one per gap spreads a dozen samples through the run; a
#: tables run holds only three or four gaps
PROBES_PER_GAP = {"figs_micro": 1, "tables_apps": 2}

#: a run always times at least this many passes, whatever --seconds says:
#: the median of three ignores one pass caught in a slow spell of the host
MIN_PASSES = 3


def run_pass(workload: str, order: List[str], expected: Dict[str, str],
             **options) -> tuple:
    """One pass in a fresh interpreter; returns (spawn instant, result)."""
    procs.WORK.mkdir(parents=True, exist_ok=True)
    job_path = procs.WORK / f"job-{workload}-{time.monotonic_ns()}.json"
    job_path.write_text(json.dumps({"workload": workload, "order": order,
                                    "expected": expected, **options}))
    try:
        t_spawn, result, _err = procs.run_child(["pass", str(job_path)])
    finally:
        job_path.unlink()
    return t_spawn, result


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for artifact in result["mismatched"]:
            self.notes.append(f"{artifact}: result differs from the pinned digest")
        for artifact, error in result["errors"].items():
            self.notes.append(f"{artifact}: {error}")


def measure(workload: str, seconds: float, expected: dict,
            tally: Tally, log) -> Dict[str, float]:
    """Untraced run: end-to-end metrics, medians over passes and starts."""
    pins = expected[workload]
    order = ARTIFACTS[workload]
    procs.setup_probe()  # untimed: the checkout's first start compiles bytecode
    setup, walls, rss = [], [], []
    t_start = time.monotonic()
    # after MIN_PASSES, start another pass only if one more (as long as
    # the slowest so far) still ends within --seconds
    while (len(walls) < MIN_PASSES
           or time.monotonic() - t_start + max(walls) < seconds):
        setup += [procs.setup_probe() for _ in range(PROBES_PER_GAP[workload])]
        t_spawn, result = run_pass(workload, order, pins, validate=not walls)
        if "paper_err_pct" in result:
            log(f"paper_err_pct {result['paper_err_pct']:.2f}% "
                f"(median |error| of the quick §3 headline items)")
        setup.append(result["ready"] - t_spawn)
        walls.append(result["wall_s"])
        rss.append(result["rss_mb"])
        tally.add(result)
        log(f"pass {len(walls)}: wall {result['wall_s']:.3f}s "
            f"rss {result['rss_mb']:.1f}MiB set-up {setup[-1]:.3f}s")
    setup += [procs.setup_probe() for _ in range(PROBES_PER_GAP[workload])]
    log(f"{len(walls)} passes, {len(setup)} cold starts")
    return {"setup_s": layers.median(setup), "wall_s": layers.median(walls),
            "peak_rss_mb": layers.median(rss)}


def trace(workload: str, expected: dict, tally: Tally,
          spans: layers.Spans, log) -> Dict[str, float]:
    """Traced run: one untraced and one profiled pass, plus import times."""
    pins = expected[workload]
    order = ARTIFACTS[workload]
    procs.setup_probe()
    imports = [layers.import_times(procs.importtime_probe()) for _ in range(3)]
    out = {key: layers.median([imp[key] for imp in imports])
           for key in imports[0]}

    _t, plain = run_pass(workload, order, pins)
    tally.add(plain)
    t_spawn, traced = run_pass(workload, order, pins, trace=True,
                               trace_id=spans.trace_id, validate=True)
    span = spans.add("pass", t_spawn, time.monotonic(), workload=workload)
    spans.add("startup", t_spawn, traced["ready"], parent=span)
    spans.adopt(traced["spans"], parent=span)
    tally.add(traced)

    counters = traced["counters"]
    out.update(layers.layer_self_times(traced["profile"]))
    out.update(layers.counter_metrics(counters))
    executed_events = counters.get("engine.events_executed", 0.0)
    out["core.us_per_event"] = (plain["wall_s"] * 1e6 / executed_events
                                if executed_events else 0.0)
    out["profiling.records"] = traced["recorder_records"]
    out["experiments.paper_err_pct"] = traced["paper_err_pct"]
    rt = traced["runtime"]
    lookups = rt["hits"] + rt["misses"]
    out.update({"runtime.lookup_us_p50": rt["lookup_us_p50"],
                "runtime.lookup_us_p95": rt["lookup_us_p95"],
                "runtime.hits": rt["hits"], "runtime.misses": rt["misses"],
                "runtime.executed": rt["executed"],
                "runtime.hit_ratio": rt["hits"] / lookups if lookups else 0.0})
    out.update({"trace.untraced_wall_s": plain["wall_s"],
                "trace.traced_wall_s": traced["wall_s"],
                "trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
    log(f"untraced pass {plain['wall_s']:.3f}s, traced {traced['wall_s']:.3f}s")
    return out
