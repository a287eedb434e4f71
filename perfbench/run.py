"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Workloads (see NOTES.md for why each exists):

- ``figs_micro``   Figs. 1-12 via ``run_figure(quick=True)`` + ``render()``
- ``tables_apps``  Tables 1, 3, 4, 5 via ``run_table(quick=True)``
- ``service_warm`` a closed-loop client against ``repro serve --jobs 1``

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` a separate traced run reporting the per-layer metrics.
Human-readable lines come first; the last stdout line is the JSON
result.  Every result the program produces is checked against the
digests pinned in ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import layers
import procs
import service_warm
import sweep

WORKLOADS = ("figs_micro", "tables_apps", "service_warm")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
EXPECTED = procs.HERE / "expected.json"


def _checkout_problem() -> str:
    if not (procs.SRC / "repro" / "__init__.py").is_file():
        return f"no repro sources under {procs.SRC}: run from a full checkout"
    if not EXPECTED.is_file():
        return f"missing {EXPECTED}"
    return ""


def _log(msg: str) -> None:
    print(f"[perfbench] {msg}", flush=True)


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    expected = json.loads(EXPECTED.read_text())
    tally = sweep.Tally()
    if not traced:
        if workload == "service_warm":
            values = service_warm.measure(seed, seconds, expected, tally, _log)
        else:
            values = sweep.measure(workload, seconds, expected, tally, _log)
        units = END_TO_END
    else:
        spans = layers.Spans(f"{workload}-seed{seed}")
        if workload == "service_warm":
            values = service_warm.trace(seed, expected, tally, spans, _log)
        else:
            values = sweep.trace(workload, expected, tally, spans, _log)
        spans.write(procs.OUT / f"spans-{workload}-seed{seed}.json")
        units = layers.PER_LAYER
        values = {name: values.get(name, 0.0) for name in units}
    for note in tally.notes:
        _log(f"FAILED {note}")
    for name, unit in units.items():
        _log(f"{name:<28} {values[name]:>14.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    problem = _checkout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC))
    import repro

    if procs.SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {procs.SRC}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    try:
        result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except procs.ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if procs.WORK.is_dir() and not any(procs.WORK.iterdir()):
            shutil.rmtree(procs.WORK, ignore_errors=True)
    _log(f"run took {time.monotonic() - t0:.1f}s")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
