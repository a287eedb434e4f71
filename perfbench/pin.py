"""Write ``expected.json``: the result digests every run is checked against.

    PYTHONPATH=src python3 perfbench/pin.py

Pins what the simulator computes — figure series, table cells, and the
``points`` of every payload ``service_warm`` can receive — never wall
clocks or counters.  The pins were taken once from the commit that
introduced the benchmark; a change that moves results must say why
before it re-pins.
"""

import json
import sys
from pathlib import Path

from repro import runtime
from repro.experiments import run_figure, run_table

import layers
import service_warm
import sweep

OUT = Path(__file__).resolve().parent / "expected.json"


def main() -> int:
    runtime.configure(jobs=1)
    executor = runtime.get_executor()
    run = executor.run
    payloads = {}

    def recording_run(specs):
        results = run(specs)
        for spec, payload in zip(specs, results):
            if "points" not in payload:
                raise SystemExit(f"{spec.describe()}: payload has no points")
            payloads[spec.digest] = layers.result_digest(payload)
        return results

    executor.run = recording_run
    figures = {fig: layers.artifact_digest(run_figure(fig, quick=True))
               for fig in sweep.FIGURES}
    executor.run = run
    miss = runtime.run_spec(service_warm.miss_template())
    tables = {tab: layers.artifact_digest(run_table(tab, quick=True))
              for tab in sweep.TABLES}
    pins = {"figs_micro": figures, "tables_apps": tables,
            "service_warm": {"payloads": dict(sorted(payloads.items())),
                             "miss": layers.result_digest(miss)}}
    OUT.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}: {len(figures)} figures, {len(tables)} tables, "
          f"{len(payloads)} service payloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
