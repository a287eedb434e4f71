"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q        # about 5 minutes

``test_counts_repeat`` is the determinism self-test: every count-type
per-layer metric (engine events, packets, messages, cache hits, bytes,
...) must be identical across two traced runs at one seed, or the
counts cannot back a claim.  The rest check the helpers and that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402


def _run(cwd: Path, workload: str, seed: int, trace: int, seconds: int = 5):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", ["figs_micro", "tables_apps", "service_warm"])
def test_counts_repeat(workload):
    results = []
    for _ in range(2):
        proc = _run(ROOT, workload, seed=7, trace=1)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(layers.PER_LAYER)
        results.append(result)
    first, second = ({name: r["metrics"][name]["value"]
                      for name in layers.COUNT_METRICS} for r in results)
    assert first == second
    assert results[0]["attempted"] == results[1]["attempted"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = _run(tmp_path, "figs_micro", seed=1, trace=0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_bucket_of():
    repro, bench = "/x/src/repro", "/x/perfbench"
    assert layers.bucket_of("/x/src/repro/core/engine.py", repro, bench) == "core"
    assert layers.bucket_of("/x/src/repro/networks/base.py", repro, bench) == "networks"
    assert (layers.bucket_of("/x/src/repro/networks/quadrics/tports.py", repro, bench)
            == "networks.quadrics")
    assert layers.bucket_of("/x/src/repro/faults.py", repro, bench) == "repro"
    assert layers.bucket_of("/usr/lib/python3/json/encoder.py", repro, bench) == "stdlib"
    assert layers.bucket_of("~", repro, bench) == "stdlib"
    assert layers.bucket_of("/x/perfbench/child.py", repro, bench) == "bench"


def test_layer_self_times_sum_fabrics_into_networks():
    out = layers.layer_self_times({"networks": 1.0, "networks.myrinet": 0.5,
                                   "core": 2.0, "stdlib": 0.25, "wait": 9.0})
    assert out["networks.self_s"] == 1.5
    assert out["networks.myrinet.self_s"] == 0.5
    assert out["core.self_s"] == 2.0
    assert out["stdlib.self_s"] == 0.25
    assert out["runtime.self_s"] == 0.0


def test_import_times():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |     150000 |   numpy\n"
              "import time:        90 |     420000 | repro.__main__\n")
    assert layers.import_times(stderr) == {"import.repro_ms": 420.0,
                                           "import.numpy_ms": 150.0}


def test_percentile_and_median():
    values = list(range(1, 101))
    assert layers.percentile(values, 0.5) == 50
    assert layers.percentile(values, 0.99) == 99
    assert layers.percentile([], 0.5) == 0.0
    assert layers.median([3, 1, 2, 4]) == 2.5

