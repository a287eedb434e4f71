"""Child processes of the benchmark: fresh interpreters and servers.

Every process started here is waited for before the function that
started it returns (or killed and waited for on timeout), so a run
leaves nothing behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = HERE / ".work"
OUT = HERE / "out"

#: no single child may run longer than this (the whole run has 180 s)
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A child interpreter exited non-zero, timed out or printed no result."""


def child_env() -> dict:
    """Environment for children: this checkout's ``src`` first, and none
    of the ``REPRO_*`` settings that would change what a run does."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(args: List[str], python_flags: Tuple[str, ...] = (),
              timeout_s: float = CHILD_TIMEOUT_S) -> Tuple[float, dict, str]:
    """Run ``child.py`` with ``args``; return (spawn instant, result, stderr).

    The spawn instant is ``time.monotonic()`` just before the fork, on
    the same clock the child reports its ready instant with.
    """
    cmd = [sys.executable, *python_flags, str(CHILD), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"child {args[:1]} timed out after {timeout_s:.0f}s")
    lines = [line for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args[:1]} exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    return t_spawn, json.loads(lines[-1]), err


def setup_probe() -> float:
    """One cold start: spawn -> ``repro.__main__`` imported and configured."""
    t_spawn, result, _err = run_child(["probe"])
    return result["ready"] - t_spawn


def importtime_probe() -> str:
    """``-X importtime`` report (stderr) of one cold start."""
    return run_child(["probe"], python_flags=("-X", "importtime"))[2]


class Server:
    """A ``repro serve`` process on an ephemeral port (``jobs=1``).

    ``setup_s`` is the time from spawn to the first successful
    ``/healthz``.  ``profile_to`` starts the server under
    ``serve_profiled.py``, which writes its host profile there at exit.
    """

    def __init__(self, cache_dir: Path, profile_to: Optional[Path] = None,
                 timeout_s: float = 60.0) -> None:
        from repro.service.client import get_json

        serve_args = ["--host", "127.0.0.1", "--port", "0", "--jobs", "1",
                      "--cache-backend", "sqlite", "--cache-dir", str(cache_dir)]
        if profile_to is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_profiled.py"),
                   str(profile_to), *serve_args]
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise ChildFailed(f"server did not announce itself: {line!r}")
            self.host, _, port = line.split("http://", 1)[1].split()[0].rpartition(":")
            self.port = int(port)
            get_json("/healthz", host=self.host, port=self.port,
                     timeout_s=timeout_s)
        except BaseException:
            self.stop()
            raise
        self.t_ready = time.monotonic()
        self.setup_s = self.t_ready - self.t_spawn

    def peak_rss_mb(self) -> float:
        return layers.peak_rss_mb(self.proc.pid)

    def stop(self, timeout_s: float = 30.0) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
