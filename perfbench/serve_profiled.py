"""``repro serve`` under cProfile, for the traced ``service_warm`` run.

    python3 perfbench/serve_profiled.py OUT.json <repro serve options>

Profiles every thread of the server — the asyncio loop in the main
thread and the executor thread that looks specs up, simulates misses
and stores them — from just before ``serve`` starts until it exits on
SIGINT, then writes host self time per ``repro.<package>`` to OUT.json.
"""

import cProfile
import json
import os
import sys
import threading
from pathlib import Path

import repro.__main__ as cli

import layers


def main(argv) -> int:
    out_path, serve_args = Path(argv[0]), argv[1:]
    profiles = []

    def profile_new_thread(_frame, _event, _arg):
        sys.setprofile(None)
        prof = cProfile.Profile()
        profiles.append(prof)
        prof.enable()

    threading.setprofile(profile_new_thread)
    main_prof = cProfile.Profile()
    profiles.append(main_prof)
    main_prof.enable()
    try:
        rc = cli.main(["serve", *serve_args])
    finally:
        main_prof.disable()
        threading.setprofile(None)
        buckets = layers.profile_buckets(
            profiles, os.path.dirname(cli.__file__),
            os.path.dirname(os.path.abspath(__file__)))
        out_path.write_text(json.dumps(buckets) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
