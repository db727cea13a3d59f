"""Recompute golden.json, the committed digests the benchmark checks against.

    python3 perfbench/golden.py

Runs every workload once, untraced, at the default and the held-out
seed and records each operation's digest.  Run it
only on purpose, after a change that is meant to alter simulated
outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import time

from run import GOLDEN, spawn
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        seeds = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result = spawn(workload, seed, "plain", 0, time.monotonic() + 600)
            missing = set(result["operations"]) - set(result["digests"])
            if "error" in result or result["failed"] or missing:
                print(f"{workload} seed {seed}: {result}", file=sys.stderr)
                return 1
            seeds[str(seed)] = result["digests"]
        golden[workload] = seeds
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
