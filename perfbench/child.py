"""One run of one workload, in the fresh interpreter ``run.py`` starts.

The working directory is the run's private empty directory (store,
estimator cache, ``TMPDIR`` and ``HOME`` all live under it).  Prints
one JSON object: the monotonic time the timed call started (``run.py``
subtracts the spawn time to get ``setup_s``), the timed call's wall
time, the host-speed probe timings of the timed call (see hostspeed.py),
peak RSS, per-operation digests, the paper error and, in a traced run,
the per-layer metrics.

Modes: ``plain`` and ``golden`` (untraced; ``run.py`` checks the
``golden`` run at the default seed against golden.json), ``traced``
(entry points wrapped, see tracer.py) and ``reference``
(``fig9_observed``'s campaign traced without telemetry, the control
for ``obs.slowdown``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def measure(workload, traced: bool, probe=None) -> dict:
    """Set up, make the timed call, reduce its result; raises on failure.

    A ``probe`` (hostspeed.SpeedProbe) runs during the timed call;
    ``wall_s`` leaves out the probes' time.
    """
    from repro.sim.resilience import execution_policy
    from tracer import Tracer, layer_metrics

    result: dict = {}
    tracer = Tracer() if traced else None
    with execution_policy(workload.policy()):
        workload.setup()
        result["operations"] = workload.operations()
        if tracer is not None:
            tracer.install()
        if probe is not None:
            probe.start()
        result["timed_start"] = time.monotonic()
        started = time.perf_counter()
        try:
            if tracer is not None:
                root = tracer.open("bench", "root")
                try:
                    value = workload.run()
                finally:
                    tracer.close(root)
                    tracer.uninstall()
            else:
                value = workload.run()
        finally:
            if probe is not None:
                probe.stop()
        result["wall_s"] = time.perf_counter() - started
        if probe is not None:
            result["wall_s"] -= probe.overhead_s
            result["probe_s"] = probe.timings
        outputs = workload.outputs(value)
    result.update(
        digests=outputs.digests, failed=outputs.failed, paper_err_pp=outputs.paper_err_pp
    )
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "golden", "traced", "reference"), required=True
    )
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(HERE)]
    from hostspeed import SpeedProbe

    result: dict = {"mode": args.mode, "operations": ["setup"], "digests": {}, "failed": []}
    try:
        import repro

        if Path(repro.__file__).resolve().parent != SRC / "repro":
            raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
        from workloads import WORKLOADS

        cls = WORKLOADS[args.workload]
        kwargs = {"telemetry": False} if args.mode == "reference" else {}
        workload = cls(Path.cwd(), args.seed, **kwargs)
        traced = args.mode in ("traced", "reference")
        result.update(measure(workload, traced, SpeedProbe()))
    except Exception:  # run.py counts every operation of this run as failed
        result["error"] = traceback.format_exc()
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kib / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
