"""The repository's benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload fig9_cold --seed 2012 --seconds 40 --trace 0

Runs the workload (see workloads.py) again and again, each time in a
fresh interpreter with a fresh empty working directory, until
``--seconds`` are used up, and prints one JSON object as the last line
of standard output.  With ``--trace 0`` it holds the end-to-end
metrics, medians over the runs; with ``--trace 1`` it alternates
untraced and traced runs and holds the per-layer metrics of the
traced ones plus the tracing overhead.

Times are reported at a nominal host speed: every run times the short
fixed loop of hostspeed.py every 100 ms of its timed call, and its times,
less the probes' own, are scaled by ``PROBE_NOMINAL_S`` over the mean
probe time (set-up by the square root of that) before the medians are
taken.  The per-run lines before the result give the unscaled times and
the mean probe time.

Each invocation first runs the workload once, untimed, at the default
seed and checks every operation against the committed digests in
golden.json; that run also gives ``paper_err_pp``, so the paper error
does not vary with ``--seed``.  The timed runs use ``--seed``: they are checked
against golden.json when the seed has digests there (the default and
the held-out seed), otherwise against the invocation's first timed
run.  An operation that raises, is quarantined by the program, or
mismatches counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import hostspeed
from tracer import FIGURE_IDS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"
#: Hard cap on one invocation, runs included, so that it always ends
#: within three minutes.
INVOCATION_LIMIT_S = 170.0

#: (name, unit) of the end-to-end metrics (``--trace 0``).
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("paper_err_pp", "pp"),
    ("ok_frac", "frac"),
)

#: (name, unit) of the per-layer metrics (``--trace 1``).
PER_LAYER = (
    ("workload.gen_s", "s"),
    ("workload.gen_calls", "count"),
    ("workload.repeat_frac", "frac"),
    ("engine.decode_s", "s"),
    ("engine.decode_passes_per_row", "passes/row"),
    ("core.kernel_s", "s"),
    ("core.kernel_s.conventional", "s"),
    ("core.kernel_s.rmw", "s"),
    ("core.kernel_s.wg", "s"),
    ("core.kernel_s.wg_rb", "s"),
    ("core.access_rate", "1/s"),
    ("sim.row_p50_s", "s"),
    ("sim.row_max_s", "s"),
    ("sim.self_s", "s"),
    ("perf.timing_s", "s"),
    ("perf.timing_access_rate", "1/s"),
    ("power.estimate_s", "s"),
    ("power.queries", "count"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hit_frac", "frac"),
    ("store.fsyncs_per_op", "fsyncs/op"),
    ("trace.stats_s", "s"),
    ("analysis.self_s", "s"),
    *((f"analysis.figure_s.{figure_id}", "s") for figure_id in FIGURE_IDS),
    ("obs.slowdown", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead", "frac"),
)


def spawn(workload: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    """One fresh-interpreter run of ``workload``; returns child.py's result."""
    workdir = WORK / f"{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    for sub in ("tmp", "home", "cache"):
        (workdir / sub).mkdir(parents=True)
    env = dict(
        os.environ,
        TMPDIR=str(workdir / "tmp"),
        HOME=str(workdir / "home"),
        XDG_CACHE_HOME=str(workdir / "cache"),
    )
    command = [
        sys.executable, "-I", str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=workdir, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after {time.monotonic() - spawned:.0f} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"mode": mode, "operations": ["run"], "digests": {}, "failed": []}
        result["error"] = f"exit {proc.returncode}: {err.strip()[-2000:]}"
    if "timed_start" in result:
        result["setup_s"] = result["timed_start"] - spawned
    return result


def run_series(workload: str, seed: int, seconds: int, trace: bool) -> List[dict]:
    """The golden run, then the workload's cycle of runs until ``seconds`` are used up.

    A cycle is one untraced run, plus one traced run when tracing, plus
    the no-telemetry control for ``fig9_observed``.  A new cycle starts
    only if the median cycle so far would still end in time.
    """
    cycle = ["plain"]
    if trace:
        cycle.append("traced")
        if workload == "fig9_observed":
            cycle.append("reference")
    start = time.monotonic()
    hard_deadline = start + INVOCATION_LIMIT_S
    results = [spawn(workload, DEFAULT_SEED, "golden", 0, hard_deadline)]
    cycle_s: List[float] = []
    while True:
        began = time.monotonic()
        for mode in cycle:
            results.append(spawn(workload, seed, mode, len(results), hard_deadline))
        cycle_s.append(time.monotonic() - began)
        finish = time.monotonic() + statistics.median(cycle_s)
        if finish > start + seconds or finish > hard_deadline - 5.0:
            return results


def check(golden: Dict[str, Dict[str, str]], seed: int, results: List[dict]) -> dict:
    """Count attempted and failed operations over every run of the invocation.

    ``golden`` maps a seed to the workload's committed digests.
    """
    timed = results[1:]
    expected = golden.get(str(seed))
    if expected is None:
        first = next((r for r in timed if "error" not in r), None)
        expected = first["digests"] if first is not None else {}
    attempted = failed = 0
    problems: List[str] = []
    for index, result in enumerate(results):
        reference = golden[str(DEFAULT_SEED)] if index == 0 else expected
        ops = result["operations"]
        bad = set(ops) if "error" in result else set(result["failed"])
        bad.update(op for op in ops if result["digests"].get(op) != reference.get(op))
        attempted += len(ops)
        failed += len(bad)
        if "error" in result:
            problems.append(f"run {index} ({result['mode']}): {result['error']}")
        elif bad:
            problems.append(f"run {index} ({result['mode']}): failed {sorted(bad)}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


def _median(results: List[dict], key: str) -> float:
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def at_nominal_speed(result: dict) -> dict:
    """``result`` with its times scaled to the nominal host speed.

    The ratio is ``PROBE_NOMINAL_S`` over the run's mean probe time, so
    each run is corrected by the speed of the vCPU it ran on while it ran.
    Times of the call are scaled by it, ``setup_s`` by its
    ``SETUP_SENSITIVITY`` power.
    """
    if not result.get("probe_s"):
        return result
    factor = hostspeed.PROBE_NOMINAL_S / statistics.fmean(result["probe_s"])
    units = dict(PER_LAYER)

    def scale(name: str, value: float) -> float:
        unit = units.get(name)
        if unit == "s":
            return value * factor
        return value / factor if unit == "1/s" else value

    scaled = dict(result)
    scaled["wall_s"] = result["wall_s"] * factor
    scaled["setup_s"] = result["setup_s"] * factor**hostspeed.SETUP_SENSITIVITY
    if "layers" in result:
        layers = result["layers"]
        scaled["layers"] = {name: scale(name, value) for name, value in layers.items()}
    return scaled


def end_to_end(results: List[dict], attempted: int, failed: int) -> Dict[str, float]:
    timed = [r for r in results[1:] if "error" not in r]
    return {
        "wall_s": _median(timed, "wall_s"),
        "setup_s": _median(timed, "setup_s"),
        "peak_rss_mb": _median(timed, "peak_rss_mb"),
        "paper_err_pp": results[0].get("paper_err_pp", 0.0),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(results: List[dict]) -> Dict[str, float]:
    def layers(mode: str) -> List[Dict[str, float]]:
        return [r["layers"] for r in results if r["mode"] == mode and "layers" in r]

    traced, reference = layers("traced"), layers("reference")
    metrics = {
        name: statistics.median(layer[name] for layer in traced) if traced else 0.0
        for name, _unit in PER_LAYER
        if name not in ("obs.slowdown", "bench.trace_overhead")
    }
    if reference and metrics["core.access_rate"]:
        ref_rate = statistics.median(layer["core.access_rate"] for layer in reference)
        metrics["obs.slowdown"] = ref_rate / metrics["core.access_rate"]
    else:
        metrics["obs.slowdown"] = 0.0
    plain_wall = _median([r for r in results if r["mode"] == "plain"], "wall_s")
    traced_wall = _median([r for r in results if r["mode"] == "traced"], "wall_s")
    metrics["bench.trace_overhead"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    results = run_series(args.workload, args.seed, args.seconds, bool(args.trace))
    golden = json.loads(GOLDEN.read_text())[args.workload]
    checked = check(golden, args.seed, results)
    for index, result in enumerate(results):
        timing = (
            f"setup {result['setup_s']:.3f} s, wall {result['wall_s']:.3f} s"
            if "setup_s" in result and "wall_s" in result
            else "no timing"
        )
        probes = result.get("probe_s")
        if probes:
            mean_ms = 1e3 * statistics.fmean(probes)
            timing += f", {len(probes)} probes of {mean_ms:.3f} ms"
        print(f"run {index} ({result['mode']}): {timing}")
    for problem in checked["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)

    nominal = [at_nominal_speed(result) for result in results]
    if args.trace:
        values, units = per_layer(nominal), dict(PER_LAYER)
    else:
        values = end_to_end(nominal, checked["attempted"], checked["failed"])
        units = dict(END_TO_END)
    document = {
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(document))
    try:
        WORK.rmdir()
    except OSError:  # another invocation is still using it
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
