"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

The in-process tests run the workloads at a few hundred accesses per
profile; the last two run the command itself.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from workloads import FIG9_PAPER, WORKLOADS, fig9_summary  # noqa: E402

SMALL_ACCESSES = 300


def small(name: str, workdir: Path, **kwargs):
    workload = WORKLOADS[name](workdir, 2012, **kwargs)
    workload.accesses = SMALL_ACCESSES
    return workload


def test_perturbed_event_counter_counts_as_failed(tmp_path, monkeypatch):
    from repro.sim.simulator import Simulator

    clean = child.measure(small("fig9_cold", tmp_path / "clean"), traced=False)
    finish = Simulator.finish
    bumped = []

    def bump_once(simulator):
        result = finish(simulator)
        if not bumped:
            bumped.append(simulator)
            result.events.row_writes += 1
        return result

    monkeypatch.setattr(Simulator, "finish", bump_once)
    perturbed = child.measure(small("fig9_cold", tmp_path / "perturbed"), traced=False)
    results = [dict(clean, mode="golden"), dict(perturbed, mode="plain")]

    checked = run.check({"2012": clean["digests"]}, 2012, results)
    metrics = run.end_to_end(results, checked["attempted"], checked["failed"])

    assert checked["failed"] == 1
    assert checked["attempted"] == 50
    assert metrics["ok_frac"] == 1 - 1 / 50


def test_times_are_scaled_by_the_probes_of_their_own_run():
    nominal = hostspeed.PROBE_NOMINAL_S
    slow_host = {
        "wall_s": 4.0,
        "setup_s": 0.5,
        "peak_rss_mb": 40.0,
        "probe_s": [4 * nominal] * 40,
        "layers": {"core.kernel_s": 2.0, "core.access_rate": 1e3, "power.queries": 9},
    }

    scaled = run.at_nominal_speed(slow_host)

    assert scaled["wall_s"] == pytest.approx(1.0)
    assert scaled["setup_s"] == pytest.approx(0.5 * 0.25**hostspeed.SETUP_SENSITIVITY)
    assert scaled["peak_rss_mb"] == 40.0
    assert scaled["layers"] == pytest.approx(
        {"core.kernel_s": 0.5, "core.access_rate": 4000.0, "power.queries": 9}
    )


def test_probes_leave_outputs_alone_and_stop_with_the_timed_call(tmp_path):
    plain = child.measure(small("fig9_observed", tmp_path / "plain"), traced=False)
    probe = hostspeed.SpeedProbe()
    probed = child.measure(small("fig9_observed", tmp_path / "probed"), False, probe)

    assert probed["digests"] == plain["digests"]
    assert probed["probe_s"]
    assert probe.overhead_s > sum(probed["probe_s"])
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_give_identical_digests(tmp_path, name):
    plain = child.measure(small(name, tmp_path / "plain"), traced=False)
    traced = child.measure(small(name, tmp_path / "traced"), traced=True)

    assert plain["digests"] == traced["digests"]
    assert set(plain["digests"]) == set(plain["operations"])
    layers = traced["layers"]
    assert layers["bench.unattributed_frac"] < 0.1
    if name == "report_warm":
        assert layers["store.hit_frac"] == 1.0
        assert layers["workload.repeat_frac"] > 0.5
        assert layers["perf.timing_s"] > 0
        assert layers["sim.row_max_s"] == 0
    else:
        assert layers["engine.decode_passes_per_row"] == 4.0
        assert layers["workload.repeat_frac"] == 0
        assert layers["perf.timing_s"] == 0
        assert layers["store.hit_frac"] == 0


def test_observed_rows_match_the_control_without_telemetry(tmp_path):
    observed = child.measure(small("fig9_observed", tmp_path / "obs"), traced=False)
    control = child.measure(
        small("fig9_observed", tmp_path / "ref", telemetry=False), traced=True
    )

    assert "counters" in observed["digests"]
    rows = {op: d for op, d in observed["digests"].items() if op != "counters"}
    assert rows == control["digests"]


def test_fig9_summary_matches_the_figure_producer():
    from repro.analysis.reductions import figure9_access_reduction
    from repro.sim.campaign import run_campaign
    from workloads import fig9_config

    figure = figure9_access_reduction(accesses=SMALL_ACCESSES, seed=2012)

    assert fig9_summary(run_campaign(fig9_config(SMALL_ACCESSES, 2012))) == figure.summary
    assert FIG9_PAPER == figure.paper_values


def _run_command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_names_match_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    usage = _run_command(ROOT, "--help").stdout
    assert all(name in usage for name in WORKLOADS)

    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run_command(
            ROOT, "--workload", "fig9_cold", "--seed", "2012",
            "--seconds", "1", "--trace", trace,
        )
        assert proc.returncode == 0, proc.stderr
        document = json.loads(proc.stdout.splitlines()[-1])
        printed = {name: m["unit"] for name, m in document["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[section]}
        assert document["correct"] and document["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*")
    )

    proc = _run_command(
        tmp_path, "--workload", "fig9_cold", "--seed", "1", "--seconds", "1", "--trace", "0"
    )

    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
