"""Command-line interface.

Installed as the ``repro-8t`` console script::

    repro-8t figures                      # list reproducible figures
    repro-8t figure fig9 --accesses 20000 # reproduce one figure
    repro-8t compare bwaves --geometry 64K:4:32
    repro-8t compare bwaves --metrics-out m.json --trace-out t.jsonl
    repro-8t profile bwaves               # phase timings + hot counters
    repro-8t trace bwaves out.trc --accesses 50000 --format binary
    repro-8t stats out.trc --geometry 64K:4:32
    repro-8t bench --json BENCH_hotpath.json   # scalar vs columnar engine
    repro-8t bench --history              # append run to the bench ledger
    repro-8t perf compare                 # gate against the rolling baseline
    repro-8t perf report                  # render docs/perf-trend.md
    repro-8t kernels                      # list instrumented kernels
    repro-8t kernel matmul out.trc
    repro-8t benchmarks                   # list workload profiles
    repro-8t check --seed 0 --iterations 200   # oracle-differential fuzzing
    repro-8t check --corpus repros --replay    # re-run saved repros
    repro-8t cache stats .cache           # result-store contents + counters
    repro-8t cache verify .cache          # validate + quarantine (exit 3)
    repro-8t cache gc .cache              # drop stale-code-version entries
    repro-8t cache invalidate .cache --benchmark mcf
    repro-8t power --estimator library --json overheads.json
    repro-8t power --estimator-cache .estimates   # reuse estimation records

Every subcommand is a thin shell over the public library API, so the
CLI doubles as executable documentation.

Observability flags (``compare``, ``figure``, ``report``, ``profile``):
``--metrics-out m.json`` dumps the metrics registry, ``--trace-out``
writes a structured trace (``.jsonl`` for JSON Lines, anything else
for Chrome ``trace_event`` JSON), ``--sample-window N`` turns on
per-N-request interval snapshots and ``--snapshots-out s.csv`` saves
them.  With none of these set, the simulation runs fully
uninstrumented.

Resilience flags: ``--retries N`` (``compare``, ``figure``,
``report``) tunes the retry policy.  On ``figure`` and ``report``,
``--result-cache DIR`` commits each finished row to a durable
content-addressed store and serves rows already there, so re-running
an interrupted command with the same store resumes it;
``--worker-timeout S`` bounds each attempt, ``--breaker-threshold N``
skips rows that keep failing, ``--heartbeat S`` detects frozen workers
early, ``--strict`` restores fail-fast, and ``--processes N`` runs
campaigns on supervised worker processes.  See ``docs/robustness.md``.

Estimator flags (``figure``, ``report``, ``power``): ``--estimator
{auto,analytical,library}`` selects the energy/area backend (auto
routes each query to the most accurate capable backend) and
``--estimator-cache DIR`` serves repeat estimates from durable,
code-versioned estimation records.  See ``docs/power.md``.

Errors derived from :class:`ReproError` print a one-line message and
exit with code 2 (usage/configuration) or 3 (runtime failure); pass
``--debug`` (before the subcommand) for the full traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.export import figure_to_csv, metrics_to_json, snapshots_to_csv
from repro.analysis.figures import FIGURE_IDS, reproduce_figure
from repro.cache.address import AddressMapper
from repro.cache.config import BASELINE_GEOMETRY, CacheGeometry
from repro.core.registry import ALL_CONTROLLER_NAMES, CONTROLLER_NAMES
from repro.errors import ConfigurationError, ReproError
from repro.obs.perf import DEFAULT_LEDGER_PATH
from repro.obs.spans import span
from repro.obs.telemetry import Telemetry
from repro.sim.comparison import compare_techniques
from repro.sim.resilience import ExecutionPolicy, RetryPolicy, execution_policy
from repro.trace.binio import read_binary_trace, write_binary_trace
from repro.trace.columns import TraceColumns
from repro.trace.stats import collect_statistics
from repro.trace.textio import read_text_trace, write_text_trace
from repro.utils.tables import format_table
from repro.workload.generator import generate_trace
from repro.workload.kernels import KERNEL_NAMES, run_kernel
from repro.workload.spec2006 import SPEC2006_PROFILES, benchmark_names, get_profile

__all__ = ["main", "parse_geometry"]


def parse_geometry(spec: str) -> CacheGeometry:
    """Parse ``SIZE:WAYS:BLOCK`` (e.g. ``64K:4:32``) into a geometry.

    SIZE accepts an optional K/M suffix; WAYS and BLOCK are plain
    integers (block in bytes).
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"geometry must be SIZE:WAYS:BLOCK, got {spec!r}"
        )
    size_text, ways_text, block_text = parts
    multiplier = 1
    if size_text[-1:].upper() == "K":
        multiplier, size_text = 1024, size_text[:-1]
    elif size_text[-1:].upper() == "M":
        multiplier, size_text = 1024 * 1024, size_text[:-1]
    try:
        return CacheGeometry(
            size_bytes=int(size_text) * multiplier,
            associativity=int(ways_text),
            block_bytes=int(block_text),
        )
    except (ValueError, Exception) as exc:  # ConfigurationError included
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _read_trace(path: str) -> TraceColumns:
    if path.endswith(".bin") or path.endswith(".rpt"):
        return read_binary_trace(path)
    return read_text_trace(path)


# -- observability plumbing --------------------------------------------------------


def _add_obs_flags(sub: argparse.ArgumentParser) -> None:
    """The shared telemetry output flags."""
    group = sub.add_argument_group("observability")
    group.add_argument(
        "--metrics-out", help="write the metrics registry to this JSON path"
    )
    group.add_argument(
        "--trace-out",
        help=(
            "write a structured trace (.jsonl => JSON Lines, otherwise "
            "Chrome trace_event JSON for chrome://tracing / Perfetto)"
        ),
    )
    group.add_argument(
        "--sample-window",
        type=int,
        help="record interval snapshots every N requests",
    )
    group.add_argument(
        "--snapshots-out",
        help="write interval snapshots to this CSV path (implies sampling)",
    )


def _telemetry_from_args(args, force: bool = False) -> Optional[Telemetry]:
    """Build a Telemetry matching the CLI flags (None => stay dark)."""
    sample_window = args.sample_window
    if args.snapshots_out and not sample_window:
        sample_window = 1_000
    telemetry = Telemetry.from_outputs(
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
        sample_window=sample_window,
    )
    if telemetry is None and force:
        telemetry = Telemetry.from_outputs(sample_window=sample_window or 1_000)
    return telemetry


def _finish_telemetry(telemetry: Optional[Telemetry], args) -> None:
    """Write the requested output files and close the sink."""
    if telemetry is None:
        return
    telemetry.close()
    if args.metrics_out:
        metrics_to_json(telemetry.registry, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if args.trace_out:
        print(f"wrote trace to {args.trace_out}")
    if args.snapshots_out and telemetry.sampler is not None:
        rows = snapshots_to_csv(telemetry.sampler.snapshots, args.snapshots_out)
        print(f"wrote {rows} interval snapshots to {args.snapshots_out}")


# -- estimator plumbing ------------------------------------------------------------


def _add_estimator_flags(sub: argparse.ArgumentParser) -> None:
    """The shared energy/area estimator flags (see docs/power.md)."""
    from repro.power.estimator import ESTIMATOR_CHOICES

    group = sub.add_argument_group("estimator")
    group.add_argument(
        "--estimator",
        choices=ESTIMATOR_CHOICES,
        default="auto",
        help=(
            "energy/area backend: auto routes each query to the most "
            "accurate capable backend; analytical/library force one"
        ),
    )
    group.add_argument(
        "--estimator-cache",
        metavar="DIR",
        help=(
            "durable estimation-record cache: energy/area estimates "
            "already computed for this exact query + backend + code "
            "version are served from here instead of recomputed"
        ),
    )


# -- resilience plumbing -----------------------------------------------------------


def _add_resilience_flags(sub: argparse.ArgumentParser, campaign: bool = True) -> None:
    """The shared fault-tolerance flags (see docs/robustness.md)."""
    group = sub.add_argument_group("resilience")
    group.add_argument(
        "--retries",
        type=int,
        help="attempts per benchmark before quarantine (default 3)",
    )
    if campaign:
        group.add_argument(
            "--worker-timeout",
            type=float,
            metavar="SECONDS",
            help=(
                "per-attempt wall-clock budget; hung workers are killed "
                "and retried (needs --processes > 1)"
            ),
        )
        group.add_argument(
            "--strict",
            action="store_true",
            help="fail fast instead of quarantining failed benchmarks",
        )
        group.add_argument(
            "--processes",
            type=int,
            help="run campaigns on this many supervised worker processes",
        )
        group.add_argument(
            "--result-cache",
            metavar="DIR",
            help=(
                "durable content-addressed result store: rows already "
                "computed for this exact config + workload + code "
                "version are served from here instead of re-simulated, "
                "and each new row is committed as it finishes, so a "
                "re-run resumes an interrupted one (see 'repro-8t cache')"
            ),
        )
        group.add_argument(
            "--result-cache-max-bytes",
            type=int,
            metavar="BYTES",
            help="LRU size bound for --result-cache (default: unbounded)",
        )
        group.add_argument(
            "--breaker-threshold",
            type=int,
            metavar="N",
            help=(
                "open a per-benchmark circuit breaker after N failures: "
                "the row is skipped and quarantined instead of retried "
                "(default: breakers off)"
            ),
        )
        group.add_argument(
            "--heartbeat",
            type=float,
            metavar="SECONDS",
            help=(
                "worker heartbeat interval; a worker silent for several "
                "beats is killed as stalled before --worker-timeout "
                "expires (needs --processes > 1)"
            ),
        )


def _policy_from_args(args) -> ExecutionPolicy:
    """Build the ambient execution policy the CLI flags describe."""
    retry = RetryPolicy(
        max_attempts=args.retries if args.retries is not None else 3,
        worker_timeout_s=getattr(args, "worker_timeout", None),
        breaker_threshold=getattr(args, "breaker_threshold", None),
        heartbeat_interval_s=getattr(args, "heartbeat", None),
    )
    return ExecutionPolicy(
        retry=retry,
        strict=getattr(args, "strict", False),
        processes=getattr(args, "processes", None),
        result_cache=getattr(args, "result_cache", None),
        result_cache_max_bytes=getattr(args, "result_cache_max_bytes", None),
        estimator=getattr(args, "estimator", None) or "auto",
        estimator_cache=getattr(args, "estimator_cache", None),
    )


# -- subcommand handlers ---------------------------------------------------------


def _cmd_figures(_args) -> int:
    print("reproducible figures/tables/claims:")
    for figure_id in FIGURE_IDS:
        print(f"  {figure_id}")
    return 0


def _cmd_figure(args) -> int:
    kwargs = {}
    if args.figure_id == "reliability":
        kwargs["seed"] = args.seed
    elif args.figure_id != "sec5.4":
        kwargs["accesses"] = args.accesses
        kwargs["seed"] = args.seed
        if args.benchmarks:
            kwargs["benchmarks"] = args.benchmarks
    telemetry = _telemetry_from_args(args)
    with execution_policy(_policy_from_args(args)):
        if telemetry is not None:
            with span(telemetry, f"figure.{args.figure_id}", category="figure"):
                result = reproduce_figure(args.figure_id, **kwargs)
            _finish_telemetry(telemetry, args)
        else:
            result = reproduce_figure(args.figure_id, **kwargs)
    if args.bars:
        from repro.analysis.bars import render_bars

        print(render_bars(result))
    else:
        print(result.render())
    if args.csv:
        rows = figure_to_csv(result, args.csv)
        print(f"\nwrote {rows} rows to {args.csv}")
    return 0


def _cmd_compare(args) -> int:
    telemetry = _telemetry_from_args(args)
    policy = _policy_from_args(args)
    trace = generate_trace(
        get_profile(args.benchmark), args.accesses, seed=args.seed
    )
    comparison = compare_techniques(
        trace,
        args.geometry,
        techniques=tuple(args.techniques),
        telemetry=telemetry,
        retry=policy.retry,
    )
    rows = []
    for technique in args.techniques:
        result = comparison.result(technique)
        reduction = (
            100.0 * comparison.access_reduction(technique)
            if "rmw" in args.techniques
            else float("nan")
        )
        rows.append(
            (
                technique,
                result.array_accesses,
                reduction,
                100.0 * result.cache_stats.hit_rate,
            )
        )
    print(
        format_table(
            ("technique", "array accesses", "reduction vs rmw %", "hit rate %"),
            rows,
            title=f"{args.benchmark} on {args.geometry.describe()}",
        )
    )
    _finish_telemetry(telemetry, args)
    return 0


def _cmd_trace(args) -> int:
    trace = generate_trace(
        get_profile(args.benchmark), args.accesses, seed=args.seed
    )
    if args.format == "binary":
        count = write_binary_trace(args.output, trace, crc=args.crc)
    else:
        if args.crc:
            raise ConfigurationError(
                "--crc requires --format binary (the text format has "
                "no record checksums)"
            )
        count = write_text_trace(args.output, trace)
    print(f"wrote {count} accesses to {args.output} ({args.format})")
    return 0


def _cmd_kernel(args) -> int:
    trace = run_kernel(args.kernel, words=args.words, seed=args.seed)
    if args.output:
        if args.format == "binary":
            count = write_binary_trace(args.output, trace)
        else:
            count = write_text_trace(args.output, trace)
        print(f"wrote {count} accesses to {args.output}")
    else:
        for access in trace[: args.head]:
            print(access.describe())
        print(f"... {len(trace)} accesses total")
    return 0


def _cmd_stats(args) -> int:
    mapper = AddressMapper(args.geometry)
    stats = collect_statistics(_read_trace(args.trace), mapper.set_index)
    rows = [
        ("accesses", stats.accesses),
        ("instructions", stats.instructions),
        ("read frequency", f"{100 * stats.read_frequency:.2f}%"),
        ("write frequency", f"{100 * stats.write_frequency:.2f}%"),
        ("silent writes", f"{100 * stats.silent_write_fraction:.2f}%"),
        ("same-set pairs", f"{100 * stats.scenarios.same_set_share:.2f}%"),
        ("RR share", f"{100 * stats.scenarios.share('RR'):.2f}%"),
        ("RW share", f"{100 * stats.scenarios.share('RW'):.2f}%"),
        ("WW share", f"{100 * stats.scenarios.share('WW'):.2f}%"),
        ("WR share", f"{100 * stats.scenarios.share('WR'):.2f}%"),
    ]
    print(
        format_table(
            ("metric", "value"),
            rows,
            title=f"{args.trace} @ {args.geometry.describe()}",
        )
    )
    return 0


def _cmd_fit(args) -> int:
    from repro.workload.fitting import fit_profile

    profile = fit_profile(_read_trace(args.trace), name=args.name)
    rows = [
        ("read frequency", f"{100 * profile.read_frequency:.2f}%"),
        ("write frequency", f"{100 * profile.write_frequency:.2f}%"),
        ("silent fraction", f"{100 * profile.silent_fraction:.2f}%"),
        ("burst mean", f"{profile.burst_mean:.2f}"),
        ("type persistence", f"{profile.type_persistence:.2f}"),
        ("footprint", f"{profile.footprint_kib} KiB"),
    ] + [
        (f"stream: {spec.kind}", f"weight {spec.weight:.2f}")
        for spec in profile.streams
    ]
    print(
        format_table(
            ("knob", "fitted value"),
            rows,
            title=f"profile fitted from {args.trace}",
        )
    )
    return 0


def _cmd_kernels(_args) -> int:
    print("instrumented kernels:")
    for name in KERNEL_NAMES:
        print(f"  {name}")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import write_report

    telemetry = _telemetry_from_args(args)
    with execution_policy(_policy_from_args(args)):
        path = write_report(
            args.output,
            accesses=args.accesses,
            seed=args.seed,
            figure_ids=args.figures,
            telemetry=telemetry,
        )
    print(f"wrote reproduction report to {path}")
    _finish_telemetry(telemetry, args)
    return 0


def _cmd_power(args) -> int:
    import json as json_mod

    from repro.analysis.overheads import check_overhead_claims, overhead_report
    from repro.power.estimator import default_registry

    telemetry = _telemetry_from_args(args)
    registry = default_registry(
        args.estimator,
        cache_path=args.estimator_cache,
        telemetry=telemetry,
    )
    result = overhead_report(
        accesses=args.accesses,
        seed=args.seed,
        geometry=args.geometry,
        node_nm=args.node,
        benchmarks=args.benchmarks or None,
        estimator=registry,
    )
    print(result.render())
    stats = registry.stats()
    calls = ", ".join(
        f"{backend}={count}"
        for backend, count in sorted(stats["backend_calls"].items())
    )
    line = f"\nestimator: backend calls {calls}"
    cache_stats = stats.get("cache")
    if cache_stats:
        line += (
            f"; cache {cache_stats['hits']} hit(s) / "
            f"{cache_stats['misses']} miss(es) at {cache_stats['path']}"
        )
    print(line)
    violations = check_overhead_claims(result)
    if args.json:
        document = {
            "figure_id": result.figure_id,
            "title": result.title,
            "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
            "summary": result.summary,
            "paper_values": result.paper_values,
            "violations": violations,
            "estimator": stats,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json_mod.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote overhead report to {args.json}")
    _finish_telemetry(telemetry, args)
    if violations:
        for violation in violations:
            print(f"CLAIM FAILED: {violation}", file=sys.stderr)
        return EXIT_RUNTIME
    print("all overhead claims verified")
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profiler import profile_benchmark

    telemetry = _telemetry_from_args(args, force=True)
    report = profile_benchmark(
        args.benchmark,
        geometry=args.geometry,
        accesses=args.accesses,
        seed=args.seed,
        techniques=tuple(args.techniques),
        telemetry=telemetry,
    )
    print(
        format_table(
            ("phase", "calls", "total s", "mean ms"),
            [
                (phase, calls, f"{total:.3f}", f"{mean_ms:.3f}")
                for phase, calls, total, mean_ms in report.phase_rows()
            ],
            title=(
                f"phase timings: {args.benchmark} x {len(args.techniques)} "
                f"techniques, {args.accesses} accesses"
            ),
        )
    )
    print()
    print(
        format_table(
            ("technique", "array accesses", "requests", "hit rate %"),
            report.technique_rows(),
            title="per-technique results",
        )
    )
    print()
    print(
        format_table(
            ("counter", "value"),
            [(name, int(value)) for name, value in report.hot_counters()],
            title="hot counters",
        )
    )
    total = report.total_events
    print(
        f"\ntotal across techniques: {total.array_accesses} array accesses "
        f"({total.row_reads} row reads, {total.row_writes} row writes, "
        f"{total.rmw_operations} RMWs)"
    )
    _finish_telemetry(telemetry, args)
    return 0


def _print_bench_table(args, results) -> None:
    rows = [
        (
            result.technique,
            f"{result.scalar_aps:,.0f}",
            f"{result.columnar_aps:,.0f}",
            f"{result.speedup:.2f}x",
        )
        for result in results
    ]
    print(
        format_table(
            ("technique", "scalar acc/s", "columnar acc/s", "speedup"),
            rows,
            title=(
                f"hot-path throughput: {args.benchmark}, "
                f"{args.accesses} accesses on {args.geometry.describe()}"
            ),
        )
    )


def _write_bench_snapshot(args, results, env, timestamp) -> None:
    """The ``--json`` latest-snapshot view (``BENCH_hotpath.json``)."""
    import json

    from repro.engine.bench import bench_report

    report = bench_report(
        results,
        args.benchmark,
        args.geometry,
        environment=env,
        timestamp=timestamp,
    )
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote benchmark report to {args.json}")


def _append_bench_history(args, results, env, timestamp) -> None:
    """Append one run to the bench-history ledger (``--history``)."""
    from repro.obs.perf import append_run, run_record

    record = run_record(
        results,
        benchmark=args.benchmark,
        geometry=args.geometry.describe(),
        accesses=args.accesses,
        seed=args.seed,
        repeats=args.repeats,
        env=env,
        timestamp=timestamp,
    )
    path = append_run(args.history, record)
    print(f"appended run to ledger {path}")


def _cmd_bench(args) -> int:
    from repro.engine.bench import run_hotpath_bench

    results = run_hotpath_bench(
        techniques=tuple(args.techniques),
        accesses=args.accesses,
        geometry=args.geometry,
        benchmark=args.benchmark,
        seed=args.seed,
        batch_size=args.batch_size,
        repeats=args.repeats,
    )
    _print_bench_table(args, results)
    env = timestamp = None
    if args.json or args.history:
        from repro.obs.perf import environment_fingerprint, utc_timestamp

        env = environment_fingerprint()
        timestamp = utc_timestamp()
    if args.json:
        _write_bench_snapshot(args, results, env, timestamp)
    if args.history:
        _append_bench_history(args, results, env, timestamp)
    return 0


def _ledger_skip_warning(line_number: int, reason: str) -> None:
    print(
        f"warning: skipping unreadable ledger line {line_number}: {reason}",
        file=sys.stderr,
    )


def _cmd_perf_compare(args) -> int:
    import json

    from repro.obs.perf import (
        compare_to_baseline,
        environment_fingerprint,
        read_ledger,
        utc_timestamp,
    )

    entries = read_ledger(args.ledger, on_skip=_ledger_skip_warning)
    env = environment_fingerprint()
    timestamp = utc_timestamp()
    if args.current:
        with open(args.current, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        results = snapshot["results"]
        benchmark = snapshot["benchmark"]
        geometry_desc = snapshot["geometry"]
        accesses = results[0]["accesses"] if results else 0
        print(f"gating existing snapshot {args.current}")
    else:
        from repro.engine.bench import run_hotpath_bench

        bench_results = run_hotpath_bench(
            techniques=tuple(args.techniques),
            accesses=args.accesses,
            benchmark=args.benchmark,
            geometry=args.geometry,
            seed=args.seed,
            repeats=args.repeats,
        )
        _print_bench_table(args, bench_results)
        results = [result.to_dict() for result in bench_results]
        benchmark = args.benchmark
        geometry_desc = args.geometry.describe()
        accesses = args.accesses
        if args.json:
            _write_bench_snapshot(args, bench_results, env, timestamp)
    gate = compare_to_baseline(
        results,
        entries,
        benchmark=benchmark,
        geometry=geometry_desc,
        accesses=accesses,
        window=args.window,
        sigma=args.sigma,
        min_band=args.min_band,
    )
    print(
        format_table(
            ("technique", "speedup", "threshold", "basis", "verdict"),
            [
                (
                    g.technique,
                    f"{g.current_speedup:.2f}x",
                    f"{g.threshold:.2f}x" if g.source != "none" else "-",
                    (
                        f"ledger mean {g.baseline_mean:.2f}x "
                        f"+/- {g.baseline_std:.3f} (n={g.samples})"
                        if g.source == "ledger"
                        else f"static floor (n={g.samples})"
                        if g.source == "floor"
                        else "no baseline"
                    ),
                    "REGRESSION" if g.regressed else "ok",
                )
                for g in gate.gates
            ],
            title=(
                f"perf gate: {benchmark} x {accesses} accesses, "
                f"window {gate.window}, {gate.sigma:g}-sigma noise band"
            ),
        )
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(gate.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote gate report to {args.report}")
    if args.append and not args.current:
        from repro.obs.perf import append_run, run_record

        append_run(
            args.ledger,
            run_record(
                results,
                benchmark=benchmark,
                geometry=geometry_desc,
                accesses=accesses,
                seed=args.seed,
                repeats=args.repeats,
                env=env,
                timestamp=timestamp,
            ),
        )
        print(f"appended this run to ledger {args.ledger}")
    if not gate.ok:
        for regression in gate.regressions:
            print(f"REGRESSION: {regression.describe()}", file=sys.stderr)
        return EXIT_RUNTIME
    print("perf gate passed")
    return 0


def _cmd_perf_report(args) -> int:
    from repro.obs.perf import read_ledger, write_trend_report

    entries = read_ledger(args.ledger, on_skip=_ledger_skip_warning)
    path = write_trend_report(
        args.out, entries, window=args.window, recent_runs=args.recent
    )
    print(f"wrote trend report for {len(entries)} ledger run(s) to {path}")
    return 0


def _cmd_check(args) -> int:
    from repro.check import replay_corpus, run_check_campaign

    if args.replay:
        if not args.corpus:
            raise ConfigurationError("--replay needs --corpus DIR to read from")
        report = replay_corpus(
            args.corpus,
            invariants=not args.no_invariants,
            result_cache=args.result_cache,
        )
        mode = f"replaying corpus {args.corpus}"
        if args.result_cache:
            mode += (
                f" ({report.cached_cases}/{report.cases_run} verdicts "
                f"from {args.result_cache})"
            )
    else:
        geometries = tuple(args.geometry) if args.geometry else None
        report = run_check_campaign(
            seed=args.seed,
            iterations=args.iterations,
            techniques=tuple(args.techniques),
            max_accesses=args.accesses,
            shrink=not args.no_shrink,
            invariants=not args.no_invariants,
            corpus_dir=args.corpus,
            geometries=geometries,
        )
        mode = (
            f"fuzzing {args.iterations} cases x "
            f"{len(args.techniques)} technique(s)"
        )
    print(mode)
    if report.scenario_cases:
        print(
            "scenarios: "
            + ", ".join(
                f"{name}={count}"
                for name, count in sorted(report.scenario_cases.items())
            )
        )
    print(report.summary())
    if report.failures:
        for failure in report.failures:
            print()
            print(failure.describe())
        return EXIT_RUNTIME
    return 0


def _cmd_cache(args) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.store)
    if args.cache_command == "stats":
        stats = store.stats()
        counters = stats.pop("counters")
        rows = [(key, str(value)) for key, value in sorted(stats.items())]
        rows += [
            (f"counters.{key}", str(value))
            for key, value in sorted(counters.items())
        ]
        print(
            format_table(
                ("field", "value"),
                rows,
                title=f"result store {args.store}",
            )
        )
        return 0
    if args.cache_command == "verify":
        report = store.verify()
        print(
            f"verified {report['checked']} entr(ies): {report['ok']} ok, "
            f"{len(report['corrupt'])} quarantined"
        )
        for item in report["corrupt"]:
            print(f"  {item['key']}: {item['reason']}")
        return EXIT_RUNTIME if report["corrupt"] else 0
    if args.cache_command == "gc":
        report = store.gc(prune_quarantine=args.prune_quarantine)
        print(
            f"gc: removed {report['removed']} stale entr(ies), "
            f"freed {report['freed_bytes']} bytes, pruned "
            f"{report['quarantine_pruned']} quarantined file(s) "
            f"(code version {report['code_version']})"
        )
        return 0
    # invalidate
    if not (args.all or args.benchmark or args.kind):
        raise ConfigurationError(
            "cache invalidate needs --benchmark, --kind, or --all"
        )
    report = store.invalidate(
        benchmark=args.benchmark, kind=args.kind, everything=args.all
    )
    print(f"invalidated {report['removed']} entr(ies)")
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.lint import RULE_TYPES, run_lint
    from repro.lint.deep import DEFAULT_CACHE_PATH

    if args.list_rules:
        rows = [
            (
                rule_id,
                rule_type.name,
                str(rule_type.severity),
                "deep" if rule_type.deep else "ast",
                rule_type.description,
            )
            for rule_id, rule_type in sorted(RULE_TYPES.items())
        ]
        print(
            format_table(
                ("id", "name", "severity", "tier", "description"),
                rows,
                title="repro-8t lint rule catalogue",
            )
        )
        return 0
    cache_path = (
        None if args.no_cache else (args.cache_path or DEFAULT_CACHE_PATH)
    )
    report = run_lint(
        args.paths,
        select=args.select,
        ignore=args.ignore,
        baseline_path=args.baseline,
        deep=args.deep,
        cache_path=cache_path,
        timing=bool(args.timing or args.timing_out),
    )
    if args.write_baseline:
        from repro.lint import Baseline

        entries = Baseline.from_findings(report.raw_findings).save(
            args.write_baseline
        )
        print(f"wrote {entries} baseline entries to {args.write_baseline}")
        return 0
    if args.format == "json":
        print(report.render_json())
    elif args.format == "github":
        print(report.render_github())
    else:
        print(report.render_text())
    if args.timing and report.timings:
        # Timing goes to stderr so --format json stdout stays parseable.
        width = max(len(key) for key in report.timings)
        print("rule timing:", file=sys.stderr)
        for key, seconds in sorted(
            report.timings.items(), key=lambda item: -item[1]
        ):
            print(f"  {key:<{width}}  {seconds * 1000:8.2f} ms", file=sys.stderr)
    if args.timing_out:
        payload = {"timings": report.timings}
        if report.deep_stats is not None:
            payload["deep"] = report.deep_stats.to_dict()
        with open(args.timing_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0 if report.ok else 1


def _cmd_benchmarks(_args) -> int:
    rows = [
        (
            name,
            f"{100 * profile.read_frequency:.0f}%",
            f"{100 * profile.write_frequency:.0f}%",
            f"{100 * profile.silent_fraction:.0f}%",
            profile.description,
        )
        for name, profile in sorted(SPEC2006_PROFILES.items())
    ]
    print(
        format_table(
            ("benchmark", "reads", "writes", "silent", "character"),
            rows,
            title="SPEC CPU2006 workload profiles (25 of 29, as in the paper)",
        )
    )
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-8t",
        description=(
            "Reproduction toolkit for 'Performance and Power Solutions "
            "for Caches Using 8T SRAM Cells' (MICRO 2012)."
        ),
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="show full tracebacks instead of one-line error summaries",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("figures", help="list reproducible figures")
    sub.set_defaults(handler=_cmd_figures)

    sub = subparsers.add_parser("figure", help="reproduce one figure")
    sub.add_argument("figure_id", choices=FIGURE_IDS)
    sub.add_argument("--accesses", type=int, default=15_000)
    sub.add_argument("--seed", type=int, default=2012)
    sub.add_argument("--benchmarks", nargs="*", choices=benchmark_names())
    sub.add_argument("--csv", help="also write the table to this CSV path")
    sub.add_argument(
        "--bars", action="store_true", help="render as ASCII bar chart"
    )
    _add_obs_flags(sub)
    _add_resilience_flags(sub)
    _add_estimator_flags(sub)
    sub.set_defaults(handler=_cmd_figure)

    sub = subparsers.add_parser(
        "compare", help="compare techniques on one benchmark"
    )
    sub.add_argument("benchmark", choices=benchmark_names())
    sub.add_argument("--accesses", type=int, default=20_000)
    sub.add_argument("--seed", type=int, default=2012)
    sub.add_argument(
        "--geometry", type=parse_geometry, default=BASELINE_GEOMETRY
    )
    sub.add_argument(
        "--techniques",
        nargs="+",
        default=["conventional", "rmw", "wg", "wg_rb"],
        choices=ALL_CONTROLLER_NAMES,
    )
    _add_obs_flags(sub)
    _add_resilience_flags(sub, campaign=False)
    sub.set_defaults(handler=_cmd_compare)

    sub = subparsers.add_parser(
        "profile",
        help="profile one benchmark: phase timings + hot counters",
        description=(
            "Profile one benchmark on the columnar engine that campaigns "
            "run on: metrics and interval snapshots ride its kernels.  "
            "With --trace-out it runs per access instead, so each "
            "instrumentation point emits its trace instant."
        ),
    )
    sub.add_argument("benchmark", choices=benchmark_names())
    sub.add_argument("--accesses", type=int, default=20_000)
    sub.add_argument("--seed", type=int, default=2012)
    sub.add_argument(
        "--geometry", type=parse_geometry, default=BASELINE_GEOMETRY
    )
    sub.add_argument(
        "--techniques",
        nargs="+",
        default=["conventional", "rmw", "wg", "wg_rb"],
        choices=ALL_CONTROLLER_NAMES,
    )
    _add_obs_flags(sub)
    sub.set_defaults(handler=_cmd_profile)

    sub = subparsers.add_parser("trace", help="synthesise a trace file")
    sub.add_argument("benchmark", choices=benchmark_names())
    sub.add_argument("output")
    sub.add_argument("--accesses", type=int, default=50_000)
    sub.add_argument("--seed", type=int, default=2012)
    sub.add_argument("--format", choices=("text", "binary"), default="text")
    sub.add_argument(
        "--crc",
        action="store_true",
        help="write the integrity-checked RPTRACE2 format "
        "(per-record CRC-32; binary only)",
    )
    sub.set_defaults(handler=_cmd_trace)

    sub = subparsers.add_parser(
        "kernel", help="run an instrumented kernel, dump/preview its trace"
    )
    sub.add_argument("kernel", choices=KERNEL_NAMES)
    sub.add_argument("output", nargs="?")
    sub.add_argument("--words", type=int, default=2048)
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--format", choices=("text", "binary"), default="text")
    sub.add_argument("--head", type=int, default=10)
    sub.set_defaults(handler=_cmd_kernel)

    sub = subparsers.add_parser("stats", help="Figure 3/4/5 stats of a trace file")
    sub.add_argument("trace")
    sub.add_argument(
        "--geometry", type=parse_geometry, default=BASELINE_GEOMETRY
    )
    sub.set_defaults(handler=_cmd_stats)

    sub = subparsers.add_parser("kernels", help="list instrumented kernels")
    sub.set_defaults(handler=_cmd_kernels)

    sub = subparsers.add_parser(
        "fit", help="fit workload-profile knobs to a trace file"
    )
    sub.add_argument("trace")
    sub.add_argument("--name", default="fitted")
    sub.set_defaults(handler=_cmd_fit)

    sub = subparsers.add_parser(
        "report", help="reproduce every figure into one markdown report"
    )
    sub.add_argument("output", nargs="?", default="reproduction_report.md")
    sub.add_argument("--accesses", type=int, default=15_000)
    sub.add_argument("--seed", type=int, default=2012)
    sub.add_argument("--figures", nargs="*", choices=FIGURE_IDS)
    _add_obs_flags(sub)
    _add_resilience_flags(sub)
    _add_estimator_flags(sub)
    sub.set_defaults(handler=_cmd_report)

    sub = subparsers.add_parser(
        "bench",
        help="hot-path throughput: scalar path vs columnar engine",
    )
    sub.add_argument(
        "benchmark", nargs="?", default="bwaves", choices=benchmark_names()
    )
    sub.add_argument("--accesses", type=int, default=200_000)
    sub.add_argument("--seed", type=int, default=2012)
    sub.add_argument(
        "--geometry", type=parse_geometry, default=BASELINE_GEOMETRY
    )
    sub.add_argument(
        "--techniques",
        nargs="+",
        default=["conventional", "rmw", "wg", "wg_rb"],
        choices=ALL_CONTROLLER_NAMES,
    )
    sub.add_argument(
        "--batch-size", type=int, help="records per batch (default 4096)"
    )
    sub.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per path; the fastest is kept",
    )
    sub.add_argument(
        "--json", help="also write the BENCH_hotpath.json document here"
    )
    sub.add_argument(
        "--history",
        nargs="?",
        const=str(DEFAULT_LEDGER_PATH),
        default=None,
        metavar="PATH",
        help=(
            "append this run to the bench-history ledger "
            f"(default path: {DEFAULT_LEDGER_PATH})"
        ),
    )
    sub.set_defaults(handler=_cmd_bench)

    perf = subparsers.add_parser(
        "perf",
        help="performance observatory: statistical gates and trend reports",
        description=(
            "Consume the bench-history ledger written by 'bench "
            "--history'.  'perf compare' gates the current tree against "
            "a rolling baseline with stability-derived noise bands "
            "(exit 3 on regression); 'perf report' renders the "
            "per-technique trajectory to markdown."
        ),
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    sub = perf_sub.add_parser(
        "compare",
        help="gate current speedups against the rolling ledger baseline",
    )
    sub.add_argument(
        "--ledger",
        default=str(DEFAULT_LEDGER_PATH),
        help="bench-history ledger to baseline against",
    )
    sub.add_argument(
        "--current",
        metavar="PATH",
        help=(
            "gate an existing BENCH_hotpath.json snapshot instead of "
            "measuring afresh"
        ),
    )
    sub.add_argument(
        "--window",
        type=int,
        default=10,
        help="ledger entries in the rolling baseline",
    )
    sub.add_argument(
        "--sigma",
        type=float,
        default=3.0,
        help="noise-band width in standard deviations",
    )
    sub.add_argument(
        "--min-band",
        type=float,
        default=0.10,
        help="minimum noise band as a fraction of the baseline mean",
    )
    sub.add_argument(
        "--report", metavar="PATH", help="write the gate verdict as JSON here"
    )
    sub.add_argument(
        "--json",
        metavar="PATH",
        help="also write a BENCH_hotpath.json snapshot of this measurement",
    )
    sub.add_argument(
        "--append",
        action="store_true",
        help="append this measurement to the ledger after gating",
    )
    sub.add_argument(
        "--benchmark", default="bwaves", choices=benchmark_names()
    )
    sub.add_argument("--accesses", type=int, default=200_000)
    sub.add_argument("--seed", type=int, default=2012)
    sub.add_argument(
        "--geometry", type=parse_geometry, default=BASELINE_GEOMETRY
    )
    sub.add_argument(
        "--techniques",
        nargs="+",
        default=["conventional", "rmw", "wg", "wg_rb"],
        choices=ALL_CONTROLLER_NAMES,
    )
    sub.add_argument("--repeats", type=int, default=3)
    sub.set_defaults(handler=_cmd_perf_compare)

    sub = perf_sub.add_parser(
        "report",
        help="render the per-technique trend report from the ledger",
    )
    sub.add_argument(
        "--ledger",
        default=str(DEFAULT_LEDGER_PATH),
        help="bench-history ledger to read",
    )
    sub.add_argument(
        "--out",
        default="docs/perf-trend.md",
        help="markdown file to write",
    )
    sub.add_argument(
        "--window",
        type=int,
        default=20,
        help="entries in the rolling mean/std columns",
    )
    sub.add_argument(
        "--recent",
        type=int,
        default=10,
        help="runs shown in the recent-runs table",
    )
    sub.set_defaults(handler=_cmd_perf_report)

    sub = subparsers.add_parser(
        "check",
        help="oracle-differential fuzz campaign (correctness tooling)",
        description=(
            "Fuzz deterministic adversarial traces through the reference "
            "oracle, the scalar path, and the columnar engine, diffing "
            "every observable.  Failures are shrunk to minimal repro "
            "traces; --corpus saves them and --replay re-runs saved "
            "repros as a regression gate.  Exit code 3 on divergence."
        ),
    )
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="fuzz cases; each runs under every requested technique",
    )
    sub.add_argument(
        "--techniques",
        nargs="+",
        default=list(CONTROLLER_NAMES),
        choices=CONTROLLER_NAMES,
    )
    sub.add_argument(
        "--accesses",
        type=int,
        default=400,
        help="max accesses per fuzzed trace",
    )
    sub.add_argument(
        "--geometry",
        type=parse_geometry,
        action="append",
        help=(
            "restrict fuzzing to this SIZE:WAYS:BLOCK geometry "
            "(repeatable; default: a built-in adversarial mix)"
        ),
    )
    sub.add_argument(
        "--corpus", metavar="DIR", help="save shrunk failing traces here"
    )
    sub.add_argument(
        "--replay",
        action="store_true",
        help="re-run the saved --corpus repros instead of fuzzing",
    )
    sub.add_argument(
        "--result-cache",
        metavar="DIR",
        help=(
            "serve --replay verdicts from a content-addressed result "
            "store; entries invalidate automatically when the checker "
            "code version changes"
        ),
    )
    sub.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing traces unshrunk (faster on failure)",
    )
    sub.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip debug-mode structural invariant checks",
    )
    sub.set_defaults(handler=_cmd_check)

    sub = subparsers.add_parser(
        "lint",
        help="project-aware static analysis (determinism, contracts)",
        description=(
            "AST-based lint enforcing this repo's contracts: seeded "
            "randomness in sim paths, ReproError discipline, the "
            "controller fast-path gate, the declared metric-name set, "
            "and library hygiene.  Exit 1 on findings, 0 when clean; "
            "see docs/static-analysis.md for the rule catalogue, "
            "`# repro-lint: disable=RPRxxx` suppressions, and the "
            "baseline workflow."
        ),
    )
    sub.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    sub.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help=(
            "finding output format (github emits ::error workflow "
            "annotations for CI)"
        ),
    )
    sub.add_argument(
        "--deep",
        action="store_true",
        help=(
            "also run the interprocedural RPR2xx tier (call graph + "
            "effect closures; per-file summaries cached by content "
            "digest)"
        ),
    )
    sub.add_argument(
        "--timing",
        action="store_true",
        help="print per-rule wall time to stderr",
    )
    sub.add_argument(
        "--timing-out",
        metavar="PATH",
        help="write per-rule timing + deep-pass stats as JSON",
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the --deep summary cache for this run",
    )
    sub.add_argument(
        "--cache-path",
        default=None,
        metavar="PATH",
        help=(
            "summary-cache file for --deep "
            "(default: .repro-lint-cache/summaries.json)"
        ),
    )
    sub.add_argument(
        "--baseline",
        help="JSON baseline of accepted findings to subtract",
    )
    sub.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write the current findings as a baseline and exit 0",
    )
    sub.add_argument(
        "--select",
        nargs="+",
        metavar="RPRxxx",
        help="run only these rule ids",
    )
    sub.add_argument(
        "--ignore",
        nargs="+",
        metavar="RPRxxx",
        help="skip these rule ids",
    )
    sub.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    sub.set_defaults(handler=_cmd_lint)

    cache = subparsers.add_parser(
        "cache",
        help="inspect and maintain a --result-cache store",
        description=(
            "Administer a content-addressed result store (the directory "
            "passed to --result-cache).  stats prints occupancy and "
            "counters; verify validates every entry and quarantines "
            "damage (exit 3 if any); gc drops entries from other code "
            "versions; invalidate removes entries by selector."
        ),
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    csub = cache_sub.add_parser("stats", help="store occupancy and counters")
    csub.add_argument("store", metavar="DIR", help="result-store root")
    csub.set_defaults(handler=_cmd_cache)

    csub = cache_sub.add_parser(
        "verify",
        help="validate every entry, quarantining damage (exit 3 if any)",
    )
    csub.add_argument("store", metavar="DIR", help="result-store root")
    csub.set_defaults(handler=_cmd_cache)

    csub = cache_sub.add_parser(
        "gc", help="drop entries written by a different code version"
    )
    csub.add_argument("store", metavar="DIR", help="result-store root")
    csub.add_argument(
        "--prune-quarantine",
        action="store_true",
        help="also empty the quarantine directory",
    )
    csub.set_defaults(handler=_cmd_cache)

    csub = cache_sub.add_parser(
        "invalidate", help="remove entries by benchmark/kind selector"
    )
    csub.add_argument("store", metavar="DIR", help="result-store root")
    csub.add_argument("--benchmark", help="remove entries for this benchmark")
    csub.add_argument(
        "--kind",
        choices=("campaign-row", "check-verdict"),
        help="remove entries of this kind",
    )
    csub.add_argument(
        "--all", action="store_true", help="remove every entry in the store"
    )
    csub.set_defaults(handler=_cmd_cache)

    sub = subparsers.add_parser(
        "power",
        help="verify the paper's overhead claims, per estimator backend",
        description=(
            "Reproduce the Section 5.4/5.5 overhead claims — Set-Buffer "
            "< 0.2% of the cache, Tag-Buffer < 150 bits, WG+RB saving "
            "dynamic energy vs RMW — from every capable estimator "
            "backend (or just the one --estimator forces), pricing each "
            "technique as energy per access.  Exit code 3 if any claim "
            "fails under any backend (the CI power-smoke gate)."
        ),
    )
    sub.add_argument("--accesses", type=int, default=4_000)
    sub.add_argument("--seed", type=int, default=2012)
    sub.add_argument(
        "--geometry", type=parse_geometry, default=BASELINE_GEOMETRY
    )
    sub.add_argument(
        "--node",
        type=int,
        default=45,
        help="process node in nm (default 45)",
    )
    sub.add_argument("--benchmarks", nargs="*", choices=benchmark_names())
    sub.add_argument(
        "--json", metavar="PATH", help="write the overhead report as JSON"
    )
    _add_obs_flags(sub)
    _add_estimator_flags(sub)
    sub.set_defaults(handler=_cmd_power)

    sub = subparsers.add_parser("benchmarks", help="list workload profiles")
    sub.set_defaults(handler=_cmd_benchmarks)

    return parser


#: Exit codes for :class:`ReproError` failures at the entry point.
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library failures (:class:`ReproError`) become a one-line message on
    stderr with exit code 2 (configuration/usage) or 3 (runtime) —
    users get actionable errors, not tracebacks.  ``--debug`` restores
    the traceback for bug reports.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        if args.debug:
            raise
        print(f"repro-8t: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigurationError) else EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
