"""Span tracer for the traced benchmark run.

The tracer wraps each layer's public entry points from outside the
program.  A module-level function is rebound in every loaded ``repro``
module that holds it (``from x import f`` copies ``f`` into the
importer, so patching only the defining module would miss those
calls); methods are replaced on their class; ``os.fsync`` is replaced
on ``os``.  Each call becomes a span with a name, layer, start, end,
parent and group; the group is the row or figure id that all spans of
one campaign row or report figure share.  Spans stay in memory;
:func:`layer_metrics` reduces them once the run is over.

Self time is a span's duration minus the durations of its direct
children.  Work on a path no wrapper sees lands in the self time of
the nearest wrapped caller, ultimately the root span, whose self time
is reported as unattributed.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: Techniques with their own ``core.kernel_s.<technique>`` metric.
TECHNIQUES = ("conventional", "rmw", "wg", "wg_rb")

#: Every figure id of ``repro-8t report``; each gets an
#: ``analysis.figure_s.<id>`` metric (0 where a workload runs none).
FIGURE_IDS = (
    "claim_rmw", "dvfs_energy", "fig10", "fig11", "fig3", "fig4", "fig5",
    "fig9", "overheads", "reliability", "sec5.4", "sec5.5", "traffic",
)

#: Layers whose self time is reported; with the root's self time
#: (unattributed) they add up to the traced wall time.
LAYERS = (
    "workload", "engine", "core", "sim", "perf", "power", "store",
    "trace", "analysis",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional["Span"]
    group: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder plus the entry-point patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: Optional[Span] = None
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open(
        self, name: str, layer: str, group: Optional[str] = None, **attrs: Any
    ) -> Span:
        parent = self._current
        if group is None:
            group = parent.group if parent is not None else ""
        if layer == "fsync" and parent is not None:
            # An fsync belongs to whichever layer asked for durability.
            layer = parent.layer
        span = Span(name, layer, time.perf_counter(), parent, group, attrs)
        self._current = span
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self._current = span.parent
        self.spans.append(span)

    def traced(self, fn: Callable, name: str, layer: str, describe=None) -> Callable:
        """``fn`` wrapped in a span; ``describe(args)`` gives (group, attrs)."""

        def wrapped(*args, **kwargs):
            group, attrs = describe(args, kwargs) if describe else (None, {})
            span = self.open(name, layer, group=group, **attrs)
            try:
                result = fn(*args, **kwargs)
                if name == "store.get":
                    span.attrs["hit"] = result is not None
                elif name == "perf.timing":
                    span.attrs["accesses"] = result.reads + result.writes
                return result
            finally:
                self.close(span)

        return wrapped

    def timed_decode(self, batches: Iterable) -> Iterator:
        """Yield from a decoding generator, one ``engine.decode`` span per step.

        The consumer's work between steps is not decode time, hence a
        span per step rather than one per generator.
        """
        iterator = iter(batches)
        while True:
            span = self.open("engine.decode", "engine")
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(span)
            if span.parent is None or span.parent.name != "engine.decode":
                span.attrs["accesses"] = len(item)
            yield item

    # -- patching --------------------------------------------------------

    def _rebind_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_attr(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every measured entry point; :meth:`uninstall` undoes it."""
        from repro.analysis.figures import reproduce_figure
        from repro.engine.batch import iter_batches
        from repro.engine.columnar import iter_chunks
        from repro.perf.timing import TimingSimulator
        from repro.power.estimator.registry import EstimatorRegistry
        from repro.sim.campaign import execute_row
        from repro.sim.simulator import Simulator
        from repro.store.store import ResultStore
        from repro.trace.stats import collect_statistics
        from repro.workload.generator import generate_trace

        def gen_attrs(args, kwargs):
            profile, num_accesses = args[0], args[1]
            key = (profile.name, num_accesses, args[2:], tuple(sorted(kwargs.items())))
            return None, {"key": key}

        def row_attrs(args, _kwargs):
            benchmark, config = args[0], args[1]
            return f"row:{benchmark}", {"accesses": config.accesses_per_benchmark}

        def figure_attrs(args, _kwargs):
            return f"figure:{args[0]}", {"figure": args[0]}

        functions = (
            (generate_trace, "workload.gen", "workload", gen_attrs),
            (execute_row, "sim.row", "sim", row_attrs),
            (reproduce_figure, "analysis.figure", "analysis", figure_attrs),
            (collect_statistics, "trace.stats", "trace", None),
        )
        for fn, name, layer, describe in functions:
            self._rebind_everywhere(fn, self.traced(fn, name, layer, describe))
        for decode in (iter_batches, iter_chunks):
            self._rebind_everywhere(decode, self._decoding(decode))
        for attr in ("feed", "feed_batches", "feed_chunks"):
            self._replace_attr(Simulator, attr, self._feeding(getattr(Simulator, attr)))
        methods = (
            (TimingSimulator, "run", "perf.timing", "perf"),
            (EstimatorRegistry, "estimate", "power.estimate", "power"),
            (ResultStore, "get", "store.get", "store"),
            (ResultStore, "put", "store.put", "store"),
            (os, "fsync", "fsync", "fsync"),
        )
        for owner, attr, name, layer in methods:
            self._replace_attr(owner, attr, self.traced(getattr(owner, attr), name, layer))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _decoding(self, decode: Callable) -> Callable:
        def wrapped(*args, **kwargs) -> Iterator:
            return self.timed_decode(decode(*args, **kwargs))

        return wrapped

    def _feeding(self, method: Callable) -> Callable:
        def wrapped(sim, *args, **kwargs):
            before = sim.controller.counts.requests
            span = self.open("core.feed", "core", technique=sim.controller.name)
            try:
                return method(sim, *args, **kwargs)
            finally:
                self.close(span)
                span.attrs["accesses"] = sim.controller.counts.requests - before

        return wrapped


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _within(span: Span, name: str) -> bool:
    node = span.parent
    while node is not None:
        if node.name == name:
            return True
        node = node.parent
    return False


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    by_name: Dict[str, List[Span]] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    root_self = 0.0
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.layer == "root":
            root_self += span.self_s
        else:
            layer_self[span.layer] += span.self_s

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    metrics: Dict[str, float] = {f"{layer}.self_s": layer_self[layer] for layer in ("sim", "analysis")}

    gens = sorted(named("workload.gen"), key=lambda span: span.start)
    seen = set()
    repeats = 0
    for span in gens:
        repeats += span.attrs["key"] in seen
        seen.add(span.attrs["key"])
    metrics["workload.gen_s"] = layer_self["workload"]
    metrics["workload.gen_calls"] = len(gens)
    metrics["workload.repeat_frac"] = _ratio(repeats, len(gens))

    rows = named("sim.row")
    decoded_in_rows = sum(
        span.attrs.get("accesses", 0)
        for span in named("engine.decode")
        if _within(span, "sim.row")
    )
    metrics["engine.decode_s"] = layer_self["engine"]
    metrics["engine.decode_passes_per_row"] = _ratio(
        decoded_in_rows, sum(span.attrs["accesses"] for span in rows)
    )

    feeds = named("core.feed")
    metrics["core.kernel_s"] = layer_self["core"]
    for technique in TECHNIQUES:
        metrics[f"core.kernel_s.{technique}"] = sum(
            span.self_s for span in feeds if span.attrs["technique"] == technique
        )
    metrics["core.access_rate"] = _ratio(
        sum(span.attrs["accesses"] for span in feeds), layer_self["core"]
    )

    row_s = [span.duration for span in rows]
    metrics["sim.row_p50_s"] = statistics.median(row_s) if row_s else 0.0
    metrics["sim.row_max_s"] = max(row_s, default=0.0)

    metrics["perf.timing_s"] = layer_self["perf"]
    metrics["perf.timing_access_rate"] = _ratio(
        sum(span.attrs.get("accesses", 0) for span in named("perf.timing")),
        layer_self["perf"],
    )

    metrics["power.estimate_s"] = layer_self["power"]
    metrics["power.queries"] = len(named("power.estimate"))

    gets, puts = named("store.get"), named("store.put")
    store_fsyncs = sum(
        1
        for span in named("fsync")
        if span.parent is not None and span.parent.name in ("store.get", "store.put")
    )
    metrics["store.get_s"] = sum(span.duration for span in gets)
    metrics["store.put_s"] = sum(span.duration for span in puts)
    metrics["store.hit_frac"] = _ratio(
        sum(1 for span in gets if span.attrs.get("hit")), len(gets)
    )
    metrics["store.fsyncs_per_op"] = _ratio(store_fsyncs, len(gets) + len(puts))

    metrics["trace.stats_s"] = layer_self["trace"]

    figures = named("analysis.figure")
    for figure_id in FIGURE_IDS:
        metrics[f"analysis.figure_s.{figure_id}"] = sum(
            (span.duration for span in figures if span.attrs["figure"] == figure_id), 0.0
        )

    traced_wall = sum(span.duration for span in named("bench"))
    metrics["bench.traced_wall_s"] = traced_wall
    metrics["bench.unattributed_s"] = root_self
    metrics["bench.unattributed_frac"] = _ratio(root_self, traced_wall)
    return metrics

