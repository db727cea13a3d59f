"""The ``lint --deep`` driver: cached summaries -> link -> RPR2xx rules.

Orchestrates the interprocedural tier around the cache boundary
described in :mod:`repro.lint.callgraph`:

1. **Summarise with a digest cache.**  Each file's
   :class:`~repro.lint.callgraph.ModuleSummary` is keyed by the sha256
   digest of its own bytes; the whole cache is keyed by the lint
   package's own code version (the :func:`repro.store.version.
   code_version` pattern with ``paths=("lint",)``) and the summary
   schema version.  A warm run therefore re-analyses exactly the files
   whose bytes changed — edit one module and the other N-1 summaries
   load from disk — while any edit to the analyser itself invalidates
   everything (an analyser bug must not be cached into stale verdicts).
2. **Link** the summaries into the project graph + effect closure.
3. **Run the deep rules** (``deep = True`` in the registry) against the
   linked graph, folding findings through the same suppression and
   snippet machinery as the shallow tier — the statement-anchor maps
   ride in the summaries so suppression scoping works on cache hits
   without re-parsing.

The cache write goes through :func:`repro.store.durable.atomic_write`
(tempfile -> fsync -> ``os.replace``): the linter practises what
RPR202 preaches, and a crash mid-write leaves the previous cache
intact.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.callgraph import (
    SUMMARY_VERSION,
    ModuleSummary,
    link,
    summarize_module,
)
from repro.lint.engine import Rule
from repro.lint.finding import Finding
from repro.lint.suppressions import SuppressionIndex
from repro.store.durable import atomic_write
from repro.store.version import code_version

__all__ = ["DeepStats", "run_deep", "DEFAULT_CACHE_PATH", "LINT_CODE_PATHS"]

#: Default on-disk location of the summary cache, relative to the
#: working directory (gitignored; delete it to force a cold run).
DEFAULT_CACHE_PATH = os.path.join(".repro-lint-cache", "summaries.json")

#: The analyser's own code surface: any change here invalidates every
#: cached summary.
LINT_CODE_PATHS = ("lint",)


class DeepStats:
    """Counters + timings for one deep pass (rendered in reports)."""

    def __init__(self) -> None:
        self.files = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.functions = 0
        self.edges = 0
        self.unresolved_total = 0
        self.unresolved_by_reason: Dict[str, int] = {}
        self.unresolved_sites: List[Dict[str, Any]] = []
        self.timings: Dict[str, float] = {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "files": self.files,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "functions": self.functions,
            "edges": self.edges,
            "unresolved_total": self.unresolved_total,
            "unresolved_by_reason": dict(
                sorted(self.unresolved_by_reason.items())
            ),
            "unresolved_sites": self.unresolved_sites,
            "timings": {k: round(v, 6) for k, v in sorted(self.timings.items())},
        }

    def summary_line(self) -> str:
        reasons = ", ".join(
            f"{count} {reason}"
            for reason, count in sorted(self.unresolved_by_reason.items())
        )
        tail = f" ({reasons})" if reasons else ""
        return (
            f"deep: {self.functions} functions, {self.edges} edges, "
            f"{self.cache_hits} cached / {self.cache_misses} analysed, "
            f"{self.unresolved_total} unresolved call sites{tail}"
        )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _load_cache(path: str, lint_version: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(payload, dict):
        return {}
    if payload.get("version") != SUMMARY_VERSION:
        return {}
    if payload.get("code_version") != lint_version:
        return {}
    files = payload.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(
    path: str, lint_version: str, files: Dict[str, Any]
) -> None:
    payload = {
        "version": SUMMARY_VERSION,
        "code_version": lint_version,
        "files": files,
    }
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        atomic_write(path, json.dumps(payload, sort_keys=True))
    except OSError:
        # The cache is an accelerator, never a correctness input — a
        # read-only checkout just runs cold every time.
        pass


def run_deep(
    files: Sequence[Tuple[str, str]],
    rules: Sequence[Rule],
    cache_path: Optional[str] = DEFAULT_CACHE_PATH,
    timing: bool = False,
    project_packages: Sequence[str] = ("repro",),
    module_names: Optional[Dict[str, Optional[str]]] = None,
) -> Tuple[List[Finding], int, DeepStats]:
    """Run the deep tier over ``files`` ([(path, source), ...]).

    Returns ``(findings, suppressed_count, stats)``.  ``cache_path=None``
    disables the summary cache entirely.  ``module_names`` maps path ->
    dotted module (computed by the caller, which already knows it).
    """
    stats = DeepStats()
    lint_version = code_version(paths=LINT_CODE_PATHS)
    cached_files = (
        _load_cache(cache_path, lint_version) if cache_path else {}
    )
    next_cache: Dict[str, Any] = {}
    summaries: List[ModuleSummary] = []
    sources: Dict[str, List[str]] = {}

    clock = time.perf_counter
    start = clock()
    for path, source in files:
        stats.files += 1
        sources[path] = source.splitlines()
        digest = _digest(source.encode("utf-8"))
        entry = cached_files.get(path)
        if entry is not None and entry.get("digest") == digest:
            try:
                summary = ModuleSummary.from_dict(entry["summary"])
            except (KeyError, TypeError, ValueError):
                summary = None
            if summary is not None:
                stats.cache_hits += 1
                summaries.append(summary)
                next_cache[path] = entry
                continue
        module = (module_names or {}).get(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            # The shallow engine already filed RPR001 for this file.
            continue
        summary = summarize_module(
            path, source, module, tree, project_packages
        )
        stats.cache_misses += 1
        summaries.append(summary)
        next_cache[path] = {"digest": digest, "summary": summary.to_dict()}
    stats.timings["deep:summarize"] = clock() - start

    start = clock()
    linked = link(summaries)
    stats.timings["deep:link"] = clock() - start
    stats.functions = len(linked.functions)
    stats.edges = linked.edge_count
    stats.unresolved_total = len(linked.unresolved)
    for site in linked.unresolved:
        reason = site.get("reason", "unknown")
        stats.unresolved_by_reason[reason] = (
            stats.unresolved_by_reason.get(reason, 0) + 1
        )
    stats.unresolved_sites = list(linked.unresolved)

    findings: List[Finding] = []
    suppressed = 0
    suppression_cache: Dict[str, SuppressionIndex] = {}

    def reporter(
        rule: Rule, path: str, line: int, col: int, message: str
    ) -> None:
        nonlocal suppressed
        index = suppression_cache.get(path)
        if index is None:
            summary = linked.summaries.get(path)
            anchors = summary.anchors if summary is not None else None
            index = SuppressionIndex.from_lines(
                sources.get(path, ()), anchors
            )
            suppression_cache[path] = index
        if index.is_suppressed(rule.id, line):
            suppressed += 1
            return
        lines = sources.get(path, [])
        snippet = (
            lines[line - 1].strip() if 1 <= line <= len(lines) else ""
        )
        findings.append(
            Finding(
                rule_id=rule.id,
                severity=rule.severity,
                path=path,
                line=line,
                column=col,
                message=message,
                snippet=snippet,
            )
        )

    for rule in sorted(rules, key=lambda r: r.id):
        start = clock()
        rule.check_deep(linked, reporter)  # type: ignore[attr-defined]
        if timing:
            stats.timings[rule.id] = clock() - start
    if not timing:
        # Phase totals are cheap and always useful; per-rule numbers
        # only appear when asked for.
        stats.timings = {
            k: v for k, v in stats.timings.items() if k.startswith("deep:")
        }

    if cache_path:
        _save_cache(cache_path, lint_version, next_cache)
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule_id))
    return findings, suppressed, stats
