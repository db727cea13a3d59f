"""RPR2xx — the interprocedural rule family behind ``lint --deep``.

These rules do not visit AST nodes.  They consume the linked project
graph (:class:`repro.lint.callgraph.LinkResult`) built by the deep
driver and report through the same finding/suppression/baseline
pipeline as the per-node RPR1xx rules.  A deep rule sets ``deep =
True`` and implements :meth:`check_deep`; the shallow engine never
instantiates it.

| id     | check                                                        |
|--------|--------------------------------------------------------------|
| RPR201 | determinism taint reaching a fenced package transitively      |
| RPR202 | write -> os.replace with no fsync on the window between them  |
| RPR203 | attribute mutated both under and outside ``with self._lock``  |
| RPR204 | open() handle escaping unmanaged in durability paths          |
| RPR205 | degradation handler that neither re-raises nor emits          |

RPR202/204 are scoped to the durability-critical paths (the store and
its durable-write helpers in ``store/durable.py``, the perf ledger, the
estimation-record cache); RPR203 to the lock-owning modules; RPR205 to
the retry -> breaker -> quarantine ladder.  RPR201 covers every
function reachable from the fenced packages and reports at the *fence
crossing* — the edge from a fenced caller into a non-fenced callee
whose effect closure is tainted — so one leak reports once, at the
boundary, with the witness chain down to the primitive.  Direct calls
inside fenced packages stay RPR101/RPR102 findings; RPR201 only adds
what per-node analysis cannot see.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from repro.lint import effects as fx
from repro.lint.engine import Rule, register_rule

if TYPE_CHECKING:  # deferred: callgraph imports this module's package
    from repro.lint.callgraph import LinkResult
from repro.lint.finding import Severity
from repro.lint.flow import REPRO_ERROR_NAMES
from repro.lint.rules.determinism import DETERMINISM_PACKAGES

__all__ = [
    "TransitiveDeterminismRule",
    "DurabilityDisciplineRule",
    "LockSetRule",
    "UnclosedResourceRule",
    "SilentDegradationRule",
    "DURABILITY_PATHS",
    "LADDER_PATHS",
]

#: Path fragments (``/``-normalised) naming the durability-critical
#: files: a missed fsync or leaked handle here can publish torn state.
DURABILITY_PATHS = (
    "store/",
    "obs/perf/ledger.py",
    "power/estimator/records.py",
)

#: The retry -> breaker -> quarantine ladder, where a swallowed error
#: silently degrades campaign results.
LADDER_PATHS = (
    "sim/resilience.py",
    "sim/campaign.py",
    "sim/parallel.py",
    "store/",
)

#: Lock-owning modules in scope for RPR203.
LOCK_PATHS = (
    "sim/resilience.py",
    "store/store.py",
)

#: report(rule, path, line, col, message) — bound by the deep driver.
Reporter = Callable[[Rule, str, int, int, str], None]


def _in_scope(path: str, fragments: Tuple[str, ...]) -> bool:
    normalized = path.replace(os.sep, "/")
    return any(fragment in normalized for fragment in fragments)


@register_rule
class TransitiveDeterminismRule(Rule):
    id = "RPR201"
    name = "transitive-determinism-taint"
    severity = Severity.ERROR
    description = (
        "a function in repro.core/engine/sim/check calls outside the "
        "fence into a helper whose effect closure reaches wall-clock "
        "time or the unseeded global RNG"
    )
    deep = True

    def check_deep(self, linked: LinkResult, report: Reporter) -> None:
        for qname, info in sorted(linked.functions.items()):
            if not _is_fenced(qname):
                continue
            path = info.get("path", "<unknown>")
            seen: set = set()
            for callee, line, col in linked.edges.get(qname, ()):
                if _is_fenced(callee):
                    continue  # the crossing reports inside the callee
                closure = linked.closure.get(callee, {})
                for effect in fx.DETERMINISM_EFFECTS:
                    if effect not in closure:
                        continue
                    if fx.determinism_barrier(callee, effect):
                        continue
                    key = (callee, line, effect)
                    if key in seen:
                        continue
                    seen.add(key)
                    chain = " -> ".join(
                        fx.origin_chain(linked.closure, callee, effect)
                    )
                    report(
                        self, path, line, col,
                        (
                            f"fenced {_short(qname)} calls "
                            f"{_short(callee)} whose effect closure "
                            f"contains {effect} (via {chain})"
                        ),
                    )


def _is_fenced(qname: str) -> bool:
    return any(
        qname == pkg or qname.startswith(pkg + ".")
        for pkg in DETERMINISM_PACKAGES
    )


def _short(qname: str) -> str:
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qname


class _CandidateRule(Rule):
    """Base for rules whose findings are pre-computed flow candidates."""

    deep = True
    scope: Tuple[str, ...] = ()

    def check_deep(self, linked: LinkResult, report: Reporter) -> None:
        for path, summary in sorted(linked.summaries.items()):
            if self.scope and not _in_scope(path, self.scope):
                continue
            for candidate in summary.candidates:
                if candidate["rule"] != self.id:
                    continue
                if self._discharged(candidate, linked):
                    continue
                report(
                    self, path, candidate["line"], candidate["col"] + 1,
                    candidate["message"],
                )

    def _discharged(
        self, candidate: Dict[str, Any], linked: LinkResult
    ) -> bool:
        """A candidate is discharged when a callee in its window
        provides one of the wanted effects (e.g. the helper that does
        the fsync, or the delegate that re-raises)."""
        wanted: List[str] = candidate.get("discharge_effects") or []
        if not wanted:
            return False
        for kind, name in candidate.get("discharge", ()):
            target = None
            if kind == "project":
                target = linked.resolve_guess(name)
            elif kind == "self" and candidate.get("class"):
                target = linked.resolve_method(candidate["class"], name)
            if target is None:
                continue
            closure = linked.closure.get(target, {})
            for want in wanted:
                if want == "raises:*":
                    if any(
                        fx.is_raise_effect(effect)
                        and _classified_raise(effect)
                        for effect in closure
                    ):
                        return True
                elif want in closure:
                    return True
        return False


def _classified_raise(effect: str) -> bool:
    name = effect[len("raises:"):]
    return name in REPRO_ERROR_NAMES or name == "<reraise>"


@register_rule
class DurabilityDisciplineRule(_CandidateRule):
    id = "RPR202"
    name = "durability-fsync-before-replace"
    severity = Severity.ERROR
    description = (
        "a written file reaches os.replace with no os.fsync between "
        "write and rename in a durability-critical path"
    )
    scope = DURABILITY_PATHS


@register_rule
class LockSetRule(_CandidateRule):
    id = "RPR203"
    name = "lock-set-violation"
    severity = Severity.ERROR
    description = (
        "an attribute is mutated both under `with self._lock` and "
        "outside it (helpers whose every call site holds the lock are "
        "exempt)"
    )
    scope = LOCK_PATHS


@register_rule
class UnclosedResourceRule(_CandidateRule):
    id = "RPR204"
    name = "unclosed-resource"
    severity = Severity.ERROR
    description = (
        "an open() handle in a durability path escapes without "
        "with/close/ownership transfer"
    )
    scope = DURABILITY_PATHS


@register_rule
class SilentDegradationRule(_CandidateRule):
    id = "RPR205"
    name = "silent-degradation"
    severity = Severity.ERROR
    description = (
        "an except handler on the retry/breaker/quarantine ladder "
        "neither re-raises a classified error nor emits a warning.* "
        "metric"
    )
    scope = LADDER_PATHS
