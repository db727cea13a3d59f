"""Fault plans and the environment hook that delivers them.

A :class:`FaultPlan` is a tuple of :class:`FaultSpec` rules.  Each rule
names an injection *site* — ``"worker"``, consulted once per benchmark
attempt inside the campaign worker, or ``"store.commit"``, consulted by
every :func:`repro.store.durable.atomic_write` between its fsync and
its rename (result-store entries carry their benchmark; index
compaction and the lint cache carry none) — an optional benchmark
filter, and the attempt range it fires on — so a *transient* fault can
fail attempt 1 and let the retry succeed, while a *permanent* crash
uses a large ``until_attempt`` to defeat every retry.

Plans travel through the ``REPRO_FAULTS`` environment variable as JSON
(campaign workers are separate processes; the environment is the one
channel that reaches them regardless of start method), e.g.::

    REPRO_FAULTS='[{"kind": "transient", "benchmark": "mcf"}]'

Fault kinds:

``transient``
    Raise :class:`InjectedFaultError` (a retryable
    :class:`SimulationError`).
``crash``
    ``os._exit(exit_code)`` — the hard-death shape of SIGKILL/OOM; no
    exception crosses the process boundary.
``hang``
    Sleep ``seconds`` (default: effectively forever) so the worker
    timeout has something to kill.
``freeze``
    ``SIGSTOP`` the current process — a *frozen* worker (stopped, not
    computing), the failure shape worker heartbeats detect long before
    the wall-clock budget expires.  Note SIGTERM stays pending on a
    stopped process; the supervisor's SIGKILL escalation is what
    actually reaps it.
``delay``
    Sleep ``seconds`` then continue normally — for scheduling-
    determinism tests that need one benchmark to finish last.

Everything is deterministic: a rule either fires on a given
(site, benchmark, attempt) or it does not; there is no probabilistic
mode, because flaky tests are exactly what this package exists to
prevent.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "ENV_VAR",
    "KINDS",
    "InjectedFaultError",
    "FaultSpec",
    "FaultPlan",
    "active_plan",
    "maybe_inject",
    "inject",
]

ENV_VAR = "REPRO_FAULTS"
KINDS = ("transient", "crash", "hang", "freeze", "delay")

#: Default hang long enough that any sane worker timeout fires first.
_HANG_FOREVER_S = 3600.0


class InjectedFaultError(SimulationError):
    """A transient fault raised on purpose by the injection harness."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    Attributes:
        kind: one of :data:`KINDS`.
        benchmark: only fire for this benchmark (None = all).
        site: injection point; campaign workers consult ``"worker"``,
            atomic durable writes ``"store.commit"``.
        until_attempt: fire while ``attempt <= until_attempt``.  The
            default 1 makes transient faults heal on the first retry;
            a large value makes the fault permanent.
        seconds: sleep duration for ``hang``/``delay``.
        exit_code: process exit code for ``crash``.
    """

    kind: str
    benchmark: Optional[str] = None
    site: str = "worker"
    until_attempt: int = 1
    seconds: float = _HANG_FOREVER_S
    exit_code: int = 23

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {list(KINDS)}"
            )
        if self.until_attempt < 1:
            raise ConfigurationError(
                f"until_attempt must be >= 1, got {self.until_attempt}"
            )
        if self.seconds < 0:
            raise ConfigurationError(
                f"seconds must be non-negative, got {self.seconds}"
            )

    def matches(self, site: str, benchmark: Optional[str], attempt: int) -> bool:
        if self.site != site:
            return False
        if self.benchmark is not None and self.benchmark != benchmark:
            return False
        return attempt <= self.until_attempt

    def fire(self, benchmark: Optional[str], attempt: int) -> None:
        """Perform the fault.  May not return (crash/hang)."""
        if self.kind == "crash":
            os._exit(self.exit_code)
        if self.kind == "freeze":
            import signal

            os.kill(os.getpid(), signal.SIGSTOP)
            return
        if self.kind == "hang":
            time.sleep(self.seconds)
            return
        if self.kind == "delay":
            time.sleep(self.seconds)
            return
        raise InjectedFaultError(
            f"injected transient fault (benchmark={benchmark}, "
            f"attempt={attempt})"
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of injection rules."""

    specs: Tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    def to_json(self) -> str:
        return json.dumps([asdict(spec) for spec in self.specs])

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{ENV_VAR} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(raw, list):
            raise ConfigurationError(
                f"{ENV_VAR} must be a JSON list of fault specs"
            )
        specs = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"{ENV_VAR}: each fault spec must be an object, "
                    f"got {entry!r}"
                )
            try:
                specs.append(FaultSpec(**entry))
            except TypeError as exc:
                raise ConfigurationError(
                    f"{ENV_VAR}: bad fault spec {entry!r}: {exc}"
                ) from exc
        return cls(specs=tuple(specs))

    def fire_matching(
        self, site: str, benchmark: Optional[str], attempt: int
    ) -> None:
        for spec in self.specs:
            if spec.matches(site, benchmark, attempt):
                spec.fire(benchmark, attempt)


# The parse result is cached against the raw env string: the worker
# hot path then costs one os.environ lookup + one string compare.
_cache_text: Optional[str] = None
_cache_plan: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan installed via ``REPRO_FAULTS`` (None when absent)."""
    global _cache_text, _cache_plan
    text = os.environ.get(ENV_VAR)
    if not text:
        return None
    if text != _cache_text:
        _cache_plan = FaultPlan.parse(text)
        _cache_text = text
    return _cache_plan


def maybe_inject(
    site: str, benchmark: Optional[str] = None, attempt: int = 1
) -> None:
    """Injection call site: fires any matching rule, else no-op."""
    plan = active_plan()
    if plan is not None:
        plan.fire_matching(site, benchmark, attempt)


@contextmanager
def inject(*specs: FaultSpec) -> Iterator[FaultPlan]:
    """Install a plan for a ``with`` block (restores ``REPRO_FAULTS``).

    The environment variable — not process memory — carries the plan,
    so campaign workers forked/spawned inside the block inherit it.
    """
    plan = FaultPlan(specs=tuple(specs))
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = plan.to_json()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
