"""Interval snapshots: windowed time series over a simulation run.

The paper's methodology is built on per-interval access-frequency
accounting (its Figures 3-11 all average over execution windows); this
module recovers that view.  An :class:`IntervalSampler` is ticked once
per request by an instrumented controller and, every ``window``
requests, snapshots the *deltas* of the controller's cumulative
counters — array accesses, hits/misses — plus the instantaneous
Set-Buffer occupancy.  The result is a per-technique time series
showing *when* WG/WG+RB earn their reduction, not just the final total.

Snapshots are plain dataclasses; ``repro.analysis.export.
snapshots_to_csv`` writes them out, and the ``repro-8t profile``
subcommand prints a condensed view.

One sampler can serve several sequential runs (compare/campaign replay
the trace once per technique): state is keyed by controller name, and a
cumulative-counter decrease (a ``reset_measurements`` between warm-up
and measurement) re-baselines that technique's window instead of
producing negative deltas.  A technique's tick count therefore carries
across warm-up, the reset and campaign rows: a window may straddle any
of them.

Engines that process requests in blocks (the columnar engine) ask
:meth:`IntervalSampler.remaining` how far the next window boundary is,
stop their block there, and account it with one
:meth:`IntervalSampler.advance` — so every snapshot is taken after the
same request, over the same cumulative counters, as with per-request
:meth:`IntervalSampler.tick` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ValidationError
from repro.utils.validation import check_positive

__all__ = ["IntervalSnapshot", "IntervalSampler"]

#: Default requests per window — fine enough to see warm-up transients
#: on the repo's default 20k-60k traces, coarse enough to stay cheap.
DEFAULT_WINDOW = 1_000


@dataclass(frozen=True)
class IntervalSnapshot:
    """Deltas over one window of ``window_size`` requests."""

    label: str
    window_index: int
    end_request: int
    window_size: int
    array_accesses: int
    hits: int
    misses: int
    set_buffer_occupancy: int

    @property
    def miss_rate(self) -> float:
        handled = self.hits + self.misses
        return self.misses / handled if handled else 0.0

    @property
    def accesses_per_request(self) -> float:
        return self.array_accesses / self.window_size if self.window_size else 0.0


class _LabelState:
    __slots__ = ("ticks", "windows", "last_accesses", "last_hits", "last_misses")

    def __init__(self) -> None:
        self.ticks = 0
        self.windows = 0
        self.last_accesses = 0
        self.last_hits = 0
        self.last_misses = 0


class IntervalSampler:
    """Per-N-request snapshot recorder, keyed by controller name."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        check_positive("window", window)
        self.window = window
        self.snapshots: List[IntervalSnapshot] = []
        self._states: Dict[str, _LabelState] = {}

    def tick(self, controller) -> None:
        """Advance one request; snapshot when a window closes.

        The fast path (mid-window) is one dict lookup and an integer
        increment; cumulative counters are only read at boundaries.
        """
        state = self._states.get(controller.name)
        if state is None:
            state = self._states[controller.name] = _LabelState()
        state.ticks += 1
        if state.ticks % self.window == 0:
            self._snapshot(controller, state)

    def remaining(self, label: str) -> int:
        """Requests ``label`` may still process before its next snapshot."""
        state = self._states.get(label)
        ticks = state.ticks if state is not None else 0
        return self.window - ticks % self.window

    def advance(self, controller, count: int) -> None:
        """Account ``count`` already-processed requests in one step.

        Identical to ``count`` :meth:`tick` calls when at most the last
        of them closes a window, which ``count <= remaining(name)``
        guarantees; a larger count would skip a snapshot and is refused.
        """
        state = self._states.get(controller.name)
        if state is None:
            state = self._states[controller.name] = _LabelState()
        left = self.window - state.ticks % self.window
        if not 0 < count <= left:
            raise ValidationError(
                f"cannot advance {controller.name!r} by {count} request(s): "
                f"its window closes in {left}"
            )
        state.ticks += count
        if state.ticks % self.window == 0:
            self._snapshot(controller, state)

    # -- internals -----------------------------------------------------------

    def _snapshot(self, controller, state: _LabelState) -> None:
        accesses = controller.events.array_accesses
        stats = controller.cache.stats
        hits, misses = stats.hits, stats.misses
        if (
            accesses < state.last_accesses
            or hits < state.last_hits
            or misses < state.last_misses
        ):
            # Counters went backwards: reset_measurements() ran between
            # windows (warm-up -> measure).  Re-baseline silently.
            state.last_accesses = state.last_hits = state.last_misses = 0
        self.snapshots.append(
            IntervalSnapshot(
                label=controller.name,
                window_index=state.windows,
                end_request=state.ticks,
                window_size=self.window,
                array_accesses=accesses - state.last_accesses,
                hits=hits - state.last_hits,
                misses=misses - state.last_misses,
                set_buffer_occupancy=controller.set_buffer_occupancy(),
            )
        )
        state.windows += 1
        state.last_accesses = accesses
        state.last_hits = hits
        state.last_misses = misses

    # -- read-out ------------------------------------------------------------

    def series(self, label: str) -> List[IntervalSnapshot]:
        """Snapshots for one technique, in window order."""
        return [snap for snap in self.snapshots if snap.label == label]

    def labels(self) -> List[str]:
        return sorted({snap.label for snap in self.snapshots})

    def __len__(self) -> int:
        return len(self.snapshots)
