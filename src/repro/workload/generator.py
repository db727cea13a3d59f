"""Synthetic trace generator.

Turns a :class:`WorkloadProfile` into a trace.  The generation loop:

1. pick a stream (weighted) and a geometric burst length
   (``burst_mean``) — within a burst all accesses come from that stream;
2. for each access choose read/write: repeat the previous kind with
   probability ``type_persistence``, otherwise redraw Bernoulli with the
   stream-biased write share (the stationary write share stays at the
   profile's value for unit bias);
3. take the stream pattern's next address;
4. advance the instruction counter by a geometric gap whose mean makes
   memory accesses land at ``memory_fraction`` per instruction;
5. for writes, draw the value from the :class:`ValueModel`, which
   produces silent stores at the calibrated rate.

Determinism: everything derives from ``(profile.name, seed)`` so two
runs — or two controllers replaying the same materialised trace — see
identical streams.  Each step draws from its own forked stream (streams,
types, addresses, gaps, values), in the order above.  The loop calls
each stream's bound primitives (:attr:`DeterministicRNG.draw`) with the
draw rules of :mod:`repro.utils.rng` and the address rules of
:mod:`repro.workload.patterns`, so it makes exactly the draws the
per-call methods would — the traces are the same bit for bit — and it
writes the four trace columns of a :class:`TraceColumns` instead of
building a record per access.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

from repro.trace.columns import TraceColumns
from repro.utils.memo import scope_memo
from repro.utils.rng import (
    DeterministicRNG,
    cumulative_weights,
    fixed_outcome,
    geometric_stop,
)
from repro.utils.validation import check_positive
from repro.workload.patterns import AddressPattern, make_pattern
from repro.workload.profile import WorkloadProfile
from repro.workload.values import ValueModel

__all__ = ["SyntheticTraceGenerator", "generate_trace"]

# Streams get disjoint 1 GiB-aligned base regions so their footprints
# never overlap (48-bit physical space leaves plenty of room).
_REGION_SPACING = 1 << 30


class SyntheticTraceGenerator:
    """Stateful generator for one profile."""

    def __init__(self, profile: WorkloadProfile, seed: int = 2012) -> None:
        self.profile = profile
        root = DeterministicRNG(seed).fork("workload", profile.name)
        self._stream_rng = root.fork("streams")
        self._type_rng = root.fork("types")
        self._gap_rng = root.fork("gaps")
        self._address_rng = root.fork("addresses")
        self._value_model = ValueModel(
            profile.silent_fraction, root.fork("values")
        )
        self._patterns: List[AddressPattern] = []
        self._weights: List[float] = []
        self._write_shares: List[float] = []
        base_write_share = profile.write_share
        for index, spec in enumerate(profile.streams):
            kwargs = {}
            if spec.kind == "strided":
                kwargs["stride_words"] = spec.stride_words
            elif spec.kind == "hotspot":
                kwargs["hot_words"] = spec.hot_words
                kwargs["hot_probability"] = spec.hot_probability
            pattern = make_pattern(
                spec.kind,
                base_address=(index + 1) * _REGION_SPACING,
                region_words=spec.region_words,
                **kwargs,
            )
            self._patterns.append(pattern)
            self._weights.append(spec.weight)
            self._write_shares.append(
                min(1.0, base_write_share * spec.write_bias)
            )
        self._icount = 0
        self._gap_mean = 1.0 / profile.memory_fraction

    @property
    def value_model(self) -> ValueModel:
        return self._value_model

    def generate(self, num_accesses: int) -> TraceColumns:
        """The next ``num_accesses`` accesses, as trace columns.

        Successive calls continue one trace: the instruction count,
        pattern positions, value memory and every random stream carry
        over (a burst cut short by the end of one call is not resumed).
        """
        check_positive("num_accesses", num_accesses)
        profile = self.profile
        draw_stream = self._stream_rng.draw
        draw_type = self._type_rng.draw
        draw_gap = self._gap_rng.draw
        cumulative, total = cumulative_weights(self._weights)
        last_stream = len(cumulative) - 1
        burst_stop = geometric_stop(profile.burst_mean)
        gap_stop = geometric_stop(self._gap_mean)
        persistence = profile.type_persistence
        persist_fixed = fixed_outcome(persistence)
        samplers = [
            pattern.sampler(self._address_rng) for pattern in self._patterns
        ]
        write_shares = self._write_shares
        write_fixed = [fixed_outcome(share) for share in write_shares]
        value_for_write = self._value_model.value_for_write
        icounts: List[int] = []
        kinds: List[bool] = []
        addresses: List[int] = []
        values: List[int] = []
        add_icount, add_kind = icounts.append, kinds.append
        add_address, add_value = addresses.append, values.append
        icount = self._icount
        produced = 0
        while produced < num_accesses:
            stream = bisect_right(
                cumulative, draw_stream() * total, 0, last_stream
            )
            next_address = samplers[stream]
            write_share = write_shares[stream]
            write_rule = write_fixed[stream]
            burst = 1
            if burst_stop is not None:
                while draw_stream() >= burst_stop:
                    burst += 1
            end = min(produced + burst, num_accesses)
            is_write = False
            for position in range(produced, end):
                # A burst's first access always draws its kind.
                if position == produced or not (
                    persist_fixed
                    if persist_fixed is not None
                    else draw_type() < persistence
                ):
                    is_write = (
                        write_rule
                        if write_rule is not None
                        else draw_type() < write_share
                    )
                address = next_address()
                gap = 1
                if gap_stop is not None:
                    while draw_gap() >= gap_stop:
                        gap += 1
                icount += gap
                add_icount(icount)
                add_kind(is_write)
                add_address(address)
                add_value(value_for_write(address) if is_write else 0)
            produced = end
        self._icount = icount
        return TraceColumns.from_lists(icounts, kinds, addresses, values)


def generate_trace(
    profile: WorkloadProfile, num_accesses: int, seed: int = 2012
) -> TraceColumns:
    """Materialise a full synthetic trace for ``profile``.

    The result is list-compatible (see :class:`TraceColumns`): it
    compares equal to the list of records it stands for and builds those
    records only when a consumer first asks for one.

    Inside a memo scope (:func:`repro.utils.memo.memo_scope`, which a
    report opens) every call with an equal ``(profile, num_accesses,
    seed)`` returns one shared trace with read-only columns; the scope's
    lifetime bounds what is kept.  Outside a scope every call returns a
    fresh, writable trace.
    """
    memo = scope_memo("workload.traces")
    key = (profile, num_accesses, seed)
    if memo is not None and key in memo:
        return memo[key]
    trace = SyntheticTraceGenerator(profile, seed=seed).generate(num_accesses)
    if memo is not None:
        memo[key] = trace.make_read_only()
    return trace
