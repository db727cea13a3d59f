"""Campaign tests: clean runs, injected bugs, shrinking, corpus replay.

The injected-bug tests are the acceptance criterion for the whole
subsystem: a deliberate off-by-one planted in the columnar WG kernel
must be *caught* by the differential campaign and *shrunk* to a repro
of at most 32 accesses.  The kernel runs single-entry buffer pools
only, so a planted kernel bug reaches exactly the fuzz cases with
``entries == 1``.
"""

import pytest

from repro.check.campaign import replay_corpus, run_check_campaign
from repro.check.corpus import CorpusEntry, iter_corpus, load_entry, save_entry
from repro.check.differential import run_differential
from repro.check.fuzz import TraceFuzzer
from repro.core.registry import CONTROLLER_NAMES
from repro.engine import columnar
from repro.errors import TraceFormatError
from repro.perf import derive


class TestCleanCampaign:
    def test_small_campaign_passes(self):
        report = run_check_campaign(seed=0, iterations=6, max_accesses=120)
        assert report.ok
        assert report.cases_run == 6 * len(CONTROLLER_NAMES)
        assert report.accesses_checked > 0
        assert set(report.scenario_cases) == {
            "mixed",
            "write_runs",
            "silent_dirty",
            "buffered_reads",
            "eviction_storm",
            "way_alias",
        }

    def test_campaign_is_deterministic(self):
        a = run_check_campaign(seed=7, iterations=4, max_accesses=80)
        b = run_check_campaign(seed=7, iterations=4, max_accesses=80)
        assert a.accesses_checked == b.accesses_checked
        assert a.scenario_cases == b.scenario_cases

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError, match="cannot model"):
            run_check_campaign(iterations=1, techniques=("warp-drive",))

    def test_summary_mentions_status(self):
        report = run_check_campaign(seed=0, iterations=2, max_accesses=60)
        assert "OK" in report.summary()


class _CounterOffByOne:
    """Deliberate bug: the columnar WG kernel overcounts grouped writes."""

    def __init__(self):
        self._original = columnar._process_chunk_wg

    def __enter__(self):
        original = self._original

        def buggy(controller, chunk, codes):
            original(controller, chunk, codes)
            controller.counts.grouped_writes += 1

        columnar._process_chunk_wg = buggy
        return self

    def __exit__(self, *exc):
        columnar._process_chunk_wg = self._original
        return False


class _LostWritebackAlias:
    """Deliberate bug: drop one buffered modification per kernel call.

    A realistic data-plane bug (not just a counter): the columnar WG
    kernel 'forgets' one modified word, so a grouped write-back silently
    loses data and the final memory image diverges from the oracle and
    the scalar path.
    """

    def __init__(self):
        self._original = columnar._process_chunk_wg

    def __enter__(self):
        original = self._original

        def buggy(controller, chunk, codes):
            original(controller, chunk, codes)
            for entry in controller.buffer_entries:
                modified = entry.set_buffer._modified  # noqa: SLF001
                if len(modified) > 1:
                    modified.pop()
                    break

        columnar._process_chunk_wg = buggy
        return self

    def __exit__(self, *exc):
        columnar._process_chunk_wg = self._original
        return False


class _DroppedMiss:
    """Deliberate bug: the tag walk forgets the last miss of each slice.

    RMW's derived counts never read the trail, so before the trail leg
    this bug showed only where WG's plane or the statistics used it.
    """

    def __init__(self):
        self._original = derive._TagDirectory.walk

    def __enter__(self):
        original = self._original

        def buggy(directory, sets, tags, kinds, start, missed):
            evicted = original(directory, sets, tags, kinds, start, missed)
            marked = missed[start : start + len(sets)].nonzero()[0]
            if len(marked):
                missed[start + marked[-1]] = False
            return evicted

        derive._TagDirectory.walk = buggy
        return self

    def __exit__(self, *exc):
        derive._TagDirectory.walk = self._original
        return False


class TestInjectedBugs:
    def test_counter_off_by_one_caught_and_shrunk(self):
        """Acceptance criterion: caught, and shrunk to <= 32 accesses."""
        with _CounterOffByOne():
            report = run_check_campaign(
                seed=0, iterations=4, techniques=("wg",), max_accesses=300
            )
        assert not report.ok
        # The kernel bug reaches exactly the single-entry cases.
        fuzzer = TraceFuzzer(seed=0, max_accesses=300)
        assert [f.iteration for f in report.failures] == [
            i for i in range(4) if fuzzer.case(i).entries == 1
        ]
        for failure in report.failures:
            assert failure.technique == "wg"
            assert any(
                "grouped_writes" in d for d in failure.divergences
            )
            assert len(failure.trace) <= 32
            assert len(failure.trace) <= failure.original_length

    def test_lost_writeback_caught(self):
        with _LostWritebackAlias():
            report = run_check_campaign(
                seed=0,
                iterations=6,
                techniques=("wg",),
                max_accesses=300,
                shrink=False,
            )
        assert not report.ok
        # A dropped modification must surface as a data/counter diff,
        # not slip through as a pure perf difference.
        assert any(
            "memory" in d or "events" in d or "counts" in d
            for failure in report.failures
            for d in failure.divergences
        )

    def test_wrong_miss_trail_named(self):
        with _DroppedMiss():
            report = run_check_campaign(
                seed=0,
                iterations=3,
                techniques=("rmw",),
                max_accesses=200,
                shrink=False,
            )
        assert not report.ok
        for failure in report.failures:
            assert any(
                d.startswith("scalar-vs-walk miss trail:")
                for d in failure.divergences
            )

    def test_no_shrink_keeps_original_trace(self):
        with _CounterOffByOne():
            report = run_check_campaign(
                seed=0,
                iterations=2,
                techniques=("wg",),
                max_accesses=200,
                shrink=False,
            )
        failure = report.failures[0]
        assert len(failure.trace) == failure.original_length

    def test_failure_describe_is_replayable(self):
        with _CounterOffByOne():
            report = run_check_campaign(
                seed=0, iterations=2, techniques=("wg",), max_accesses=200
            )
        text = report.failures[0].describe()
        assert "wg" in text
        assert "seed 0" in text
        assert "shrunk to" in text


class TestCorpus:
    def test_roundtrip(self, tmp_path):
        case = TraceFuzzer(seed=3).case(1)
        entry = CorpusEntry(
            technique="wg_rb",
            geometry=case.geometry,
            trace=case.trace,
            batch_size=case.batch_size,
            knobs=case.knobs(),
            scenario=case.scenario,
            seed=3,
            iteration=1,
            divergences=["example divergence"],
        )
        path = save_entry(tmp_path, entry)
        loaded = load_entry(path)
        assert loaded.technique == entry.technique
        assert loaded.geometry == entry.geometry
        assert loaded.trace == entry.trace
        assert loaded.batch_size == entry.batch_size
        assert loaded.knobs == entry.knobs
        assert loaded.divergences == entry.divergences

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "technique": "wg"}')
        with pytest.raises(TraceFormatError, match="malformed"):
            load_entry(path)

    def test_unreadable_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(TraceFormatError, match="unreadable"):
            load_entry(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(TraceFormatError, match="version"):
            load_entry(path)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="does not exist"):
            list(iter_corpus(tmp_path / "nope"))


class TestReplay:
    def test_saved_failures_replay_and_pass_once_fixed(self, tmp_path):
        corpus = tmp_path / "corpus"
        with _CounterOffByOne():
            campaign = run_check_campaign(
                seed=0,
                iterations=2,
                techniques=("wg",),
                max_accesses=200,
                corpus_dir=str(corpus),
            )
            assert not campaign.ok
            assert all(f.corpus_path is not None for f in campaign.failures)
            # Bug still present: every saved repro still diverges.
            broken = replay_corpus(str(corpus))
            assert len(broken.failures) == len(campaign.failures)
        # Bug 'fixed' (patch removed): the same corpus must go green.
        fixed = replay_corpus(str(corpus))
        assert fixed.ok
        assert fixed.cases_run == len(campaign.failures)
        assert fixed.techniques == ("wg",)

    def test_replay_checks_shrunk_not_original(self, tmp_path):
        corpus = tmp_path / "corpus"
        with _CounterOffByOne():
            run_check_campaign(
                seed=0,
                iterations=3,
                techniques=("wg",),
                max_accesses=300,
                corpus_dir=str(corpus),
            )
        entries = list(iter_corpus(str(corpus)))
        assert entries
        assert all(len(entry.trace) <= 32 for entry in entries)


class TestDifferentialDirect:
    """run_differential as a library call (what the tests above build on)."""

    @pytest.mark.parametrize("technique", CONTROLLER_NAMES)
    def test_clean_on_fuzzed_case(self, technique):
        case = TraceFuzzer(seed=9).case(2)
        divergences = run_differential(
            case.trace,
            technique,
            case.geometry,
            batch_size=case.batch_size,
            invariants=True,
            **case.knobs(),
        )
        assert divergences == []

    def test_empty_trace_clean(self, tiny_geometry):
        assert run_differential([], "wg", tiny_geometry) == []
