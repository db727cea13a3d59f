"""LRU index journal: replay, recency, compaction, reconciliation."""

import json
import multiprocessing
import os
import string
import sys

from repro.store import StoreIndex
from repro.store.index import _COMPACT_FACTOR, _COMPACT_SLACK


def test_put_touch_evict_lru_order(tmp_path):
    index = StoreIndex(tmp_path / "index.jsonl")
    index.put("a", 10)
    index.put("b", 20)
    index.put("c", 30)
    index.touch("a")  # a is now most recent
    assert list(index.lru_order()) == ["b", "c", "a"]
    index.evict("b")
    assert "b" not in index
    assert len(index) == 2
    assert index.total_bytes() == 40
    assert index.size_of("c") == 30


def test_replay_restores_state(tmp_path):
    path = tmp_path / "index.jsonl"
    index = StoreIndex(path)
    index.put("a", 10)
    index.put("b", 20)
    index.touch("a")
    index.remove("b")
    replayed = StoreIndex(path)
    assert list(replayed.lru_order()) == ["a"]
    assert replayed.total_bytes() == 10
    assert replayed.skipped_lines == 0


def test_torn_trailing_line_skipped_and_healed(tmp_path):
    path = tmp_path / "index.jsonl"
    index = StoreIndex(path)
    index.put("a", 10)
    index.put("b", 20)
    with path.open("a") as handle:
        handle.write('{"op": "put", "key": "c"')  # torn mid-record
    replayed = StoreIndex(path)
    assert replayed.skipped_lines == 1
    assert sorted(replayed.lru_order()) == ["a", "b"]
    # The skip triggered a rewrite: a third replay sees a clean file.
    assert StoreIndex(path).skipped_lines == 0


def test_foreign_header_rebuilds_from_ops(tmp_path):
    path = tmp_path / "index.jsonl"
    lines = [
        json.dumps({"format": "something-else", "version": 9}),
        json.dumps({"op": "put", "key": "a", "size": 5}),
    ]
    path.write_text("\n".join(lines) + "\n")
    index = StoreIndex(path)
    assert list(index.lru_order()) == ["a"]
    assert index.skipped_lines >= 1


def test_missing_file_is_created(tmp_path):
    path = tmp_path / "index.jsonl"
    StoreIndex(path)
    assert path.exists()
    header = json.loads(path.read_text().splitlines()[0])
    assert header["format"] == "repro8t-store-index"


def test_compaction_bounds_journal_growth(tmp_path):
    path = tmp_path / "index.jsonl"
    index = StoreIndex(path)
    index.put("a", 1)
    for _ in range(10 * (_COMPACT_FACTOR + _COMPACT_SLACK)):
        index.touch("a")
    lines = path.read_text().splitlines()
    assert len(lines) <= 1 * _COMPACT_FACTOR + _COMPACT_SLACK + 1
    assert list(StoreIndex(path).lru_order()) == ["a"]


def test_reconcile_adopts_and_drops(tmp_path):
    index = StoreIndex(tmp_path / "index.jsonl")
    index.put("gone", 10)
    index.put("kept", 20)
    dropped, adopted = index.reconcile({"kept": 20, "orphan": 30})
    assert (dropped, adopted) == (1, 1)
    assert sorted(index.lru_order()) == ["kept", "orphan"]
    assert index.size_of("orphan") == 30


def test_deleting_index_loses_only_lru_order(tmp_path):
    path = tmp_path / "index.jsonl"
    index = StoreIndex(path)
    index.put("a", 10)
    path.unlink()
    rebuilt = StoreIndex(path)
    assert len(rebuilt) == 0
    dropped, adopted = rebuilt.reconcile({"a": 10})
    assert (dropped, adopted) == (0, 1)
    assert list(rebuilt.lru_order()) == ["a"]


def _counting_fsyncs(monkeypatch):
    calls = []
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd) or fsync(fd))
    return calls


class TestBatch:
    """Touches inside a batch reach the journal in one append."""

    def filled(self, path, keys="abcde"):
        index = StoreIndex(path)
        for size, key in enumerate(keys, start=1):
            index.put(key, size)
        return index

    def test_one_fsync_per_batch_whatever_the_touches(self, tmp_path, monkeypatch):
        keys = string.ascii_lowercase
        index = self.filled(tmp_path / "index.jsonl", keys)
        calls = _counting_fsyncs(monkeypatch)
        for touches in (1, 3, 60):  # 90 lines in all: no compaction
            del calls[:]
            with index.batch():
                for n in range(touches):
                    index.touch(keys[n % len(keys)])
            assert len(calls) == 1

    def test_an_empty_batch_writes_nothing(self, tmp_path, monkeypatch):
        index = self.filled(tmp_path / "index.jsonl")
        calls = _counting_fsyncs(monkeypatch)
        with index.batch():
            index.touch("missing")
        assert calls == []

    def test_put_after_three_hits_replays_like_the_unbatched_sequence(
        self, tmp_path
    ):
        def sequence(index):
            for key in ("a", "c", "b"):
                index.touch(key)
            index.put("f", 6)
            index.touch("d")

        plain = self.filled(tmp_path / "plain.jsonl")
        sequence(plain)
        batched = self.filled(tmp_path / "batched.jsonl")
        with batched.batch():
            sequence(batched)
        expected = list(plain.lru_order())
        assert list(batched.lru_order()) == expected
        replayed = StoreIndex(tmp_path / "batched.jsonl")
        assert list(replayed.lru_order()) == expected
        assert list(StoreIndex(tmp_path / "plain.jsonl").lru_order()) == expected
        assert replayed.skipped_lines == 0

    def test_the_put_carries_the_queued_touches(self, tmp_path, monkeypatch):
        index = self.filled(tmp_path / "index.jsonl")
        calls = _counting_fsyncs(monkeypatch)
        with index.batch():
            index.touch("a")
            index.touch("b")
            index.remove("c")
            assert len(calls) == 1
            tail = index.path.read_text().splitlines()[-3:]
            ops = [json.loads(line)["op"] for line in tail]
            assert ops == ["touch", "touch", "remove"]
        assert len(calls) == 1

    def test_the_batch_is_written_on_an_exception(self, tmp_path):
        index = self.filled(tmp_path / "index.jsonl")
        try:
            with index.batch():
                index.touch("a")
                raise KeyError("boom")
        except KeyError:
            pass
        assert list(StoreIndex(index.path).lru_order())[-1] == "a"

    def test_a_nested_batch_joins_the_outer_one(self, tmp_path, monkeypatch):
        index = self.filled(tmp_path / "index.jsonl")
        calls = _counting_fsyncs(monkeypatch)
        with index.batch():
            with index.batch():
                index.touch("a")
            assert calls == []
            index.touch("b")
        assert len(calls) == 1
        assert list(StoreIndex(index.path).lru_order())[-2:] == ["a", "b"]

    def test_compaction_inside_a_batch_keeps_the_recency(self, tmp_path):
        path = tmp_path / "index.jsonl"
        index = self.filled(path, keys="ab")
        with index.batch():
            for _ in range(2 * (2 * _COMPACT_FACTOR + _COMPACT_SLACK)):
                index.touch("a")
            index.touch("b")
            index.touch("a")
        lines = path.read_text().splitlines()
        assert len(lines) <= 2 * _COMPACT_FACTOR + _COMPACT_SLACK + 1
        assert list(StoreIndex(path).lru_order()) == ["b", "a"]

    def test_a_crash_inside_a_batch_loses_recency_only(self, tmp_path):
        path = tmp_path / "index.jsonl"
        self.filled(path)
        ctx = multiprocessing.get_context(
            "fork" if sys.platform != "win32" else "spawn"
        )
        child = ctx.Process(target=_touch_then_die, args=(path,))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 7
        replayed = StoreIndex(path)
        assert sorted(replayed.lru_order()) == list("abcdef")
        assert replayed.skipped_lines == 0
        # The touches queued after the put never reached the journal.
        assert list(replayed.lru_order()) == list("bcdeaf")


def _touch_then_die(path):
    index = StoreIndex(path)
    with index.batch():
        index.touch("a")
        index.put("f", 6)
        index.touch("b")
        index.touch("c")
        os._exit(7)
