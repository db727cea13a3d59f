"""ResultStore behaviour: durability, self-healing, eviction, admin.

The crash-during-commit test runs ``put`` in a *child process* with a
``crash`` rule on the ``store.commit`` injection site — between the
tempfile fsync and the rename — so the parent can assert what a real
mid-commit death leaves behind (nothing visible, one sweepable
tempfile).
"""

import json
import multiprocessing
import shutil
import sys
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.faultinject import (
    FaultSpec,
    corrupt_entry_crc,
    inject,
    skew_entry_code,
    tear_entry,
)
from repro.store import ResultStore, digest

META = {
    "kind": "campaign-row",
    "benchmark": "mcf",
    "config": "c" * 16,
    "workload": "w" * 16,
    "code": "v" * 16,
}
PAYLOAD = {"reads": 7, "writes": 3}
KEY = digest(META)


def meta_for(benchmark, code="v" * 16):
    return dict(META, benchmark=benchmark, code=code)


@pytest.fixture(autouse=True)
def no_leftover_fault_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


def entry_path(store, key=KEY):
    return store.objects_dir / key[:2] / f"{key}.json"


# -- basic get/put -------------------------------------------------------


def test_miss_then_put_then_hit(store):
    events = []
    store.on_event = lambda name, **details: events.append(name)
    assert store.get(KEY, META, benchmark="mcf") is None
    store.put(KEY, META, PAYLOAD, benchmark="mcf")
    assert store.get(KEY, META, benchmark="mcf") == PAYLOAD
    assert events == ["store.miss", "store.hit"]
    assert store.counters["misses"] == 1
    assert store.counters["hits"] == 1
    assert store.counters["puts"] == 1


def test_persists_across_reopen(store, tmp_path):
    store.put(KEY, META, PAYLOAD)
    reopened = ResultStore(tmp_path / "cache")
    assert reopened.get(KEY, META) == PAYLOAD
    assert reopened.stats()["entries"] == 1


def test_rejects_file_as_root(tmp_path):
    rootfile = tmp_path / "not-a-dir"
    rootfile.write_text("x")
    with pytest.raises(StoreError):
        ResultStore(rootfile)


def test_rejects_nonpositive_bound(tmp_path):
    with pytest.raises(StoreError):
        ResultStore(tmp_path / "cache", max_bytes=0)


# -- self-healing reads --------------------------------------------------


@pytest.mark.parametrize(
    "corruptor, reason",
    [
        (tear_entry, "torn"),
        (corrupt_entry_crc, "crc"),
        (skew_entry_code, "skew"),
    ],
)
def test_corrupt_entry_quarantined_and_missed(store, corruptor, reason):
    store.put(KEY, META, PAYLOAD, benchmark="mcf")
    corruptor(entry_path(store))
    events = []
    store.on_event = lambda name, **details: events.append((name, details))
    assert store.get(KEY, META, benchmark="mcf") is None
    assert [name for name, _ in events] == ["store.corrupt", "store.miss"]
    assert events[0][1]["reason"] == reason
    assert store.counters["corrupt"] == 1
    quarantined = list(store.quarantine_dir.glob("*.json"))
    assert [p.name for p in quarantined] == [f"{KEY}.{reason}.json"]
    assert not entry_path(store).exists()
    # Self-healing: a re-put serves cleanly again.
    store.put(KEY, META, PAYLOAD, benchmark="mcf")
    assert store.get(KEY, META, benchmark="mcf") == PAYLOAD


def test_quarantine_name_collisions_get_serials(store):
    for _ in range(3):
        store.put(KEY, META, PAYLOAD)
        tear_entry(entry_path(store))
        assert store.get(KEY, META) is None
    names = sorted(p.name for p in store.quarantine_dir.glob("*.json"))
    assert names == [
        f"{KEY}.torn.1.json",
        f"{KEY}.torn.2.json",
        f"{KEY}.torn.json",
    ]


def test_renamed_entry_is_skew(store):
    """A hand-renamed object file must not be served under the new key."""
    store.put(KEY, META, PAYLOAD)
    other_meta = meta_for("gcc")
    other_key = digest(other_meta)
    target = entry_path(store, other_key)
    target.parent.mkdir(parents=True, exist_ok=True)
    entry_path(store).rename(target)
    assert store.get(other_key, other_meta) is None
    assert list(store.quarantine_dir.glob(f"{other_key}.skew*"))


# -- LRU eviction --------------------------------------------------------


def test_lru_eviction_under_byte_bound(tmp_path):
    store = ResultStore(tmp_path / "cache", max_bytes=1)  # evict all-but-one
    events = []
    store.on_event = lambda name, **details: events.append(name)
    first, second = meta_for("bwaves"), meta_for("gcc")
    store.put(digest(first), first, PAYLOAD)
    store.put(digest(second), second, PAYLOAD)
    assert events.count("store.evict") == 1
    assert store.counters["evictions"] == 1
    # The newest entry survives its own commit even over-budget.
    assert store.get(digest(second), second) == PAYLOAD
    assert store.get(digest(first), first) is None


def test_touch_protects_recently_read(tmp_path):
    metas = [meta_for(name) for name in ("bwaves", "gcc", "mcf")]
    store = ResultStore(tmp_path / "cache")
    for meta in metas:
        store.put(digest(meta), meta, PAYLOAD)
    size = store.index.size_of(digest(metas[0]))
    store.get(digest(metas[0]), metas[0])  # bwaves is now most recent
    store.max_bytes = 2 * size + 1
    newest = meta_for("milc")
    store.put(digest(newest), newest, PAYLOAD)
    survivors = {
        name
        for name in ("bwaves", "gcc", "mcf", "milc")
        if store.get(digest(meta_for(name)), meta_for(name)) is not None
    }
    assert survivors == {"bwaves", "milc"}


# -- crash during commit -------------------------------------------------


def _crashing_put(root):
    store = ResultStore(root)
    with inject(
        FaultSpec(kind="crash", benchmark="mcf", site="store.commit")
    ):
        store.put(KEY, META, PAYLOAD, benchmark="mcf")


def test_crash_during_commit_leaves_no_entry(tmp_path):
    root = tmp_path / "cache"
    ResultStore(root)  # create the layout up front
    ctx = multiprocessing.get_context(
        "fork" if sys.platform != "win32" else "spawn"
    )
    child = ctx.Process(target=_crashing_put, args=(root,))
    child.start()
    child.join(timeout=60)
    assert child.exitcode not in (0, None)  # the injected crash fired
    # The rename never happened: no visible entry, only a stray tmp.
    store = ResultStore(root)
    strays = list(store.objects_dir.rglob("*.tmp"))
    assert strays == []  # reopen swept the wreckage
    assert store.get(KEY, META) is None
    assert store.stats()["entries"] == 0
    # And the store still works.
    store.put(KEY, META, PAYLOAD)
    assert store.get(KEY, META) == PAYLOAD


# -- verify / gc / invalidate -------------------------------------------


def test_verify_clean_and_after_damage(store):
    metas = [meta_for(name) for name in ("bwaves", "gcc")]
    for meta in metas:
        store.put(digest(meta), meta, PAYLOAD)
    assert store.verify() == {"checked": 2, "ok": 2, "corrupt": []}
    tear_entry(entry_path(store, digest(metas[0])))
    report = store.verify()
    assert report["checked"] == 2 and report["ok"] == 1
    assert report["corrupt"] == [{"key": digest(metas[0]), "reason": "torn"}]
    # verify healed: the damage is quarantined, a rescan is clean.
    assert store.verify() == {"checked": 1, "ok": 1, "corrupt": []}


def test_gc_drops_other_code_versions(store, monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "v" * 16)
    stale = meta_for("gcc", code="0" * 16)
    store.put(KEY, META, PAYLOAD)
    store.put(digest(stale), stale, PAYLOAD)
    report = store.gc()
    assert report["removed"] == 1
    assert report["freed_bytes"] > 0
    assert store.get(KEY, META) == PAYLOAD
    assert store.get(digest(stale), stale) is None


def test_gc_prune_quarantine(store):
    store.put(KEY, META, PAYLOAD)
    tear_entry(entry_path(store))
    store.get(KEY, META)
    assert list(store.quarantine_dir.glob("*.json"))
    report = store.gc(prune_quarantine=True)
    assert report["quarantine_pruned"] == 1
    assert not list(store.quarantine_dir.glob("*.json"))


def test_invalidate_by_benchmark_and_kind(store):
    metas = [meta_for(name) for name in ("bwaves", "gcc")]
    verdict = dict(meta_for("bwaves"), kind="check-verdict")
    for meta in metas + [verdict]:
        store.put(digest(meta), meta, PAYLOAD)
    assert store.invalidate(benchmark="bwaves", kind="campaign-row") == {
        "removed": 1
    }
    assert store.get(digest(metas[0]), metas[0]) is None
    assert store.get(digest(verdict), verdict) == PAYLOAD
    assert store.invalidate(everything=True)["removed"] == 2
    assert store.stats()["entries"] == 0
    assert store.counters["invalidated"] == 3


def test_invalidate_without_selector_refuses(store):
    with pytest.raises(StoreError):
        store.invalidate()


def test_stats_shape(store):
    store.put(KEY, META, PAYLOAD)
    stats = store.stats()
    assert stats["entries"] == 1
    assert stats["total_bytes"] > 0
    assert stats["max_bytes"] is None
    assert stats["quarantined"] == 0
    assert stats["counters"]["puts"] == 1


def test_unreadable_root_warns_not_raises(tmp_path):
    """Index damage is healed, not fatal: journal deleted mid-life."""
    store = ResultStore(tmp_path / "cache")
    store.put(KEY, META, PAYLOAD)
    (tmp_path / "cache" / "index.jsonl").write_text("garbage\n")
    reopened = ResultStore(tmp_path / "cache")
    assert reopened.get(KEY, META) == PAYLOAD


def test_entry_file_is_single_json_document(store):
    store.put(KEY, META, PAYLOAD)
    document = json.loads(entry_path(store).read_text())
    assert document["key"] == KEY
    assert document["payload"] == PAYLOAD


# -- shard directories -----------------------------------------------------


def test_put_makes_each_shard_directory_once(store, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counting(path, *args, **kwargs):
        made.append(path)
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting)
    for _ in range(3):
        store.put(KEY, META, PAYLOAD)
    assert made == [entry_path(store).parent]


def test_put_recreates_a_shard_removed_behind_its_back(store):
    store.put(KEY, META, PAYLOAD)
    shutil.rmtree(entry_path(store).parent)
    store.put(KEY, META, dict(PAYLOAD, reads=8))
    assert store.get(KEY, META) == dict(PAYLOAD, reads=8)
    shutil.rmtree(store.objects_dir)
    store.put(KEY, META, PAYLOAD)
    assert store.get(KEY, META) == PAYLOAD
    assert store.counters["puts"] == 3
