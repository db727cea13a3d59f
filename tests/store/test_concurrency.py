"""Several writers on one result store, with no lock between them.

Per-entry atomic commits are what make sharing safe, so opening a store
must never delete a tempfile another writer is still committing, and
two processes running one campaign into one store must leave rows that
are bit-identical to a clean run and a store that verifies clean.
"""

import multiprocessing
import sys
import threading
import time

import pytest

from repro.faultinject import FaultSpec, inject
from repro.sim.campaign import run_campaign, serialize_row
from repro.sim.experiment import ExperimentConfig
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

CONFIG = ExperimentConfig(
    benchmarks=("bwaves", "gcc", "mcf"),
    techniques=("conventional", "wg"),
    accesses_per_benchmark=1500,
    seed=2012,
)


@pytest.fixture(autouse=True)
def no_leftover_fault_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


def payloads(result):
    return {row.benchmark: serialize_row(row) for row in result.rows}


def _bytes_on_disk(store):
    return sum(path.stat().st_size for path in store.objects_dir.rglob("*.json"))


def test_two_bounded_writers_stay_within_the_bound(tmp_path):
    bound = 2000
    writers = [ResultStore(tmp_path / "cache", max_bytes=bound) for _ in range(2)]
    sizes = set()
    for i in range(20):
        meta = dict(META, benchmark=f"b{i:02d}")
        writers[i % 2].put(digest(meta), meta, PAYLOAD)
        sizes.add(writers[i % 2].index.size_of(digest(meta)))
        assert _bytes_on_disk(writers[0]) <= bound
    # Unbounded, the twenty entries would fill twice the bound.
    assert 20 * min(sizes) > 1.5 * bound


def test_opening_a_store_keeps_a_live_writers_tempfile(tmp_path):
    root = tmp_path / "cache"
    writer = ResultStore(root)
    errors = []

    def put():
        try:
            writer.put(KEY, META, PAYLOAD, benchmark="mcf")
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    # The delay holds the put between its fsync and its rename.
    with inject(
        FaultSpec(kind="delay", benchmark="mcf", site="store.commit", seconds=1.5)
    ):
        thread = threading.Thread(target=put)
        thread.start()
        deadline = time.monotonic() + 30.0
        while not list(writer.objects_dir.rglob("*.tmp")):
            assert time.monotonic() < deadline, "the put never reached its window"
            time.sleep(0.005)
        ResultStore(root)  # a second opener, mid-commit
        thread.join(timeout=60)
    assert errors == []
    assert ResultStore(root).get(KEY, META) == PAYLOAD


def _campaign_into(root, queue):
    result = run_campaign(CONFIG, result_cache=root)
    queue.put(payloads(result))


def test_two_processes_share_one_store(tmp_path):
    clean = payloads(run_campaign(CONFIG))
    root = tmp_path / "cache"
    ctx = multiprocessing.get_context(
        "fork" if sys.platform != "win32" else "spawn"
    )
    queue = ctx.Queue()
    children = [
        ctx.Process(target=_campaign_into, args=(root, queue)) for _ in range(2)
    ]
    for child in children:
        child.start()
    results = [queue.get(timeout=120) for _ in children]
    for child in children:
        child.join(timeout=60)
        assert child.exitcode == 0
    assert results == [clean, clean]
    store = ResultStore(root)
    report = store.verify()
    assert report["corrupt"] == []
    assert report["checked"] == len(CONFIG.benchmarks)
    warm = run_campaign(CONFIG, result_cache=store)
    assert payloads(warm) == clean
    assert warm.health.cached == warm.health.total
