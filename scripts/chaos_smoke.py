"""Chaos smoke: a campaign survives crashes and store corruption.

Not part of the library — the CI chaos gate (see `.github/workflows/
ci.yml`, job `chaos-smoke`).  It runs the same small campaign three
ways and demands bit-identical rows every time:

1. **Clean sequential** — the reference result, one simulator per
   technique.  The same run inside a memo scope, where every row comes
   from one conventional traversal (`repro.perf.derive.derive_row`),
   must equal it.
2. **Chaotic parallel** — supervised workers with injected crashes and
   transient faults (`REPRO_FAULTS`), writing a `--result-cache`.
3. **Poisoned warm rerun** — the store is damaged with one corruptor
   per validation layer (torn entry, bad CRC, version skew); the rerun,
   inside a memo scope, must quarantine the damage and recompute it
   from one traversal per row, serve the rest from the store, and
   still match the reference.

Artifacts (health reports, store stats, the quarantine directory) land
in `--out` for upload on failure.  Each run starts by removing
`--out`'s `result-cache`, so phase 2 always writes a cold store and
phase 3 corrupts only entries this run wrote, also on a second run
into the same `--out` after the code changed.  Exit 0 on success, 1 on any
divergence or health-accounting violation.

Run: PYTHONPATH=src python scripts/chaos_smoke.py [--out DIR]
"""

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.faultinject import (  # noqa: E402
    FaultSpec,
    corrupt_entry_crc,
    inject,
    skew_entry_code,
    tear_entry,
)
from repro.sim.campaign import run_campaign, serialize_row  # noqa: E402
from repro.sim.experiment import ExperimentConfig  # noqa: E402
from repro.sim.resilience import RetryPolicy  # noqa: E402
from repro.store import ResultStore  # noqa: E402
from repro.utils.memo import memo_scope, scope_memo  # noqa: E402

BENCHMARKS = ("bwaves", "gcc", "mcf", "milc")
CORRUPTORS = (tear_entry, corrupt_entry_crc, skew_entry_code)

_failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        _failures.append(what)


def rows_of(result) -> dict:
    return {row.benchmark: serialize_row(row) for row in result.rows}


def dump(out: Path, name: str, payload: dict) -> None:
    (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True))


def health_doc(result) -> dict:
    doc = dataclasses.asdict(result.health)
    doc["consistent"] = result.health.consistent
    doc["failed_rows"] = [f.describe() for f in result.failed_rows]
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="chaos-artifacts", metavar="DIR")
    parser.add_argument("--accesses", type=int, default=2_000)
    parser.add_argument("--processes", type=int, default=2)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache = out / "result-cache"
    shutil.rmtree(cache, ignore_errors=True)
    config = ExperimentConfig(
        benchmarks=BENCHMARKS,
        techniques=("conventional", "wg"),
        accesses_per_benchmark=args.accesses,
        seed=2012,
    )
    retry = RetryPolicy(
        max_attempts=3,
        base_delay_s=0.01,
        max_delay_s=0.05,
        worker_timeout_s=120.0,
        heartbeat_interval_s=2.0,
    )

    print("== phase 1: clean sequential reference ==")
    reference = run_campaign(config, retry=RetryPolicy.none())
    expected = rows_of(reference)
    dump(out, "health-reference.json", health_doc(reference))
    with memo_scope():
        derived = run_campaign(config, retry=RetryPolicy.none())
        traversals = len(scope_memo("sim.derived_rows"))
    check(rows_of(derived) == expected, "rows from one traversal == clean reference")
    check(
        traversals == len(BENCHMARKS),
        f"one traversal per row (got {traversals})",
    )

    print("== phase 2: chaotic parallel run, cold store ==")
    faults = (
        FaultSpec(kind="crash", benchmark="gcc", until_attempt=1),
        FaultSpec(kind="transient", benchmark="mcf", until_attempt=1),
    )
    with inject(*faults):
        chaotic = run_campaign(
            config,
            processes=args.processes,
            retry=retry,
            result_cache=cache,
        )
    dump(out, "health-chaotic.json", health_doc(chaotic))
    check(rows_of(chaotic) == expected, "chaotic rows == clean reference")
    check(chaotic.health.consistent, "chaotic health identity holds")
    check(not chaotic.failed_rows, "every benchmark healed via retry")

    print("== phase 3: corrupt the store, warm rerun ==")
    entries = sorted(ResultStore(cache).objects_dir.rglob("*.json"))
    check(len(entries) >= len(BENCHMARKS), "store holds the campaign rows")
    for corruptor, path in zip(CORRUPTORS, entries):
        corruptor(path)
        print(f"     corrupted {path.name} via {corruptor.__name__}")
    with memo_scope():
        rerun = run_campaign(config, retry=retry, result_cache=cache)
        traversals = len(scope_memo("sim.derived_rows"))
    store = ResultStore(cache)
    dump(out, "health-rerun.json", health_doc(rerun))
    dump(out, "store-stats.json", store.stats())
    if store.quarantine_dir.is_dir():
        shutil.copytree(
            store.quarantine_dir, out / "quarantine", dirs_exist_ok=True
        )

    check(rows_of(rerun) == expected, "poisoned warm rerun == clean reference")
    check(rerun.health.consistent, "rerun health identity holds")
    check(
        rerun.health.healed == len(CORRUPTORS),
        f"rerun healed exactly {len(CORRUPTORS)} corrupted entries "
        f"(got {rerun.health.healed})",
    )
    check(
        rerun.health.cached == rerun.health.total - len(CORRUPTORS),
        "undamaged rows all served from the store",
    )
    check(
        traversals == len(CORRUPTORS),
        f"healed rows recomputed from one traversal each (got {traversals})",
    )
    verify = store.verify()
    check(not verify["corrupt"], "store verifies clean after self-healing")

    if _failures:
        print(f"\nchaos smoke: {len(_failures)} FAILURE(S); see {out}/")
        return 1
    print(f"\nchaos smoke: OK (artifacts in {out}/)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
