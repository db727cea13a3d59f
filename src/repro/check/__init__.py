"""Correctness tooling: oracle, differential runner, fuzzer, shrinker.

``repro.check`` pins the semantics of the cache controllers from three
independent directions (see ``docs/correctness.md``):

* :mod:`repro.check.oracle` — a deliberately slow, dict-based
  functional model of each technique, written against the paper's
  algorithm descriptions rather than against ``repro.core``;
* :mod:`repro.check.differential` — replays one trace through oracle,
  scalar path, and columnar engine and diffs every observable;
* :mod:`repro.check.fuzz` + :mod:`repro.check.shrink` — deterministic
  adversarial trace generation with ddmin shrinking of failures;
* :mod:`repro.check.invariants` — debug-mode structural audits of the
  live cache/controller state;
* :mod:`repro.check.campaign` + :mod:`repro.check.corpus` — the
  ``repro-8t check`` campaign loop and its saved-repro regression
  corpus.
"""

from repro.check.campaign import (
    CheckFailure,
    CheckReport,
    replay_corpus,
    run_check_campaign,
)
from repro.check.corpus import CorpusEntry, iter_corpus, load_entry, save_entry
from repro.check.differential import run_differential
from repro.check.fuzz import SCENARIO_NAMES, FuzzCase, TraceFuzzer
from repro.check.invariants import InvariantChecker, check_controller_invariants
from repro.check.oracle import ORACLE_TECHNIQUES, OracleRun, ReferenceOracle
from repro.check.shrink import shrink_trace

__all__ = [
    "CheckFailure",
    "CheckReport",
    "CorpusEntry",
    "FuzzCase",
    "InvariantChecker",
    "ORACLE_TECHNIQUES",
    "OracleRun",
    "ReferenceOracle",
    "SCENARIO_NAMES",
    "TraceFuzzer",
    "check_controller_invariants",
    "iter_corpus",
    "load_entry",
    "replay_corpus",
    "run_check_campaign",
    "run_differential",
    "save_entry",
    "shrink_trace",
]
