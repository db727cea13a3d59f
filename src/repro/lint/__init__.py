"""``repro.lint`` — project-aware static analysis (``repro-8t lint``).

An AST-based, single-pass rule engine with stable ``RPRxxx`` rule ids,
``# repro-lint: disable=RPRxxx`` line suppressions, and a JSON baseline
for incremental adoption.  The rules encode this repo's contracts —
determinism of the sim path, the ReproError hierarchy, the scalar
controller API, the declared metric-name set, and library hygiene — so
whole classes of plausible-but-wrong reproduction bugs fail the build
before any trace runs.

A second, *interprocedural* tier runs under ``repro-8t lint --deep``:
:mod:`repro.lint.callgraph` builds the project call graph,
:mod:`repro.lint.effects` infers per-function effect closures, and the
RPR2xx rules (:mod:`repro.lint.rules.deep`) check transitive
determinism taint, fsync-before-replace durability, lock-set
discipline, resource escapes, and silent degradation — with per-file
summaries cached by content digest so warm runs re-analyse only what
changed.  See ``docs/static-analysis.md`` for the rule catalogue and
workflow.

Public API::

    from repro.lint import run_lint, lint_source

    report = run_lint(["src/repro"])           # whole tree
    report = run_lint(["src/repro"], deep=True)  # + RPR2xx tier
    findings = lint_source(snippet, module="repro.sim.x")   # one blob
"""

from repro.lint.baseline import Baseline
from repro.lint.callgraph import LinkResult, ModuleSummary, link, summarize_module
from repro.lint.deep import DeepStats, run_deep
from repro.lint.engine import RULE_TYPES, Rule, lint_source, register_rule
from repro.lint.finding import Finding, Severity
from repro.lint.runner import LintReport, discover_files, module_name_for, run_lint

__all__ = [
    "Baseline",
    "DeepStats",
    "Finding",
    "LinkResult",
    "LintReport",
    "ModuleSummary",
    "RULE_TYPES",
    "Rule",
    "Severity",
    "discover_files",
    "link",
    "lint_source",
    "module_name_for",
    "register_rule",
    "run_deep",
    "run_lint",
    "summarize_module",
]
