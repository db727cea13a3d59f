"""Every rule proves itself against its fixture corpus.

Two corpora: inline sources for the package-agnostic rules (each bad
snippet fires exactly its rule; each good sibling is silent), and the
on-disk ``fixtures/`` package tree for the module-scoped rules, linted
through the real ``run_lint`` path discovery so module-name derivation
is exercised too.
"""

import os

import pytest

from repro.lint import lint_source, run_lint

from tests.lint.corpus import EXEMPT_PATHS, INLINE_CORPUS

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.mark.parametrize("rule_id", sorted(INLINE_CORPUS))
class TestInlineCorpus:
    def test_bad_source_fires_only_its_rule(self, rule_id):
        path, bad, _good = INLINE_CORPUS[rule_id]
        findings = lint_source(bad, path=path)
        assert findings, f"{rule_id} fixture produced no findings"
        assert {f.rule_id for f in findings} == {rule_id}

    def test_good_source_is_clean(self, rule_id):
        path, _bad, good = INLINE_CORPUS[rule_id]
        assert lint_source(good, path=path) == []


@pytest.mark.parametrize("path", EXEMPT_PATHS)
@pytest.mark.parametrize("rule_id", ["RPR141", "RPR143"])
def test_hygiene_rules_exempt_non_library_paths(rule_id, path):
    _path, bad, _good = INLINE_CORPUS[rule_id]
    assert lint_source(bad, path=path) == []


class TestFixtureTree:
    """The on-disk corpus, linted exactly like a user would."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_lint([FIXTURES])

    def test_expected_findings(self, report):
        by_file = {}
        for finding in report.findings:
            key = os.path.basename(finding.path)
            by_file.setdefault(key, []).append(finding.rule_id)
        assert by_file == {
            "wall_clock_bad.py": ["RPR101", "RPR101"],
            "unseeded_bad.py": ["RPR102", "RPR102"],
            "scalar_bad.py": ["RPR121"],
        }

    def test_unseeded_random_draw_is_flagged(self, report):
        """Acceptance: random.random() on a sim path must be caught."""
        hits = [
            f
            for f in report.findings
            if f.rule_id == "RPR102" and "random.random" in f.message
        ]
        assert len(hits) == 1
        assert hits[0].path.endswith(
            os.path.join("repro", "sim", "unseeded_bad.py")
        )

    def test_ok_files_are_clean(self, report):
        flagged = {os.path.basename(f.path) for f in report.findings}
        assert not any(name.endswith("_ok.py") for name in flagged)

    def test_module_scoping_respected(self, report):
        # The same wall-clock source outside the determinism packages
        # is legal: module=None puts it out of scope.
        with open(
            os.path.join(FIXTURES, "repro", "sim", "wall_clock_bad.py"),
            encoding="utf-8",
        ) as handle:
            source = handle.read()
        assert lint_source(source, path="src/elsewhere/module.py") == []
