"""File discovery, module naming, rule selection, and the CLI surface.

Includes the acceptance pin: the shipped tree lints clean — exit 0 with
no baseline — so every rule's policy is enforced, not aspirational.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import LintConfigError
from repro.lint import discover_files, module_name_for, run_lint

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
DEEP_FIXTURES = os.path.join(FIXTURES, "deep")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


class TestDiscovery:
    def test_walks_directories_and_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n", encoding="utf-8")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text(
            "x = 1\n", encoding="utf-8"
        )
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "b.py").write_text(
            "x = 1\n", encoding="utf-8"
        )
        (tmp_path / "pkg" / "notes.txt").write_text("nope", encoding="utf-8")
        files = discover_files([str(tmp_path)])
        assert files == [str(tmp_path / "pkg" / "a.py")]

    def test_deduplicates_overlapping_paths(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n", encoding="utf-8")
        files = discover_files([str(tmp_path), str(target)])
        assert files == [str(target)]

    def test_missing_path_is_config_error(self):
        with pytest.raises(LintConfigError):
            discover_files(["definitely/not/a/path"])

    def test_lint_needs_paths(self):
        with pytest.raises(LintConfigError):
            run_lint([])


class TestModuleNames:
    def test_package_chain(self):
        path = os.path.join(FIXTURES, "repro", "sim", "unseeded_bad.py")
        assert module_name_for(path) == "repro.sim.unseeded_bad"

    def test_init_names_the_package(self):
        path = os.path.join(FIXTURES, "repro", "sim", "__init__.py")
        assert module_name_for(path) == "repro.sim"

    def test_outside_any_package(self, tmp_path):
        target = tmp_path / "loose.py"
        target.write_text("x = 1\n", encoding="utf-8")
        assert module_name_for(str(target)) is None


class TestSelection:
    def test_select_narrows_the_run(self):
        report = run_lint([FIXTURES], select=["RPR102"])
        assert {f.rule_id for f in report.findings} == {"RPR102"}
        assert report.rules_run == ("RPR102",)

    def test_ignore_subtracts(self):
        report = run_lint([FIXTURES], ignore=["RPR101", "RPR102"])
        assert {f.rule_id for f in report.findings} == {"RPR121"}

    def test_unknown_id_rejected(self):
        with pytest.raises(LintConfigError):
            run_lint([FIXTURES], select=["RPR777"])

    def test_ids_are_case_insensitive(self):
        report = run_lint([FIXTURES], select=["rpr102"])
        assert {f.rule_id for f in report.findings} == {"RPR102"}

    def test_provided_id_selectable(self):
        # RPR132 is reported by the RPR131 rule instance (also_provides);
        # selecting it alone must still work.
        report = run_lint([FIXTURES], select=["RPR132"])
        assert report.rules_run == ("RPR132",)
        assert report.ok  # fixtures declare no METRIC_NAMES


class TestCli:
    def test_dirty_tree_exits_1(self, capsys):
        assert main(["lint", FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "RPR102" in out and "finding(s)" in out

    def test_shipped_tree_lints_clean(self, capsys):
        """Acceptance: `repro-8t lint src/repro` exits 0, no baseline."""
        assert main(["lint", SRC_REPRO]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["lint", FIXTURES, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is False
        rules = {finding["rule"] for finding in payload["findings"]}
        assert {"RPR101", "RPR102", "RPR121"} <= rules

    def test_baseline_workflow(self, tmp_path, capsys):
        baseline = str(tmp_path / "lint-baseline.json")
        assert main(["lint", FIXTURES, "--write-baseline", baseline]) == 0
        assert os.path.isfile(baseline)
        assert main(["lint", FIXTURES, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out

    def test_select_flag(self, capsys):
        assert main(["lint", FIXTURES, "--select", "RPR121"]) == 1
        out = capsys.readouterr().out
        assert "RPR121" in out and "RPR102" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR101", "RPR111", "RPR121", "RPR131", "RPR141"):
            assert rule_id in out

    def test_unknown_rule_is_config_exit(self):
        assert main(["lint", FIXTURES, "--select", "RPR777"]) == 2


class TestDeepCli:
    def test_deep_finds_rpr2xx(self, capsys):
        case = os.path.join(DEEP_FIXTURES, "rpr202")
        assert main(["lint", case, "--deep", "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "RPR202" in out and "deep:" in out

    def test_without_deep_the_same_tree_is_clean(self, capsys):
        case = os.path.join(DEEP_FIXTURES, "rpr202")
        assert main(["lint", case]) == 0
        assert "deep:" not in capsys.readouterr().out

    def test_shipped_tree_is_deep_clean(self, capsys):
        """Acceptance: `repro-8t lint src/repro --deep` exits 0 with an
        empty baseline on the shipped tree."""
        assert main(["lint", SRC_REPRO, "--deep", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "deep:" in out

    def test_selecting_deep_rule_without_deep_is_config_exit(self):
        assert main(["lint", FIXTURES, "--select", "RPR201"]) == 2

    def test_list_rules_shows_the_deep_tier(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR201", "RPR202", "RPR203", "RPR204", "RPR205"):
            assert rule_id in out
        assert "deep" in out

    def test_cache_path_flag_writes_the_cache(self, tmp_path, capsys):
        case = os.path.join(DEEP_FIXTURES, "rpr204")
        cache = str(tmp_path / "c" / "summaries.json")
        main(["lint", case, "--deep", "--cache-path", cache])
        assert os.path.isfile(cache)

    def test_timing_table_goes_to_stderr(self, tmp_path, capsys):
        case = os.path.join(DEEP_FIXTURES, "rpr201")
        assert main(["lint", case, "--deep", "--no-cache", "--timing"]) == 1
        captured = capsys.readouterr()
        assert "rule timing:" in captured.err
        assert "deep:link" in captured.err
        assert "rule timing:" not in captured.out

    def test_timing_out_writes_machine_readable_json(self, tmp_path, capsys):
        case = os.path.join(DEEP_FIXTURES, "rpr201")
        out_path = str(tmp_path / "lint-timing.json")
        main(["lint", case, "--deep", "--no-cache", "--timing-out", out_path])
        with open(out_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert "deep:summarize" in payload["timings"]
        assert any(key.startswith("RPR2") for key in payload["timings"])
        assert payload["deep"]["files"] > 0

    def test_deep_json_format_carries_stats(self, capsys):
        case = os.path.join(DEEP_FIXTURES, "rpr203")
        main(["lint", case, "--deep", "--no-cache", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["deep"]["functions"] > 0
        assert {f["rule"] for f in payload["findings"]} == {"RPR203"}


class TestGithubFormat:
    def test_annotations_one_per_finding(self, capsys):
        case = os.path.join(DEEP_FIXTURES, "rpr205")
        code = main(["lint", case, "--deep", "--no-cache",
                     "--format", "github"])
        assert code == 1
        out = capsys.readouterr().out
        annotations = [
            line for line in out.splitlines() if line.startswith("::error ")
        ]
        assert len(annotations) == 1
        (annotation,) = annotations
        assert "file=" in annotation and "line=" in annotation
        assert "title=RPR205" in annotation

    def test_escaping_of_newlines_and_properties(self):
        from repro.lint.finding import Finding, Severity
        from repro.lint.runner import LintReport

        finding = Finding(
            rule_id="RPR101",
            severity=Severity.ERROR,
            path="src/a,b.py",
            line=3,
            column=1,
            message="bad%thing\nsecond line",
            snippet="x",
        )
        report = LintReport(
            findings=[finding], files_checked=1, suppressed=0,
            baselined=0, rules_run=("RPR101",),
        )
        rendered = report.render_github()
        assert "%25" in rendered      # % in data
        assert "%0A" in rendered      # newline in data
        assert "a%2Cb.py" in rendered  # comma in the file property
        assert "\n" not in rendered.splitlines()[0]

    def test_clean_tree_emits_no_annotations(self, capsys):
        case = os.path.join(DEEP_FIXTURES, "rpr202")
        assert main(["lint", case, "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
