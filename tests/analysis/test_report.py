"""Unit tests for the one-shot reproduction report."""

import re

import pytest

from repro.analysis import figures
from repro.analysis.figures import reproduce_figure
from repro.analysis.report import generate_report, write_report
from repro.sim.simulator import Simulator
from repro.trace.columns import TraceColumns
from repro.utils import memo

from tests.conftest import count_traversals


@pytest.fixture(scope="module")
def small_report():
    return generate_report(
        accesses=2000, figure_ids=("fig5", "sec5.4", "reliability")
    )


class TestGenerateReport:
    def test_contains_header_and_settings(self, small_report):
        assert small_report.startswith("# Reproduction report")
        assert "2000 accesses/benchmark" in small_report

    def test_summary_table(self, small_report):
        assert "| figure | metric | measured | paper |" in small_report
        assert "| fig5 | mean_silent_pct |" in small_report
        # Paper value present for fig5, dash for reliability metrics.
        assert "| sec5.4 | tag_buffer_bits | 145.00 | 150.00 |" in small_report

    def test_figure_sections(self, small_report):
        assert "### fig5" in small_report
        assert "### sec5.4" in small_report
        assert "### reliability" in small_report

    def test_subset_respected(self, small_report):
        assert "### fig9" not in small_report


#: The figures that share traces, statistics and timed replays.
SHARING_FIGURES = ("fig3", "fig4", "fig5", "sec5.5", "dvfs_energy", "traffic")

CAMPAIGN_FIGURES = ("fig9", "fig10", "fig11", "claim_rmw")


def counting_simulators(monkeypatch):
    """The technique of every ``Simulator`` built from here on."""
    built = []
    init = Simulator.__init__

    def counting(self, technique, *args, **kwargs):
        built.append(technique)
        init(self, technique, *args, **kwargs)

    monkeypatch.setattr(Simulator, "__init__", counting)
    return built


def figure_sections(report):
    """``{figure id: rendered table}`` of a report's figure sections."""
    return {
        match.group(1): match.group(2)
        for match in re.finditer(
            r"^### (\S+)  \([0-9.]+s\)\n\n```\n(.*?)\n```$",
            report,
            re.MULTILINE | re.DOTALL,
        )
    }


class TestSharedWork:
    """A report computes each distinct trace and timed replay once; the
    figures come out as if each ran alone."""

    def test_each_figure_equals_its_run_alone(self):
        sections = figure_sections(
            generate_report(accesses=400, seed=7, figure_ids=SHARING_FIGURES)
        )
        assert list(sections) == list(SHARING_FIGURES)
        for figure_id in SHARING_FIGURES:
            alone = reproduce_figure(figure_id, accesses=400, seed=7)
            assert sections[figure_id] == alone.render(), figure_id

    def test_builds_no_records_and_ends_its_scope(self, monkeypatch):
        built = []
        original = TraceColumns._built_records

        def counting(self):
            built.append(len(self))
            return original(self)

        monkeypatch.setattr(TraceColumns, "_built_records", counting)
        generate_report(
            accesses=300, figure_ids=SHARING_FIGURES + ("overheads",)
        )
        assert built == []
        assert memo.scope_memo("workload.traces") is None

    def test_opens_the_result_store_once(self, tmp_path, monkeypatch):
        from repro.sim.resilience import ExecutionPolicy, execution_policy
        from repro.store import ResultStore

        campaign_figures = ("claim_rmw", "fig9", "fig10")
        policy = ExecutionPolicy(result_cache=str(tmp_path / "store"))
        with execution_policy(policy):
            cold = generate_report(accesses=300, figure_ids=campaign_figures)
            opens = []
            init = ResultStore.__init__

            def counting(self, *args, **kwargs):
                opens.append(args)
                init(self, *args, **kwargs)

            monkeypatch.setattr(ResultStore, "__init__", counting)
            warm = generate_report(accesses=300, figure_ids=campaign_figures)
        assert len(opens) == 1
        assert figure_sections(warm) == figure_sections(cold)

    @pytest.mark.parametrize("figure_id", CAMPAIGN_FIGURES + SHARING_FIGURES)
    def test_figures_equal_inside_and_outside_a_scope(self, figure_id):
        """``reproduce_figure`` always runs in a scope; the producer
        called directly runs in none, apart from the scope a timed
        figure opens around each trace's replays."""
        producer = figures._PRODUCERS[figure_id]
        outside = producer(accesses=400, seed=7)
        with memo.memo_scope():
            inside = producer(accesses=400, seed=7)
        assert inside == outside

    def test_campaign_figures_traverse_once_per_row(self, monkeypatch):
        """25 profiles at four geometries; ``claim_rmw`` takes Fig 9's
        rows.  A derived row builds no ``Simulator``."""
        built = counting_simulators(monkeypatch)
        walked = count_traversals(monkeypatch)
        generate_report(accesses=600, figure_ids=CAMPAIGN_FIGURES)
        assert len(walked) == 100
        assert built == []

    def test_overheads_read_the_shared_timed_replays(self, monkeypatch):
        """One conventional traversal per trace serves Section 5.5 and the
        overhead report's energy sweep alike, and a derived timed replay
        builds no ``Simulator``."""
        built = counting_simulators(monkeypatch)
        walked = count_traversals(monkeypatch)
        generate_report(accesses=600, figure_ids=("sec5.5",))
        alone = len(walked)
        walked.clear()
        generate_report(accesses=600, figure_ids=("sec5.5", "overheads"))
        assert len(walked) == alone == 25
        assert built == []

    @pytest.mark.parametrize(
        "figure_id, traces", (("sec5.5", 25), ("dvfs_energy", 25), ("overheads", 4))
    )
    def test_a_timed_figure_traverses_each_trace_once(
        self, monkeypatch, figure_id, traces
    ):
        """Called outside any scope, a figure that reads several
        techniques per trace still takes them from one traversal."""
        built = counting_simulators(monkeypatch)
        walked = count_traversals(monkeypatch)
        figures._PRODUCERS[figure_id](accesses=300, seed=7)
        assert len(walked) == traces
        assert built == []
        assert memo.scope_memo("perf.timed_replay") is None

    def test_a_figure_joins_the_open_scope_or_opens_its_own(self, monkeypatch):
        built = counting_simulators(monkeypatch)
        walked = count_traversals(monkeypatch)
        two = ("bwaves", "mcf")
        with memo.memo_scope():
            reproduce_figure("fig9", accesses=300, seed=7, benchmarks=two)
            assert len(memo.scope_memo("sim.derived_rows")) == 2
            reproduce_figure("claim_rmw", accesses=300, seed=7, benchmarks=two)
        assert len(walked) == 2
        reproduce_figure("claim_rmw", accesses=300, seed=7, benchmarks=two)
        assert len(walked) == 4
        assert built == []
        assert memo.scope_memo("sim.derived_rows") is None


class TestWriteReport:
    def test_writes_file(self, tmp_path):
        path = write_report(
            tmp_path / "report.md", accesses=1500, figure_ids=("sec5.4",)
        )
        assert path.exists()
        assert "Reproduction report" in path.read_text()

    def test_cli_integration(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        code = main(
            [
                "report",
                str(out),
                "--accesses",
                "1500",
                "--figures",
                "sec5.4",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote reproduction report" in capsys.readouterr().out
