"""Unit tests for multi-technique comparison."""

import pytest

from repro.sim.comparison import compare_techniques
from repro.trace.columns import TraceColumns
from repro.workload.generator import generate_trace
from repro.workload.spec2006 import get_profile

from tests.conftest import make_random_trace


class TestCompareTechniques:
    @pytest.fixture(scope="class")
    def comparison(self):
        from repro.cache.config import CacheGeometry

        geometry = CacheGeometry(512, 2, 32)
        trace = make_random_trace(600, seed=10, word_span=120)
        return compare_techniques(trace, geometry)

    def test_all_techniques_present(self, comparison):
        assert set(comparison.results) == {
            "conventional",
            "rmw",
            "wg",
            "wg_rb",
        }

    def test_reduction_sign_and_order(self, comparison):
        wg = comparison.access_reduction("wg")
        wgrb = comparison.access_reduction("wg_rb")
        assert 0.0 < wg < 1.0
        assert wgrb >= wg

    def test_rmw_overhead_positive(self, comparison):
        assert comparison.rmw_overhead > 0.0

    def test_reduction_vs_self_is_zero(self, comparison):
        assert comparison.access_reduction("rmw") == pytest.approx(0.0)

    def test_reduction_vs_other_baseline(self, comparison):
        vs_conventional = comparison.access_reduction(
            "wg_rb", baseline="conventional"
        )
        vs_rmw = comparison.access_reduction("wg_rb", baseline="rmw")
        assert vs_rmw > vs_conventional

    def test_unknown_technique_rejected(self, comparison):
        with pytest.raises(ValueError, match="not simulated"):
            comparison.result("fancy")

    def test_one_shot_iterator_rejected(self, tiny_geometry):
        with pytest.raises(TypeError, match="reusable"):
            compare_techniques(iter([]), tiny_geometry)
        with pytest.raises(TypeError, match="reusable"):
            compare_techniques(
                (access for access in make_random_trace(10)), tiny_geometry
            )

    def test_column_trace_builds_no_records(self, tiny_geometry, monkeypatch):
        trace = generate_trace(get_profile("mcf"), 300, seed=2)
        built = []
        original = TraceColumns._built_records

        def counting(self):
            built.append(len(self))
            return original(self)

        monkeypatch.setattr(TraceColumns, "_built_records", counting)
        comparison = compare_techniques(trace, tiny_geometry)
        assert built == []
        assert comparison.result("wg").requests == 300

    def test_subset_of_techniques(self, tiny_geometry):
        trace = make_random_trace(100, seed=11)
        comparison = compare_techniques(
            trace, tiny_geometry, techniques=("rmw", "wg")
        )
        assert set(comparison.results) == {"rmw", "wg"}
