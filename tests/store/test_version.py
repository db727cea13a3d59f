"""Code-version fingerprinting: the store's invalidation lever."""

import pytest

from repro.store import code_version
from repro.store import version as version_mod
from repro.store.version import ENV_CODE_VERSION, VERSION_LENGTH


@pytest.fixture(autouse=True)
def no_ambient_override(monkeypatch):
    monkeypatch.delenv(ENV_CODE_VERSION, raising=False)


def fresh_version(root):
    """The version is memoized per (root, paths); drop it to recompute."""
    version_mod._cache.clear()
    return code_version(root=root)


def test_version_shape_and_stability():
    first = code_version()
    assert len(first) == VERSION_LENGTH
    assert all(c in "0123456789abcdef" for c in first)
    assert code_version() == first  # memoized and deterministic


def test_env_override_wins(monkeypatch):
    computed = code_version()
    monkeypatch.setenv(ENV_CODE_VERSION, "deadbeefcafef00d")
    assert code_version() == "deadbeefcafef00d"
    assert code_version() != computed
    monkeypatch.delenv(ENV_CODE_VERSION)
    assert code_version() == computed


def test_env_override_truncated_to_uniform_length(monkeypatch):
    monkeypatch.setenv(ENV_CODE_VERSION, "x" * 100)
    assert len(code_version()) == VERSION_LENGTH


def test_version_drifts_when_source_changes(tmp_path):
    """Editing result-bearing source must rotate the version."""
    pkg = tmp_path / "pkg"
    (pkg / "core").mkdir(parents=True)
    (pkg / "errors.py").write_text("class ReproError(Exception): pass\n")
    (pkg / "core" / "ctrl.py").write_text("X = 1\n")
    before = fresh_version(pkg)
    (pkg / "core" / "ctrl.py").write_text("X = 2\n")
    assert fresh_version(pkg) != before


def test_version_ignores_result_free_paths(tmp_path):
    """Only RESULT_CODE_PATHS feed the digest; docs/obs edits do not."""
    pkg = tmp_path / "pkg"
    (pkg / "core").mkdir(parents=True)
    (pkg / "obs").mkdir()
    (pkg / "core" / "ctrl.py").write_text("X = 1\n")
    before = fresh_version(pkg)
    (pkg / "obs" / "telemetry.py").write_text("Y = 9\n")
    assert fresh_version(pkg) == before


def test_the_row_derivation_is_result_bearing(tmp_path):
    """Rows inside a memo scope come from ``perf/derive.py``; the
    timing model beside it makes no campaign row."""
    pkg = tmp_path / "pkg"
    (pkg / "perf").mkdir(parents=True)
    (pkg / "perf" / "derive.py").write_text("D = 1\n")
    (pkg / "perf" / "timing.py").write_text("T = 1\n")
    before = fresh_version(pkg)
    (pkg / "perf" / "timing.py").write_text("T = 2\n")
    assert fresh_version(pkg) == before
    (pkg / "perf" / "derive.py").write_text("D = 2\n")
    assert fresh_version(pkg) != before


def test_estimator_surface_is_independent(tmp_path):
    """Controller edits rotate campaign keys only; power-model edits
    rotate estimation keys only — the two caches invalidate apart."""
    pkg = tmp_path / "pkg"
    (pkg / "core").mkdir(parents=True)
    (pkg / "power").mkdir()
    (pkg / "core" / "ctrl.py").write_text("X = 1\n")
    (pkg / "power" / "energy.py").write_text("E = 1\n")
    version_mod._cache.clear()
    campaign_before = code_version(root=pkg)
    estimator_before = code_version(
        root=pkg, paths=version_mod.ESTIMATOR_CODE_PATHS
    )
    assert campaign_before != estimator_before

    (pkg / "core" / "ctrl.py").write_text("X = 2\n")
    version_mod._cache.clear()
    assert code_version(root=pkg) != campaign_before
    assert (
        code_version(root=pkg, paths=version_mod.ESTIMATOR_CODE_PATHS)
        == estimator_before
    )

    campaign_mid = code_version(root=pkg)
    (pkg / "power" / "energy.py").write_text("E = 2\n")
    version_mod._cache.clear()
    assert code_version(root=pkg) == campaign_mid
    assert (
        code_version(root=pkg, paths=version_mod.ESTIMATOR_CODE_PATHS)
        != estimator_before
    )
