"""Unit tests for the controller registry."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.core.conventional import ConventionalController
from repro.core.registry import CONTROLLER_NAMES, make_controller
from repro.core.rmw import RMWController
from repro.core.wg_rb import WGRBController
from repro.core.write_grouping import WriteGroupingController


class TestRegistry:
    def test_names(self):
        assert set(CONTROLLER_NAMES) == {"conventional", "rmw", "wg", "wg_rb"}

    def test_builds_each(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        assert isinstance(
            make_controller("conventional", cache), ConventionalController
        )
        assert isinstance(make_controller("rmw", cache), RMWController)
        assert isinstance(make_controller("wg", cache), WriteGroupingController)
        assert isinstance(make_controller("wg_rb", cache), WGRBController)

    def test_case_insensitive(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        assert isinstance(make_controller("RMW", cache), RMWController)

    def test_unknown_rejected(self, tiny_geometry):
        with pytest.raises(ValueError, match="unknown controller") as excinfo:
            make_controller("wg++", SetAssociativeCache(tiny_geometry))
        # The message lists every registered technique, not just the
        # paper's four, so a typo of a comparator finds its real name.
        for name in ("word_write", "rmw_local", "pulse_assist", "write_buffer"):
            assert repr(name) in str(excinfo.value)

    def test_kwargs_forwarded(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        controller = make_controller(
            "wg", cache, detect_silent_writes=False, entries=2
        )
        assert controller.detect_silent_writes is False
        assert len(controller.buffer_entries) == 2

    def test_names_match_classes(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        for name in CONTROLLER_NAMES:
            assert make_controller(name, cache).name == name
