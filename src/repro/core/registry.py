"""Controller registry: build any technique by name."""

from __future__ import annotations

from typing import Callable, Dict

from repro.cache.cache import SetAssociativeCache
from repro.core.controller import CacheController
from repro.core.conventional import ConventionalController
from repro.core.related_work import LocalRMWController, WordWriteController
from repro.core.pulse_assist import PulseAssistController
from repro.core.rmw import RMWController
from repro.core.wg_rb import WGRBController
from repro.core.write_buffer import WriteBufferController
from repro.core.write_grouping import WriteGroupingController
from repro.errors import ValidationError

__all__ = ["CONTROLLER_NAMES", "ALL_CONTROLLER_NAMES", "make_controller"]

_FACTORIES: Dict[str, Callable[..., CacheController]] = {
    ConventionalController.name: ConventionalController,
    RMWController.name: RMWController,
    WriteGroupingController.name: WriteGroupingController,
    WGRBController.name: WGRBController,
    WordWriteController.name: WordWriteController,
    LocalRMWController.name: LocalRMWController,
    WriteBufferController.name: WriteBufferController,
    PulseAssistController.name: PulseAssistController,
}

CONTROLLER_NAMES = ("conventional", "rmw", "wg", "wg_rb")
"""The paper's four techniques (its Figures 9-11 comparison set)."""

ALL_CONTROLLER_NAMES = tuple(sorted(_FACTORIES))
"""Every registered technique, including the related-work comparators
``word_write`` (Chang et al.), ``rmw_local`` (Park et al.),
``pulse_assist`` (Kim et al.) and the ``write_buffer`` design-point
alternative."""


def make_controller(
    name: str, cache: SetAssociativeCache, **kwargs: object
) -> CacheController:
    """Instantiate a controller by registry name.

    Extra keyword arguments are forwarded to the controller constructor
    (e.g. ``detect_silent_writes=False`` or ``entries=4`` for WG-family
    controllers, ``count_miss_traffic=True`` for any).  ``telemetry=``
    is handled here and attached post-construction, so every registered
    controller is instrumentable without widening its signature.
    """
    telemetry = kwargs.pop("telemetry", None)
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown controller {name!r}; known: {list(ALL_CONTROLLER_NAMES)}"
        ) from None
    controller = factory(cache, **kwargs)
    if telemetry is not None:
        controller.attach_telemetry(telemetry)
    return controller
