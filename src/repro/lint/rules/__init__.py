"""Project-specific rule catalogue.

Importing this package registers every rule with
:data:`repro.lint.engine.RULE_TYPES`.  Rule ids are stable API:

=======  ==============================  ==========================
id       name                            module
=======  ==============================  ==========================
RPR001   syntax-error                    (engine built-in)
RPR101   wall-clock-in-sim-path          determinism
RPR102   unseeded-global-random          determinism
RPR111   raise-non-repro-error           errors_discipline
RPR112   bare-except                     errors_discipline
RPR121   controller-missing-scalar-api   controllers
RPR131   undeclared-metric-name          telemetry
RPR132   unemitted-metric-declaration    telemetry
RPR141   print-in-library                hygiene
RPR142   mutable-default-argument        hygiene
RPR143   assert-in-library               hygiene
RPR201   transitive-determinism-taint    deep (``lint --deep`` only)
RPR202   durability-fsync-before-replace deep (``lint --deep`` only)
RPR203   lock-set-violation              deep (``lint --deep`` only)
RPR204   unclosed-resource               deep (``lint --deep`` only)
RPR205   silent-degradation              deep (``lint --deep`` only)
=======  ==============================  ==========================
"""

from repro.lint.rules import controllers as controllers
from repro.lint.rules import determinism as determinism
from repro.lint.rules import errors_discipline as errors_discipline
from repro.lint.rules import hygiene as hygiene
from repro.lint.rules import telemetry as telemetry

# The deep family resolves its effect vocabulary through the modules
# above, so it registers last.
from repro.lint.rules import deep as deep  # noqa: E402

__all__ = [
    "controllers",
    "deep",
    "determinism",
    "errors_discipline",
    "hygiene",
    "telemetry",
]
