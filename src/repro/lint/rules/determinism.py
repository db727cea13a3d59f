"""Determinism rules (RPR101, RPR102).

The whole reproduction rests on bit-for-bit repeatability: every figure
is a pure function of its seed (see ``repro.utils.rng``).  A wall-clock
read or an unseeded global-RNG draw inside a simulation-semantics
module silently turns "reproduction" into "anecdote" — results change
run to run with no crash to notice.  These rules fence the modules
whose outputs are the paper's numbers:

* ``repro.core``   — controllers (the techniques under test)
* ``repro.engine`` — the columnar execution engine
* ``repro.sim``    — simulator, campaigns, resume
* ``repro.check``  — oracle, differential runner, fuzzer

``time.perf_counter``/``time.monotonic``/``time.sleep`` stay legal:
they feed *measurements about* a run (span timings, retry pacing,
timeouts), never values *inside* one.  ``random.Random(seed)`` stays
legal because construction demands an explicit seed at the call site.
"""

from __future__ import annotations

import ast

from repro.lint.asthelpers import call_name
from repro.lint.engine import FileContext, Rule, register_rule
from repro.lint.finding import Severity

__all__ = ["WallClockRule", "UnseededRandomRule", "DETERMINISM_PACKAGES"]

#: Dotted package prefixes where the determinism rules are enforced.
DETERMINISM_PACKAGES = ("repro.core", "repro.engine", "repro.sim", "repro.check")

#: Wall-clock reads whose values could leak into simulation output.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "date.today",
    }
)

#: Module-level draws on the process-global (unseeded) RNG.
_GLOBAL_RANDOM_CALLS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "getrandbits",
        "randbytes",
        "seed",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "triangular",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "lognormvariate",
    }
)


def _in_scope(ctx: FileContext) -> bool:
    return ctx.in_package(*DETERMINISM_PACKAGES)


@register_rule
class WallClockRule(Rule):
    id = "RPR101"
    name = "wall-clock-in-sim-path"
    severity = Severity.ERROR
    description = (
        "simulation-semantics modules must not read the wall clock "
        "(time.time/datetime.now); results must be a function of the "
        "seed alone"
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not _in_scope(ctx):
            return
        name = call_name(node)
        if name is not None and name in _WALL_CLOCK_CALLS:
            ctx.report(
                self,
                node,
                f"wall-clock read {name}() in deterministic module "
                f"{ctx.module}; derive values from the experiment seed "
                f"(repro.utils.rng) or take a timestamp parameter",
            )


@register_rule
class UnseededRandomRule(Rule):
    id = "RPR102"
    name = "unseeded-global-random"
    severity = Severity.ERROR
    description = (
        "simulation-semantics modules must not draw from the "
        "process-global random module; route randomness through "
        "repro.utils.rng.DeterministicRNG or an injected seed"
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not _in_scope(ctx):
            return
        name = call_name(node)
        if name is None:
            return
        if name.startswith("random.") and name[len("random."):] in (
            _GLOBAL_RANDOM_CALLS
        ):
            ctx.report(
                self,
                node,
                f"{name}() draws from the unseeded process-global RNG "
                f"in deterministic module {ctx.module}; use "
                f"repro.utils.rng.DeterministicRNG or random.Random(seed)",
            )
            return
        if name == "random.Random" and not node.args and not node.keywords:
            ctx.report(
                self,
                node,
                "random.Random() without a seed is wall-clock seeded; "
                "pass an explicit seed (see repro.utils.rng.derive_seed)",
            )
