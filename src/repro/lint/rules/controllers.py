"""Controller-contract rule (RPR121).

Every controller has two implementations: the scalar ``process()``
path is the semantics of record, and the columnar kernels
(:mod:`repro.engine.columnar`) are an optimisation that must be
*observably identical*.  One structural property keeps the reference
in place, and it is a property of the class text — exactly what a
static pass can hold forever: every concrete controller implements the
scalar API (``_handle_read``/``_handle_write``) — the oracle, the
invariant checker, the differential fuzzer and the columnar engine's
per-access fallback all exercise controllers through it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.asthelpers import dotted_name
from repro.lint.engine import FileContext, Rule, register_rule
from repro.lint.finding import Severity

__all__ = ["ScalarApiRule"]

_BASE_CLASS = "CacheController"
_SCALAR_API = ("_handle_read", "_handle_write")


def _direct_methods(class_node: ast.ClassDef) -> Set[str]:
    return {
        stmt.name
        for stmt in class_node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _bases(class_node: ast.ClassDef) -> Iterator[str]:
    for base in class_node.bases:
        name = dotted_name(base)
        if name is not None:
            yield name.rsplit(".", 1)[-1]


def _is_abstract(class_node: ast.ClassDef) -> bool:
    """Heuristic: ABCMeta metaclass or any abstractmethod decorator."""
    for keyword in class_node.keywords:
        if keyword.arg == "metaclass":
            return True
    for stmt in class_node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in stmt.decorator_list:
                name = dotted_name(decorator)
                if name is not None and name.rsplit(".", 1)[-1] == (
                    "abstractmethod"
                ):
                    return True
    return False


@register_rule
class ScalarApiRule(Rule):
    id = "RPR121"
    name = "controller-missing-scalar-api"
    severity = Severity.ERROR
    description = (
        "a concrete CacheController subclass must implement the scalar "
        "API (_handle_read and _handle_write); the oracle, invariant "
        "checker, and scalar fallback all run through it"
    )

    def visit_ClassDef(self, node: ast.ClassDef, ctx: FileContext) -> None:
        if _BASE_CLASS not in set(_bases(node)):
            return
        if _is_abstract(node):
            return
        methods = _direct_methods(node)
        missing = [name for name in _SCALAR_API if name not in methods]
        if missing:
            ctx.report(
                self,
                node,
                f"controller {node.name} subclasses {_BASE_CLASS} but "
                f"does not implement {', '.join(missing)}; every "
                f"concrete technique must define the scalar semantics "
                f"of record",
            )
