"""Domain lint rules (AST-based).

Each rule targets a hazard class that has actually bitten (or could
bite) this codebase's determinism guarantees:

======  ==============================================================
REP101  Unseeded randomness: stdlib ``random`` or ``np.random``
        module-level draws, ``default_rng()`` with no seed, and
        ``np.random.seed`` global-state mutation.
REP102  Hash-order-dependent iteration: iterating (or materializing)
        a ``set``/``frozenset`` without ``sorted(...)``.  Set order
        depends on insertion history and — for str-keyed sets — on
        ``PYTHONHASHSEED``, so it must never reach a deterministic
        path (route cache, frontier worklist, stats aggregation).
REP103  Mutable default argument (``def f(x=[])``): shared across
        calls, a classic aliasing bug.
======  ==============================================================

Suppression: append ``# noqa`` (all rules) or ``# noqa: REP102`` /
``# noqa: REP101,REP103`` to the flagged line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["Violation", "LintRule", "ALL_RULES", "rule_by_id"]


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and why."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


class LintRule:
    """Base class: subclasses set ``id``/``name``/``description`` and
    implement :meth:`check`."""

    id: str = "REP000"
    name: str = "abstract"
    description: str = ""

    def check(self, tree: ast.AST, path: str) -> Iterator[Violation]:
        raise NotImplementedError

    def _v(self, path: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            message=message,
        )


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# REP101 — unseeded randomness
# ----------------------------------------------------------------------
_NPR_ALLOWED = {
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


class UnseededRandomRule(LintRule):
    id = "REP101"
    name = "unseeded-random"
    description = (
        "stdlib random / np.random module-level draws and unseeded "
        "default_rng() are irreproducible; thread a seeded "
        "np.random.Generator instead"
    )

    def check(self, tree: ast.AST, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self._v(
                    path,
                    node,
                    "importing draw functions from stdlib random uses the "
                    "unseeded global RNG; use np.random.default_rng(seed)",
                )
            elif isinstance(node, ast.Call):
                yield from self._check_call(node, path)

    def _check_call(self, node: ast.Call, path: str) -> Iterator[Violation]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        if dotted == "default_rng" or dotted.endswith(".default_rng"):
            if not node.args and not node.keywords:
                yield self._v(
                    path,
                    node,
                    "default_rng() without a seed is irreproducible; pass "
                    "an explicit seed (or derived SeedSequence)",
                )
            return
        if dotted.startswith("random."):
            tail = dotted[len("random."):]
            if tail == "Random":
                if not node.args:
                    yield self._v(
                        path, node,
                        "random.Random() without a seed is irreproducible",
                    )
                return
            yield self._v(
                path,
                node,
                f"random.{tail}() draws from the process-global RNG; "
                "thread a seeded np.random.Generator instead",
            )
            return
        for prefix in ("np.random.", "numpy.random."):
            if dotted.startswith(prefix):
                tail = dotted[len(prefix):]
                if tail in _NPR_ALLOWED:
                    return
                if tail == "seed":
                    yield self._v(
                        path, node,
                        "np.random.seed mutates global RNG state; pass "
                        "seeded Generators explicitly",
                    )
                    return
                yield self._v(
                    path,
                    node,
                    f"{prefix}{tail}() uses numpy's legacy global RNG; "
                    "use a seeded np.random.Generator",
                )
                return


# ----------------------------------------------------------------------
# REP102 — hash-order-dependent iteration
# ----------------------------------------------------------------------
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}
#: Domain APIs documented to return sets.
_SET_RETURNING_APIS = {"owned_resources", "node_fault_indices"}
_MATERIALIZERS = {"list", "tuple", "enumerate", "iter", "next"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id in {"set", "frozenset"}
        if isinstance(node.func, ast.Attribute):
            return (
                node.func.attr in _SET_METHODS
                or node.func.attr in _SET_RETURNING_APIS
            )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)

_SET_ANNOTATIONS = {"Set", "FrozenSet", "MutableSet", "set", "frozenset"}


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    name = _dotted(node) if node is not None else None
    if name is None:
        return False
    return name.rsplit(".", 1)[-1] in _SET_ANNOTATIONS


def _local_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """All AST nodes belonging to ``scope`` itself, stopping at nested
    scope boundaries (nested functions/classes are separate scopes)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _set_locals(scope: ast.AST) -> frozenset:
    """Local names whose every binding in ``scope`` is a set expression
    (or a ``Set[...]`` annotation).  Conservative: a name also bound to
    anything non-set — or rebound as a loop/with/arg target — does not
    qualify."""
    set_names: dict = {}

    def record(name: str, is_set: bool) -> None:
        set_names[name] = set_names.get(name, True) and is_set

    for node in _local_nodes(scope):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    record(tgt.id, _is_set_expr(node.value))
                else:
                    for leaf in ast.walk(tgt):
                        if isinstance(leaf, ast.Name):
                            record(leaf.id, False)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            is_set = _annotation_is_set(node.annotation) or (
                node.value is not None and _is_set_expr(node.value)
            )
            record(node.target.id, is_set)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            # ``s |= other`` keeps set-ness; anything else taints.
            if not isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
                record(node.target.id, False)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    record(leaf.id, False)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for leaf in ast.walk(node.optional_vars):
                if isinstance(leaf, ast.Name):
                    record(leaf.id, False)
    args = getattr(scope, "args", None)
    if args is not None:
        for a in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            set_names[a.arg] = False
    return frozenset(n for n, ok in set_names.items() if ok)


class HashOrderIterationRule(LintRule):
    id = "REP102"
    name = "hash-order-iteration"
    description = (
        "iterating a set is hash/insertion-order dependent; wrap in "
        "sorted(...) before the order can reach a deterministic path"
    )

    _MSG = (
        "iteration order of a set depends on insertion history and "
        "PYTHONHASHSEED; wrap in sorted(...) to pin it"
    )

    def check(self, tree: ast.AST, path: str) -> Iterator[Violation]:
        scopes = [tree] + [
            n for n in ast.walk(tree) if isinstance(n, _SCOPE_NODES)
        ]
        for scope in scopes:
            yield from self._check_scope(scope, path)

    def _check_scope(self, scope: ast.AST, path: str) -> Iterator[Violation]:
        set_locals = _set_locals(scope)

        def setish(node: ast.AST) -> bool:
            if isinstance(node, ast.Name) and node.id in set_locals:
                return True
            return _is_set_expr(node)

        for node in _local_nodes(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if setish(node.iter):
                    yield self._v(path, node.iter, self._MSG)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if setish(gen.iter):
                        yield self._v(path, gen.iter, self._MSG)
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _MATERIALIZERS
                    and node.args
                    and setish(node.args[0])
                ):
                    yield self._v(
                        path, node,
                        f"{node.func.id}() over a set materializes hash "
                        "order; use sorted(...)",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and not node.args
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in set_locals
                ):
                    yield self._v(
                        path, node,
                        f"{node.func.value.id}.pop() removes a hash-order-"
                        "dependent element; iterate a deterministic order "
                        "instead",
                    )


# ----------------------------------------------------------------------
# REP103 — mutable default argument
# ----------------------------------------------------------------------
def _is_mutable_literal(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


class MutableDefaultRule(LintRule):
    id = "REP103"
    name = "mutable-default"
    description = "mutable default argument is shared across calls"

    def check(self, tree: ast.AST, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            for default in list(args.defaults) + list(args.kw_defaults):
                if _is_mutable_literal(default):
                    yield self._v(
                        path, default,
                        "mutable default argument is created once and "
                        "shared across calls; use None and build inside",
                    )


ALL_RULES: Tuple[LintRule, ...] = (
    UnseededRandomRule(),
    HashOrderIterationRule(),
    MutableDefaultRule(),
)

#: Every rule id the suite can emit (``REP000`` = unparsable file).
#: ``# noqa: REPxxx`` pragmas naming ids outside this set are reported
#: as warnings by the lint engine — a typo'd pragma suppresses nothing
#: and should not pass silently.
KNOWN_RULE_IDS = frozenset({"REP000"} | {rule.id for rule in ALL_RULES})


def rule_by_id(rule_id: str) -> LintRule:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(f"unknown lint rule {rule_id!r}")


def check_tree(
    tree: ast.AST, path: str, rules: Sequence[LintRule] = ALL_RULES
) -> List[Violation]:
    """Run ``rules`` over one parsed module (no suppression filtering —
    that is the engine's job, it needs the source lines)."""
    out: List[Violation] = []
    for rule in rules:
        out.extend(rule.check(tree, path))
    return out


# Names that tests import to seed violation fixtures.
SEEDED_FIXTURES = {
    "REP101": "import numpy as np\nx = np.random.rand(3)\n",
    "REP102": "out = [v for v in {1, 2, 3}]\n",
    "REP103": "def f(items=[]):\n    return items\n",
}
