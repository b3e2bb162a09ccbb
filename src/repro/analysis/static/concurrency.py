"""Interprocedural concurrency-soundness analyzer (REP201, REP202,
REP204, REP205).

The paper proves deadlock freedom *statically* over channel
dependencies; :mod:`repro.analysis.static.cdg` applies that argument
to the routed network.  This module applies the same philosophy to the
host program's own concurrency: the lock-guarded compiler/store, the
asyncio control plane and the thread-safe telemetry registry.

It is a whole-program AST pass.  A first pass indexes every class
(threading lock attributes, attribute/parameter type hints), function
and module-level lock; a second pass walks each function body with a
held-lock stack, resolving calls interprocedurally, and a set of
fixpoints over the resulting call graph derives the findings:

``REP201`` *lock-order-cycle*
    Edges ``A -> B`` whenever ``B`` is acquired (lexically or through
    a call chain) while ``A`` is held.  A cycle means two code paths
    can acquire the same locks in opposite orders; the minimal cycle
    is emitted as a certificate (same Kahn-peel + capped-BFS search
    the CDG prover uses, shared via
    :func:`~repro.analysis.static.cycles.find_minimal_cycle`).
    Lock identities are *instance-insensitive* (one id per declaration
    site), so a self-edge on a non-reentrant ``Lock`` is reported too.

``REP202`` *async-blocking-call*
    A blocking call (``time.sleep``, sync file/socket IO,
    ``subprocess``, a threading-lock wait) is reachable from an
    ``async def`` body.  Reachability propagates through sync callees
    with a witness chain; handing the callable to
    ``loop.run_in_executor``/``asyncio.to_thread`` escapes naturally
    because the callable is an argument, not a call.

``REP204`` *lock-held-across-await*
    An ``await`` while a threading lock is held: every thread (and
    task) contending for the lock stalls for the full suspension.

``REP205`` *unguarded-shared-write*
    An attribute written under a lock somewhere in its class is also
    written with no lock held (``__init__``-family methods exempt;
    the "caller holds the lock" convention is honoured through a
    monotone all-call-sites-guarded fixpoint).

Known limitations (by design, to stay deterministic and fast): lock
identities are per *declaration site*, not per instance; bare
``lock.acquire()`` outside ``with`` does not open a held region; type
inference covers constructor calls, parameter/return annotations and
one level of attribute types.

Findings honour the same ``# noqa`` grammar as the REP1xx lint rules
and can additionally be suppressed by a committed JSON baseline keyed
on ``(rule, path, symbol)`` so entries survive line churn
(:func:`load_baseline` / :func:`apply_baseline`).
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .cycles import find_minimal_cycle
from .lint import iter_python_files, line_suppresses
from .rules import _dotted

__all__ = [
    "ConcurrencyFinding",
    "LockOrderCycle",
    "ConcurrencyReport",
    "analyze_concurrency",
    "analyze_sources",
    "load_baseline",
    "apply_baseline",
    "CONCURRENCY_FIXTURES",
]

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Constructors that create a threading lock, mapped to their kind.
_LOCK_CTORS: Dict[str, str] = {
    "Lock": "Lock",
    "RLock": "RLock",
    "threading.Lock": "Lock",
    "threading.RLock": "RLock",
    "multiprocessing.Lock": "Lock",
    "multiprocessing.RLock": "RLock",
}

#: Calls that block the calling thread (event loop, if async).
_BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "time.sleep()",
    "open": "open()",
    "io.open": "io.open()",
    "os.fdopen": "os.fdopen()",
    "os.makedirs": "os.makedirs()",
    "os.mkdir": "os.mkdir()",
    "os.replace": "os.replace()",
    "os.rename": "os.rename()",
    "os.remove": "os.remove()",
    "os.unlink": "os.unlink()",
    "os.listdir": "os.listdir()",
    "os.scandir": "os.scandir()",
    "tempfile.mkstemp": "tempfile.mkstemp()",
    "tempfile.NamedTemporaryFile": "tempfile.NamedTemporaryFile()",
    "shutil.rmtree": "shutil.rmtree()",
    "shutil.copy": "shutil.copy()",
    "shutil.copy2": "shutil.copy2()",
    "shutil.copytree": "shutil.copytree()",
    "shutil.move": "shutil.move()",
    "socket.socket": "socket.socket()",
    "socket.create_connection": "socket.create_connection()",
    "urllib.request.urlopen": "urllib.request.urlopen()",
}

#: Dotted-prefix families that always block.
_BLOCKING_PREFIXES: Tuple[str, ...] = ("subprocess.", "requests.")

#: Methods whose ``self.attr = ...`` writes are construction, not
#: shared-state mutation (exempt from REP205 on both sides).
_INIT_NAMES = {"__init__", "__new__", "__post_init__"}

#: Cap on enumerated lock-order cycles per report.
_MAX_CYCLES = 8

#: Witness-chain display cap (elements, not characters).
_MAX_CHAIN = 5


def _module_name(path: str) -> str:
    """Deterministic dotted module id for ``path``.

    Everything up to and including a ``src`` component is stripped, so
    ids are stable across absolute/relative invocations.
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p not in ("", ".")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


# ----------------------------------------------------------------------
# Public result types (CdgReport-style artifact shape)
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class ConcurrencyFinding:
    """One REP2xx diagnostic, anchored to a source location and the
    enclosing function/method qualname (``symbol``)."""

    path: str
    line: int
    col: int
    rule_id: str
    symbol: str
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule_id} "
            f"[{self.symbol}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "symbol": self.symbol,
            "message": self.message,
        }

    def baseline_key(self) -> Tuple[str, str, str]:
        """Identity used by the suppression baseline — deliberately
        line-free so entries survive unrelated edits."""
        return (self.rule_id, self.path, self.symbol)


@dataclass(frozen=True)
class LockOrderCycle:
    """A cycle in the lock-acquisition-order graph — a static witness
    that two code paths can deadlock.  ``sites[i]`` documents where
    the ``locks[i] -> locks[(i+1) % n]`` edge was established."""

    locks: Tuple[str, ...]
    sites: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.locks)

    def describe(self) -> str:
        if not self.locks:
            return "<empty>"
        ring = list(self.locks) + [self.locks[0]]
        return " -> ".join(ring)

    def to_dict(self) -> Dict[str, object]:
        return {
            "length": len(self.locks),
            "locks": list(self.locks),
            "sites": list(self.sites),
        }


@dataclass(frozen=True)
class ConcurrencyReport:
    """Outcome of a whole-program concurrency-soundness pass.

    Mirrors :class:`~repro.analysis.static.cdg.CdgReport`: summary
    counts, the full lock-order edge set, cycle certificates, and the
    (post-noqa) finding list; JSON-serializable via :meth:`to_dict` /
    :meth:`write_artifact`.
    """

    num_modules: int
    num_functions: int
    locks: Tuple[Tuple[str, str], ...]
    edges: Tuple[Tuple[str, str, str], ...]
    cycles: Tuple[LockOrderCycle, ...]
    findings: Tuple[ConcurrencyFinding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        head = (
            f"concurrency pass over {self.num_modules} module(s), "
            f"{self.num_functions} function(s): {len(self.locks)} "
            f"lock(s), {len(self.edges)} acquisition-order edge(s)"
        )
        if self.cycles:
            certs = "\n".join(
                f"  cycle of length {len(c)}: {c.describe()}"
                for c in self.cycles
            )
            head += f"\nCYCLIC lock order:\n{certs}"
        else:
            head += "\nlock-order graph acyclic"
        if self.findings:
            body = "\n".join(f.render() for f in self.findings)
            return f"{head}\n{len(self.findings)} finding(s):\n{body}"
        return head + "\nno findings"

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "modules": self.num_modules,
            "functions": self.num_functions,
            "locks": [
                {"id": lock_id, "kind": kind}
                for (lock_id, kind) in self.locks
            ],
            "lock_edges": [
                {"from": frm, "to": to, "site": site}
                for (frm, to, site) in self.edges
            ],
            "cycles": [c.to_dict() for c in self.cycles],
            "findings": [f.to_dict() for f in self.findings],
            "clean": self.clean,
        }

    def write_artifact(self, path: str) -> None:
        """Persist the report as a deterministic JSON artifact."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
# Internal program model
# ----------------------------------------------------------------------
class _ClassInfo:
    """Per-class facts: lock attributes, attribute types, methods."""

    __slots__ = ("qualname", "module", "name", "path", "lock_attrs",
                 "attr_types", "methods")

    def __init__(self, qualname: str, module: str, name: str, path: str):
        self.qualname = qualname
        self.module = module
        self.name = name
        self.path = path
        self.lock_attrs: Dict[str, str] = {}
        self.attr_types: Dict[str, str] = {}
        self.methods: Dict[str, str] = {}


class _FuncInfo:
    """Per-function facts gathered by the body walk."""

    __slots__ = (
        "qualname", "module", "name", "cls", "path", "node", "is_async",
        "nested", "local_types", "local_names", "acquires", "edges", "calls",
        "blocking", "lock_waits", "awaits", "writes",
    )

    def __init__(
        self,
        qualname: str,
        module: str,
        name: str,
        cls: Optional[str],
        path: str,
        node: ast.AST,
    ):
        self.qualname = qualname
        self.module = module
        self.name = name
        self.cls = cls
        self.path = path
        self.node = node
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        self.nested: Dict[str, str] = {}
        self.local_types: Dict[str, str] = {}
        # every locally bound name (params + assignment targets): a
        # dotted "blocking" match whose root is local is a shadow, not
        # a module call (e.g. a list named ``requests``)
        self.local_names: Set[str] = set()
        # (lock, line, col) direct acquisitions
        self.acquires: List[Tuple[str, int, int]] = []
        # (held, acquired, line) lexical order edges
        self.edges: List[Tuple[str, str, int]] = []
        # (callee qualname, line, col, held locks at the call)
        self.calls: List[Tuple[str, int, int, Tuple[str, ...]]] = []
        # (line, col, description) direct blocking calls
        self.blocking: List[Tuple[int, int, str]] = []
        # (line, col, lock) sync lock waits (flagged in async bodies)
        self.lock_waits: List[Tuple[int, int, str]] = []
        # (line, col, innermost held lock) awaits under a lock
        self.awaits: List[Tuple[int, int, str]] = []
        # (attr, line, col, lexical lock or None) self.attr writes
        self.writes: List[Tuple[str, int, int, Optional[str]]] = []


class _Model:
    """The whole-program index both passes share."""

    def __init__(self) -> None:
        self.sources: Dict[str, List[str]] = {}
        self.functions: Dict[str, _FuncInfo] = {}
        self.classes: Dict[str, _ClassInfo] = {}
        self.class_by_name: Dict[str, List[str]] = {}
        self.module_funcs: Dict[Tuple[str, str], str] = {}
        self.fn_by_name: Dict[str, List[str]] = {}
        self.module_locks: Dict[Tuple[str, str], str] = {}
        self.lock_kinds: Dict[str, str] = {}

    def class_for_name(self, name: str) -> Optional[str]:
        """The unique class qualname for a bare name, else None."""
        hits = self.class_by_name.get(name, [])
        return hits[0] if len(hits) == 1 else None


def _lock_ctor_kind(value: ast.AST) -> Optional[str]:
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        if dotted is not None:
            return _LOCK_CTORS.get(dotted)
    return None


# ----------------------------------------------------------------------
# Pass 1 — declaration collection
# ----------------------------------------------------------------------
def _collect_module(model: _Model, path: str, tree: ast.Module) -> None:
    module = _module_name(path)
    for stmt in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if target is None or value is None or not isinstance(target, ast.Name):
            continue
        kind = _lock_ctor_kind(value)
        if kind is not None:
            lock_id = f"{module}.{target.id}"
            model.module_locks[(module, target.id)] = lock_id
            model.lock_kinds[lock_id] = kind
    _collect_body(model, module, path, tree.body, module, None)


def _collect_body(
    model: _Model,
    module: str,
    path: str,
    body: Sequence[ast.stmt],
    prefix: str,
    cls: Optional[str],
) -> None:
    for stmt in body:
        if isinstance(stmt, _FUNC_DEFS):
            qualname = f"{prefix}.{stmt.name}"
            info = _FuncInfo(qualname, module, stmt.name, cls, path, stmt)
            model.functions[qualname] = info
            if cls is not None:
                model.classes[cls].methods[stmt.name] = qualname
            elif prefix == module:
                model.module_funcs[(module, stmt.name)] = qualname
                model.fn_by_name.setdefault(stmt.name, []).append(qualname)
            for sub in stmt.body:
                if isinstance(sub, _FUNC_DEFS):
                    info.nested[sub.name] = f"{qualname}.{sub.name}"
            _collect_body(model, module, path, stmt.body, qualname, None)
        elif isinstance(stmt, ast.ClassDef):
            cq = f"{prefix}.{stmt.name}"
            info_c = _ClassInfo(cq, module, stmt.name, path)
            model.classes[cq] = info_c
            model.class_by_name.setdefault(stmt.name, []).append(cq)
            for sub in stmt.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    ann = _dotted(sub.annotation)
                    if ann is not None and ann in _LOCK_CTORS:
                        info_c.lock_attrs[sub.target.id] = _LOCK_CTORS[ann]
                    if sub.value is not None:
                        kind = _lock_ctor_kind(sub.value)
                        if kind is not None:
                            info_c.lock_attrs[sub.target.id] = kind
            _collect_body(model, module, path, stmt.body, cq, cq)


# ----------------------------------------------------------------------
# Pass 1b — type annotation / lock attribute resolution
# ----------------------------------------------------------------------
def _ann_type(model: _Model, ann: Optional[ast.AST]) -> Optional[str]:
    """Resolve a type annotation to a class qualname.
    ``Optional[X]`` unwraps; containers do not."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        name = ann.value.split("[")[0].strip()
        return model.class_for_name(name.split(".")[-1])
    if isinstance(ann, ast.Subscript):
        head = _dotted(ann.value)
        if head is not None and head.split(".")[-1] == "Optional":
            return _ann_type(model, ann.slice)
        return None
    dotted = _dotted(ann)
    if dotted is None:
        return None
    return model.class_for_name(dotted.split(".")[-1])


def _returns_type(model: _Model, info: _FuncInfo) -> Optional[str]:
    node = info.node
    if isinstance(node, _FUNC_DEFS):
        return _ann_type(model, node.returns)
    return None


def _param_types(model: _Model, node: ast.AST) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if not isinstance(node, _FUNC_DEFS):
        return out
    args = node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        t = _ann_type(model, arg.annotation)
        if t is not None:
            out[arg.arg] = t
    return out


def _value_class(
    model: _Model, params: Dict[str, str], value: ast.AST
) -> Optional[str]:
    """Best-effort static type of an assigned value (pass-1b scope:
    constructor calls, annotated params, conditional fallbacks,
    one-level known-method return annotations)."""
    if isinstance(value, ast.Await):
        return _value_class(model, params, value.value)
    if isinstance(value, ast.Name):
        return params.get(value.id)
    if isinstance(value, ast.IfExp):
        return _value_class(model, params, value.body) or _value_class(
            model, params, value.orelse
        )
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        if dotted is not None:
            cq = model.class_for_name(dotted.split(".")[-1])
            if cq is not None:
                return cq
        # one level of ``self.x = obj.method()`` return inference
        if isinstance(value.func, ast.Attribute) and isinstance(
            value.func.value, ast.Name
        ):
            base_t = params.get(value.func.value.id)
            if base_t is not None and base_t in model.classes:
                mq = model.classes[base_t].methods.get(value.func.attr)
                if mq is not None:
                    return _returns_type(model, model.functions[mq])
    return None


def _annotate_classes(model: _Model) -> None:
    """Fill each class's lock attributes and attribute types from its
    method bodies (``self.X = ...`` sites, typically ``__init__``)."""
    for cq in sorted(model.classes):
        ci = model.classes[cq]
        for mname in sorted(ci.methods):
            info = model.functions[ci.methods[mname]]
            params = _param_types(model, info.node)
            for sub in ast.walk(info.node):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(sub, ast.Assign):
                    targets, value = list(sub.targets), sub.value
                elif isinstance(sub, ast.AnnAssign):
                    targets = [sub.target]
                    value = sub.value
                    ann_t = _dotted(sub.annotation)
                    if (
                        ann_t is not None
                        and ann_t in _LOCK_CTORS
                        and isinstance(sub.target, ast.Attribute)
                        and isinstance(sub.target.value, ast.Name)
                        and sub.target.value.id == "self"
                    ):
                        ci.lock_attrs.setdefault(
                            sub.target.attr, _LOCK_CTORS[ann_t]
                        )
                for target in targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if value is not None:
                        kind = _lock_ctor_kind(value)
                        if kind is not None:
                            ci.lock_attrs.setdefault(attr, kind)
                            continue
                        t = _value_class(model, params, value)
                        if t is not None:
                            ci.attr_types.setdefault(attr, t)
        for attr in sorted(ci.lock_attrs):
            lock_id = f"{cq}.{attr}"
            model.lock_kinds[lock_id] = ci.lock_attrs[attr]


# ----------------------------------------------------------------------
# Pass 2 — function body walk
# ----------------------------------------------------------------------
def _nonblocking_acquire(call: ast.Call) -> bool:
    """``lock.acquire(False)`` / ``acquire(blocking=False)`` cannot
    wait, hence cannot deadlock or stall a loop: skipped entirely."""
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and first.value is False:
            return True
    for kw in call.keywords:
        if (
            kw.arg == "blocking"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
        ):
            return True
    return False


def _blocking_desc(dotted: Optional[str]) -> Optional[str]:
    if dotted is None:
        return None
    desc = _BLOCKING_CALLS.get(dotted)
    if desc is not None:
        return desc
    for prefix in _BLOCKING_PREFIXES:
        if dotted.startswith(prefix):
            return f"{dotted}()"
    return None


class _BodyWalker:
    """Walks one function body with a held-lock stack, populating the
    function's :class:`_FuncInfo` fact lists."""

    def __init__(self, model: _Model, fn: _FuncInfo):
        self.m = model
        self.fn = fn
        self.ci: Optional[_ClassInfo] = (
            model.classes.get(fn.cls) if fn.cls is not None else None
        )

    # -- entry ----------------------------------------------------------
    def run(self) -> None:
        self._prescan()
        node = self.fn.node
        if isinstance(node, _FUNC_DEFS):
            for stmt in node.body:
                self._visit(stmt, ())

    # -- local type prescan --------------------------------------------
    def _prescan(self) -> None:
        self.fn.local_types.update(_param_types(self.m, self.fn.node))
        node = self.fn.node
        if isinstance(node, _FUNC_DEFS):
            args = node.args
            for arg in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            ):
                self.fn.local_names.add(arg.arg)
            for extra in (args.vararg, args.kwarg):
                if extra is not None:
                    self.fn.local_names.add(extra.arg)
            for stmt in node.body:
                self._prescan_stmt(stmt)

    def _prescan_stmt(self, node: ast.AST) -> None:
        if isinstance(node, _FUNC_DEFS + (ast.ClassDef, ast.Lambda)):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            self.fn.local_names.add(node.id)
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value = node.target, node.value
        if isinstance(target, ast.Name):
            t: Optional[str] = None
            if isinstance(node, ast.AnnAssign):
                t = _ann_type(self.m, node.annotation)
            if t is None and value is not None:
                t = self._value_type(value)
            if t is not None:
                self.fn.local_types.setdefault(target.id, t)
        for child in ast.iter_child_nodes(node):
            self._prescan_stmt(child)

    def _value_type(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Await):
            return self._value_type(value.value)
        if isinstance(value, ast.Name):
            return self.fn.local_types.get(value.id)
        if isinstance(value, ast.IfExp):
            return self._value_type(value.body) or self._value_type(
                value.orelse
            )
        if isinstance(value, ast.Call):
            return self._call_result_type(value)
        return None

    def _call_result_type(self, call: ast.Call) -> Optional[str]:
        kind = _lock_ctor_kind(call)
        if kind is not None:
            return f"<{kind}>"  # local lock sentinel type
        dotted = _dotted(call.func)
        if dotted is not None:
            cq = self.m.class_for_name(dotted.split(".")[-1])
            if cq is not None:
                return cq
        callee = self._resolve_call(call.func)
        if callee is not None and callee in self.m.functions:
            return _returns_type(self.m, self.m.functions[callee])
        return None

    # -- type / lock / call resolution ---------------------------------
    def _type_of(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Await):
            return self._type_of(expr.value)
        if isinstance(expr, ast.Name):
            return self.fn.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self.ci is not None
            ):
                return self.ci.attr_types.get(expr.attr)
            base_t = self._type_of(expr.value)
            if base_t is not None and base_t in self.m.classes:
                return self.m.classes[base_t].attr_types.get(expr.attr)
            return None
        if isinstance(expr, ast.Call):
            return self._call_result_type(expr)
        return None

    def _resolve_lock(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            module_lock = self.m.module_locks.get(
                (self.fn.module, expr.id)
            )
            if module_lock is not None:
                return module_lock
            local_t = self.fn.local_types.get(expr.id)
            if local_t in ("<Lock>", "<RLock>"):
                lock_id = f"{self.fn.qualname}.{expr.id}"
                self.m.lock_kinds.setdefault(lock_id, local_t.strip("<>"))
                return lock_id
            return None
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and self.ci is not None
            ):
                if expr.attr in self.ci.lock_attrs:
                    return f"{self.ci.qualname}.{expr.attr}"
                return None
            base_t = self._type_of(expr.value)
            if base_t is not None and base_t in self.m.classes:
                if expr.attr in self.m.classes[base_t].lock_attrs:
                    return f"{base_t}.{expr.attr}"
        return None

    def _resolve_call(self, func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.fn.nested:
                return self.fn.nested[name]
            mq = self.m.module_funcs.get((self.fn.module, name))
            if mq is not None:
                return mq
            hits = self.m.fn_by_name.get(name, [])
            if len(hits) == 1:
                return hits[0]
            cq = self.m.class_for_name(name)
            if cq is not None:
                return self.m.classes[cq].methods.get("__init__")
            return None
        if isinstance(func, ast.Attribute):
            meth = func.attr
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id == "self"
                and self.ci is not None
            ):
                sq = self.ci.methods.get(meth)
                if sq is not None:
                    return sq
            base_t = self._type_of(base)
            if base_t is not None and base_t in self.m.classes:
                return self.m.classes[base_t].methods.get(meth)
            if isinstance(base, ast.Name):
                cq = self.m.class_for_name(base.id)
                if cq is not None:
                    return self.m.classes[cq].methods.get(meth)
            dotted = _dotted(func)
            if dotted is not None:
                cq = self.m.class_for_name(dotted.split(".")[-1])
                if cq is not None:
                    return self.m.classes[cq].methods.get("__init__")
        return None

    # -- events ---------------------------------------------------------
    def _acquire_event(
        self, lock: str, line: int, col: int, held: Tuple[str, ...]
    ) -> None:
        self.fn.acquires.append((lock, line, col))
        for frm in held:
            if frm == lock and self.m.lock_kinds.get(frm) == "RLock":
                continue  # re-entrant re-acquire is legal
            self.fn.edges.append((frm, lock, line))

    def _handle_call(self, node: ast.Call, held: Tuple[str, ...]) -> None:
        line, col = node.lineno, node.col_offset
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            lock = self._resolve_lock(func.value)
            if lock is not None:
                if not _nonblocking_acquire(node):
                    self._acquire_event(lock, line, col, held)
                    if self.fn.is_async:
                        self.fn.lock_waits.append((line, col, lock))
                return
        dotted = _dotted(func)
        desc = _blocking_desc(dotted)
        if (
            desc is not None
            and dotted is not None
            and dotted.split(".")[0] not in self.fn.local_names
        ):
            self.fn.blocking.append((line, col, desc))
        callee = self._resolve_call(func)
        if callee is not None and callee in self.m.functions:
            self.fn.calls.append((callee, line, col, held))

    def _handle_write(self, node: ast.stmt, held: Tuple[str, ...]) -> None:
        if self.ci is None:
            return
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in self.ci.lock_attrs
            ):
                self.fn.writes.append(
                    (
                        target.attr,
                        target.lineno,
                        target.col_offset,
                        held[-1] if held else None,
                    )
                )

    # -- traversal ------------------------------------------------------
    def _visit(self, node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, _FUNC_DEFS + (ast.ClassDef, ast.Lambda)):
            return  # separate scope, walked on its own
        if isinstance(node, ast.With):
            self._visit_with(node, held, is_async=False)
            return
        if isinstance(node, ast.AsyncWith):
            self._visit_with(node, held, is_async=True)
            return
        if isinstance(node, ast.Await) and held and self.fn.is_async:
            self.fn.awaits.append((node.lineno, node.col_offset, held[-1]))
        if isinstance(node, ast.Call):
            self._handle_call(node, held)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._handle_write(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _visit_with(
        self,
        node: "ast.With | ast.AsyncWith",
        held: Tuple[str, ...],
        is_async: bool,
    ) -> None:
        cur = list(held)
        for item in node.items:
            self._visit(item.context_expr, tuple(cur))
            if is_async:
                continue  # ``async with`` targets are asyncio primitives
            lock = self._resolve_lock(item.context_expr)
            if lock is not None:
                line = item.context_expr.lineno
                col = item.context_expr.col_offset
                self._acquire_event(lock, line, col, tuple(cur))
                if self.fn.is_async:
                    self.fn.lock_waits.append((line, col, lock))
                cur.append(lock)
        for stmt in node.body:
            self._visit(stmt, tuple(cur))


# ----------------------------------------------------------------------
# Fixpoints over the call graph
# ----------------------------------------------------------------------
def _lock_graph(
    model: _Model,
) -> Dict[Tuple[str, str], Tuple[str, int, str]]:
    """Acquisition-order edges ``(from, to) -> (path, line, via)``.

    Lexical edges come straight from nested ``with`` blocks;
    call-mediated edges connect every held lock to every lock in the
    callee's *transitive* acquisition set (a monotone fixpoint)."""
    edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
    for q in sorted(model.functions):
        f = model.functions[q]
        for (frm, to, line) in f.edges:
            edges.setdefault((frm, to), (f.path, line, q))
    acq: Dict[str, Set[str]] = {
        q: {lock for (lock, _l, _c) in model.functions[q].acquires}
        for q in model.functions
    }
    changed = True
    while changed:
        changed = False
        for q in sorted(model.functions):
            cur = acq[q]
            for (callee, _line, _col, _held) in model.functions[q].calls:
                extra = acq.get(callee)
                if extra is not None and not extra <= cur:
                    cur |= extra
                    changed = True
    for q in sorted(model.functions):
        f = model.functions[q]
        for (callee, line, _col, held) in f.calls:
            if not held:
                continue
            for to in sorted(acq.get(callee, set())):
                for frm in held:
                    if frm == to and model.lock_kinds.get(frm) == "RLock":
                        continue
                    edges.setdefault(
                        (frm, to), (f.path, line, f"{q} -> {callee}")
                    )
    return edges


def _find_cycles(
    edges: Dict[Tuple[str, str], Tuple[str, int, str]],
) -> List[LockOrderCycle]:
    """Enumerate (up to :data:`_MAX_CYCLES`) minimal lock-order cycles,
    peeling one witnessed edge after each find so distinct cycles
    surface deterministically."""
    nodes = sorted({n for pair in edges for n in pair})
    succ: Dict[str, List[str]] = {n: [] for n in nodes}
    for (frm, to) in sorted(edges):
        succ[frm].append(to)
    work: Dict[str, Tuple[str, ...]] = {
        n: tuple(targets) for n, targets in succ.items()
    }
    cycles: List[LockOrderCycle] = []
    while len(cycles) < _MAX_CYCLES:
        cyc = find_minimal_cycle(work)
        if cyc is None:
            break
        sites = []
        for i, frm in enumerate(cyc):
            to = cyc[(i + 1) % len(cyc)]
            path, line, via = edges[(frm, to)]
            sites.append(f"{path}:{line} ({via})")
        cycles.append(LockOrderCycle(locks=tuple(cyc), sites=tuple(sites)))
        last, first = cyc[-1], cyc[0]
        work[last] = tuple(x for x in work[last] if x != first)
    return cycles


def _blocking_witness(model: _Model) -> Dict[str, Tuple[str, ...]]:
    """May-block witness chains: function qualname -> human-readable
    chain ending at a concrete blocking call site."""
    witness: Dict[str, Tuple[str, ...]] = {}
    for q in sorted(model.functions):
        f = model.functions[q]
        if f.blocking:
            line, _col, desc = min(f.blocking)
            witness[q] = (f"{desc} at {f.path}:{line}",)
    changed = True
    while changed:
        changed = False
        for q in sorted(model.functions):
            if q in witness:
                continue
            for (callee, _line, _col, _held) in model.functions[q].calls:
                tail = witness.get(callee)
                if tail is not None:
                    chain: Tuple[str, ...] = (callee,) + tail
                    if len(chain) > _MAX_CHAIN:
                        chain = chain[:2] + ("...",) + chain[-2:]
                    witness[q] = chain
                    changed = True
                    break
    return witness


def _guarded_functions(model: _Model) -> Dict[str, bool]:
    """The "caller holds the lock" fixpoint: a function is guarded iff
    it has at least one analyzed call site and *every* site either
    holds a lock lexically or sits in a guarded function."""
    sites: Dict[str, List[Tuple[str, bool]]] = {}
    for q in sorted(model.functions):
        for (callee, _line, _col, held) in model.functions[q].calls:
            sites.setdefault(callee, []).append((q, bool(held)))
    guarded: Dict[str, bool] = {q: False for q in model.functions}
    changed = True
    while changed:
        changed = False
        for q in sorted(model.functions):
            if guarded[q]:
                continue
            entry = sites.get(q)
            if entry and all(
                held or guarded[caller] for (caller, held) in entry
            ):
                guarded[q] = True
                changed = True
    return guarded


# ----------------------------------------------------------------------
# Finding assembly
# ----------------------------------------------------------------------
def _rep201_findings(
    cycles: Sequence[LockOrderCycle],
    edges: Dict[Tuple[str, str], Tuple[str, int, str]],
) -> List[ConcurrencyFinding]:
    out: List[ConcurrencyFinding] = []
    for cyc in cycles:
        first_to = cyc.locks[1] if len(cyc.locks) > 1 else cyc.locks[0]
        path, line, via = edges[(cyc.locks[0], first_to)]
        out.append(
            ConcurrencyFinding(
                path=path,
                line=line,
                col=0,
                rule_id="REP201",
                symbol=via,
                message=(
                    f"lock-order cycle: {cyc.describe()} "
                    f"(edge sites: {'; '.join(cyc.sites)})"
                ),
            )
        )
    return out


def _async_findings(
    model: _Model, witness: Dict[str, Tuple[str, ...]]
) -> List[ConcurrencyFinding]:
    out: List[ConcurrencyFinding] = []
    for q in sorted(model.functions):
        f = model.functions[q]
        if not f.is_async:
            continue
        emitted: Set[Tuple[int, int]] = set()
        for (line, col, desc) in sorted(f.blocking):
            out.append(
                ConcurrencyFinding(
                    f.path, line, col, "REP202", q,
                    f"blocking {desc} inside async def stalls the event "
                    "loop; hand off via await loop.run_in_executor(...)",
                )
            )
            emitted.add((line, col))
        for (line, col, lock) in sorted(f.lock_waits):
            if (line, col) in emitted:
                continue
            out.append(
                ConcurrencyFinding(
                    f.path, line, col, "REP202", q,
                    f"sync wait on threading lock {lock} inside async def "
                    "blocks the event loop",
                )
            )
            emitted.add((line, col))
        for (callee, line, col, _held) in f.calls:
            if (line, col) in emitted:
                continue
            tail = witness.get(callee)
            if tail is None or model.functions[callee].is_async:
                continue  # async callees report at their own body
            chain = (callee,) + tail if tail[0] != callee else tail
            out.append(
                ConcurrencyFinding(
                    f.path, line, col, "REP202", q,
                    "call reaches blocking " + " -> ".join(chain),
                )
            )
            emitted.add((line, col))
        for (line, col, lock) in sorted(f.awaits):
            out.append(
                ConcurrencyFinding(
                    f.path, line, col, "REP204", q,
                    f"await while holding {lock}; the lock stays held "
                    "across the suspension point",
                )
            )
    return out


def _write_findings(
    model: _Model, guarded: Dict[str, bool]
) -> List[ConcurrencyFinding]:
    by_key: Dict[
        Tuple[str, str], List[Tuple[_FuncInfo, int, int, Optional[str]]]
    ] = {}
    for q in sorted(model.functions):
        f = model.functions[q]
        if f.cls is None or f.name in _INIT_NAMES:
            continue
        for (attr, line, col, lex_lock) in f.writes:
            guard: Optional[str] = lex_lock
            if guard is None and guarded[f.qualname]:
                guard = "<caller-held lock>"
            by_key.setdefault((f.cls, attr), []).append((f, line, col, guard))
    out: List[ConcurrencyFinding] = []
    for key in sorted(by_key):
        entries = by_key[key]
        guarded_writes = [e for e in entries if e[3] is not None]
        unguarded = [e for e in entries if e[3] is None]
        if not (guarded_writes and unguarded):
            continue
        exemplar_fn, ex_line, _ex_col, ex_lock = guarded_writes[0]
        lock_name = (
            ex_lock if ex_lock != "<caller-held lock>" else "a caller-held lock"
        )
        _cls, attr = key
        for (f, line, col, _guard) in unguarded:
            out.append(
                ConcurrencyFinding(
                    f.path, line, col, "REP205", f.qualname,
                    f"write to self.{attr} with no lock held; "
                    f"{exemplar_fn.qualname} (line {ex_line}) guards the "
                    f"same attribute with {lock_name}",
                )
            )
    return out


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def analyze_sources(sources: Mapping[str, str]) -> ConcurrencyReport:
    """Run the whole-program pass over ``{path: source}`` pairs."""
    model = _Model()
    trees: Dict[str, ast.Module] = {}
    findings: List[ConcurrencyFinding] = []
    for path in sorted(sources):
        text = sources[path]
        model.sources[path] = text.splitlines()
        try:
            trees[path] = ast.parse(text, filename=path)
        except SyntaxError as exc:
            findings.append(
                ConcurrencyFinding(
                    path, exc.lineno or 0, exc.offset or 0, "REP000",
                    "<module>", f"syntax error: {exc.msg}",
                )
            )
    for path in sorted(trees):
        _collect_module(model, path, trees[path])
    _annotate_classes(model)
    for q in sorted(model.functions):
        _BodyWalker(model, model.functions[q]).run()

    edge_map = _lock_graph(model)
    cycles = _find_cycles(edge_map)
    witness = _blocking_witness(model)
    guarded = _guarded_functions(model)

    findings.extend(_rep201_findings(cycles, edge_map))
    findings.extend(_async_findings(model, witness))
    findings.extend(_write_findings(model, guarded))

    kept: List[ConcurrencyFinding] = []
    for v in sorted(set(findings)):
        lines = model.sources.get(v.path, [])
        text = lines[v.line - 1] if 0 < v.line <= len(lines) else ""
        if not line_suppresses(text, v.rule_id):
            kept.append(v)

    return ConcurrencyReport(
        num_modules=len(sources),
        num_functions=len(model.functions),
        locks=tuple(
            (lock_id, model.lock_kinds[lock_id])
            for lock_id in sorted(model.lock_kinds)
        ),
        edges=tuple(
            (frm, to, f"{edge_map[(frm, to)][0]}:{edge_map[(frm, to)][1]}")
            for (frm, to) in sorted(edge_map)
        ),
        cycles=tuple(cycles),
        findings=tuple(kept),
    )


def analyze_concurrency(paths: Sequence[str]) -> ConcurrencyReport:
    """Run the pass over files and/or directory trees (``.py`` only),
    walking exactly like the lint engine."""
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            sources[path] = fh.read()
    return analyze_sources(sources)


# ----------------------------------------------------------------------
# Suppression baseline
# ----------------------------------------------------------------------
def load_baseline(path: str) -> List[Dict[str, str]]:
    """Load a committed suppression baseline.

    Schema: ``{"schema": 1, "suppressions": [{"rule", "path",
    "symbol", "reason"}, ...]}``; every field is required so each
    suppression carries its justification."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("schema") != 1:
        raise ValueError(f"{path}: expected baseline schema 1")
    entries = payload.get("suppressions")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'suppressions' must be a list")
    out: List[Dict[str, str]] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: suppression #{i} is not an object")
        for field_name in ("rule", "path", "symbol", "reason"):
            if not isinstance(entry.get(field_name), str):
                raise ValueError(
                    f"{path}: suppression #{i} missing string field "
                    f"{field_name!r}"
                )
        out.append({k: str(entry[k]) for k in ("rule", "path", "symbol",
                                               "reason")})
    return out


def apply_baseline(
    findings: Sequence[ConcurrencyFinding],
    entries: Sequence[Mapping[str, str]],
) -> Tuple[List[ConcurrencyFinding], List[Dict[str, str]]]:
    """Split findings against a baseline.

    Returns ``(new, stale)``: findings not covered by any entry, and
    entries matching no current finding.  Stale entries are an error
    in the CLI gate — the baseline must never silently grow *or* rot.
    """
    baseline_keys = {(e["rule"], e["path"], e["symbol"]) for e in entries}
    finding_keys = {f.baseline_key() for f in findings}
    new = [f for f in findings if f.baseline_key() not in baseline_keys]
    stale = [
        dict(e)
        for e in entries
        if (e["rule"], e["path"], e["symbol"]) not in finding_keys
    ]
    return new, stale


# ----------------------------------------------------------------------
# Seeded known-bad fixtures (each must trip its rule; pinned in
# tests/test_static_concurrency.py)
# ----------------------------------------------------------------------
CONCURRENCY_FIXTURES: Dict[str, str] = {
    "REP201": (
        "import threading\n"
        "a = threading.Lock()\n"
        "b = threading.Lock()\n"
        "def first():\n"
        "    with a:\n"
        "        with b:\n"
        "            pass\n"
        "def second():\n"
        "    with b:\n"
        "        with a:\n"
        "            pass\n"
    ),
    "REP202": (
        "import time\n"
        "async def poll():\n"
        "    time.sleep(1)\n"
    ),
    "REP204": (
        "import threading\n"
        "_lock = threading.Lock()\n"
        "async def refresh(conn):\n"
        "    with _lock:\n"
        "        await conn.fetch()\n"
    ),
    "REP205": (
        "import threading\n"
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.hits = 0\n"
        "    def record(self):\n"
        "        with self._lock:\n"
        "            self.hits += 1\n"
        "    def sloppy(self):\n"
        "        self.hits = 0\n"
    ),
}
