"""lock-discipline: guarded-by annotations + a static lock-order graph.

**Convention.** A shared attribute declares its guard with a trailing
comment where it is initialized::

    self._items = deque()  # guarded-by: _cond

The pass then flags any *write* to that attribute — assignment, augmented
assignment, subscript store, ``del``, or a mutating method call
(``append``/``pop``/``update``/...) — outside a lexical
``with self._cond:`` block, in any method of the class except
``__init__`` (construction happens-before sharing).  Reads are not
checked: many are intentionally lock-free (racy len hints), and the
writes are where corruption comes from.  Nested functions are scanned
with an *empty* held-set — a closure cannot prove its caller holds the
lock.

**Lock ordering.** Independently of annotations, the pass collects every
lexically nested ``with``-acquisition of lock-like objects (attributes
matching ``lock|cond|mutex``, labelled ``Class.attr``) into one directed
graph across the whole tree and fails on cycles — the static half of the
deadlock argument.  The runtime half is
:mod:`repro.analysis.lockorder` (``REPRO_LOCK_TRACE=1``), which checks
the orders actually taken by the thread/gossip tests.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.base import AnalysisPass, Finding, SourceFile, SourceTree, register_pass

_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
_LOCKISH_RE = re.compile(r"lock|cond|mutex", re.IGNORECASE)

#: method names that mutate their receiver in place
_MUTATORS = {
    "append", "appendleft", "extend", "extendleft", "insert", "remove",
    "pop", "popleft", "popitem", "clear", "update", "add", "discard",
    "setdefault", "sort", "reverse",
}


def _self_attr(node: ast.AST) -> Optional[str]:
    """'X' when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _written_self_attr(node: ast.AST) -> Optional[str]:
    """The ``self.X`` a store/del/mutator expression writes, if any."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _self_attr(node)
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _self_attr(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATORS:
            base = node.func.value
            attr = _self_attr(base)
            if attr is not None:
                return attr
            if isinstance(base, ast.Subscript):  # self.X[k].append(...)
                return _self_attr(base.value)
    return None


def _lock_node_name(expr: ast.AST, class_name: Optional[str]) -> Optional[str]:
    """Graph label for a ``with`` item acquiring a lock-like object."""
    attr = _self_attr(expr)
    if attr is not None:
        if _LOCKISH_RE.search(attr):
            return f"{class_name}.{attr}" if class_name else attr
        return None
    if isinstance(expr, ast.Attribute) and _LOCKISH_RE.search(expr.attr):
        return expr.attr  # other_obj.model_lock — identity is the attr name
    if isinstance(expr, ast.Subscript):  # self._locks[key]
        inner = _self_attr(expr.value)
        if inner is not None and _LOCKISH_RE.search(inner):
            return f"{class_name}.{inner}" if class_name else inner
    if isinstance(expr, ast.Name) and _LOCKISH_RE.search(expr.id):
        return expr.id
    return None


def _collect_guards(source: SourceFile, cls: ast.ClassDef) -> Dict[str, Tuple[str, int]]:
    """attr -> (guard lock attr, decl lineno) from guarded-by comments."""
    guards: Dict[str, Tuple[str, int]] = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            match = _GUARD_RE.search(source.line_text(node.lineno))
            if match:
                guards[attr] = (match.group(1), node.lineno)
    return guards


class _ScopeScanner:
    """Walk one method, tracking which ``self.*`` locks are lexically held."""

    def __init__(
        self,
        rule: str,
        source: SourceFile,
        class_name: str,
        guards: Dict[str, Tuple[str, int]],
        findings: List[Finding],
    ) -> None:
        self.rule = rule
        self.source = source
        self.class_name = class_name
        self.guards = guards
        self.findings = findings

    def scan(self, node: ast.AST, held: FrozenSet[str]) -> None:
        attr = _written_self_attr(node)
        if attr is not None and attr in self.guards:
            guard, _ = self.guards[attr]
            if guard not in held:
                self.findings.append(
                    Finding(
                        self.rule,
                        self.source.rel,
                        node.lineno,
                        f"{self.class_name}: write to self.{attr} outside "
                        f"'with self.{guard}' (declared guarded-by: {guard})",
                    )
                )
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in node.items:
                self.scan(item.context_expr, frozenset(acquired))
                item_attr = _self_attr(item.context_expr)
                if item_attr is not None:
                    acquired.add(item_attr)
            for stmt in node.body:
                self.scan(stmt, frozenset(acquired))
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # a nested scope cannot assume its caller holds anything
            for child in ast.iter_child_nodes(node):
                self.scan(child, frozenset())
            return
        for child in ast.iter_child_nodes(node):
            self.scan(child, held)


class _OrderCollector:
    """Lexical lock-nesting edges: held -> acquired, with first witness."""

    def __init__(self) -> None:
        self.edges: Dict[Tuple[str, str], Tuple[str, int]] = {}

    def collect(self, source: SourceFile) -> None:
        for node in source.tree.body:
            self._walk(node, [], None, source)

    def _walk(
        self,
        node: ast.AST,
        held: List[str],
        class_name: Optional[str],
        source: SourceFile,
    ) -> None:
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                self._walk(child, held, node.name, source)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = list(held)
            for item in node.items:
                name = _lock_node_name(item.context_expr, class_name)
                if name is None:
                    continue
                for outer in acquired:
                    if outer != name and (outer, name) not in self.edges:
                        self.edges[(outer, name)] = (source.rel, node.lineno)
                acquired.append(name)
            for child in node.body:
                self._walk(child, acquired, class_name, source)
            return
        for child in ast.iter_child_nodes(node):
            self._walk(child, held, class_name, source)


def _static_cycle(
    edges: Dict[Tuple[str, str], Tuple[str, int]]
) -> Optional[List[str]]:
    adjacency: Dict[str, List[str]] = {}
    for held, acquired in edges:
        adjacency.setdefault(held, []).append(acquired)
    state: Dict[str, int] = {}

    def dfs(node: str, path: List[str]) -> Optional[List[str]]:
        state[node] = 1
        path.append(node)
        for nxt in adjacency.get(node, []):
            if state.get(nxt, 0) == 1:
                return path[path.index(nxt):] + [nxt]
            if state.get(nxt, 0) == 0:
                cycle = dfs(nxt, path)
                if cycle is not None:
                    return cycle
        state[node] = 2
        path.pop()
        return None

    for start in sorted(adjacency):
        if state.get(start, 0) == 0:
            cycle = dfs(start, [])
            if cycle is not None:
                return cycle
    return None


@register_pass
class LockDisciplinePass(AnalysisPass):
    name = "locks"
    description = (
        "writes to '# guarded-by:' attributes must hold the declared lock; "
        "the static lock-acquisition graph must be acyclic"
    )

    def run(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        order = _OrderCollector()
        for source in tree.files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    self._check_class(source, node, findings)
            order.collect(source)
        cycle = _static_cycle(order.edges)
        if cycle is not None:
            steps = " -> ".join(cycle)
            path, line = order.edges[(cycle[0], cycle[1])]
            findings.append(
                Finding(
                    self.name, path, line,
                    f"static lock acquisition cycle: {steps}",
                )
            )
        return findings

    def _check_class(
        self, source: SourceFile, cls: ast.ClassDef, findings: List[Finding]
    ) -> None:
        guards = _collect_guards(source, cls)
        if not guards:
            return
        scanner = _ScopeScanner(self.name, source, cls.name, guards, findings)
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__":
                continue  # construction happens-before sharing
            for child in node.body:
                scanner.scan(child, frozenset())
