"""wire-completeness: every ControlFrame kind is both built and consumed.

The proc handshake's kind literals must be consumed by the peer that
receives them (worker->parent and parent->worker checked separately), and
``fleet/protocol.py``'s frame builders must agree exactly with its
``_FRAME_KINDS`` parser vocabulary.  Message codecs need no check here:
:mod:`repro.runtime.wire` derives them from the message dataclasses, so
there is no table to fall out of sync.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.base import AnalysisPass, Finding, SourceFile, SourceTree, register_pass

FLEET_PROTOCOL_PATH = "fleet/protocol.py"
PROC_WORKER_PATH = "runtime/proc_worker.py"
PROC_BACKEND_PATH = "runtime/proc_backend.py"


def _built_control_kinds(
    source: SourceFile, builders: Tuple[str, ...] = ("ControlFrame",)
) -> List[Tuple[str, int]]:
    """Kind literals constructed via ``ControlFrame("kind", ...)`` (or any
    named builder) in this module."""
    kinds: List[Tuple[str, int]] = []
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        if name not in builders or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            kinds.append((first.value, node.lineno))
    return kinds


def _checked_control_kinds(source: SourceFile) -> Set[str]:
    """Kind literals this module compares against some ``.kind`` attribute."""
    kinds: Set[str] = set()
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left] + list(node.comparators)
        touches_kind = any(
            isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides
        )
        if not touches_kind:
            continue
        for side in sides:
            if isinstance(side, ast.Constant) and isinstance(side.value, str):
                kinds.add(side.value)
    return kinds


def _frame_kinds_vocabulary(source: SourceFile) -> Tuple[Set[str], Optional[int]]:
    """Keys of the module-level ``_FRAME_KINDS`` dict and its line."""
    for node in source.tree.body:
        if not (isinstance(node, (ast.Assign, ast.AnnAssign))):
            continue
        target = node.targets[0] if isinstance(node, ast.Assign) else node.target
        if not (isinstance(target, ast.Name) and target.id == "_FRAME_KINDS"):
            continue
        value = node.value
        if isinstance(value, ast.Dict):
            keys = {
                k.value
                for k in value.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            }
            return keys, node.lineno
    return set(), None


@register_pass
class WireCompletenessPass(AnalysisPass):
    name = "wire"
    description = (
        "ControlFrame kinds encode/decode symmetrically; message codecs are derived"
    )

    def run(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_fleet_symmetry(tree))
        findings.extend(self._check_proc_symmetry(tree))
        return findings

    # -------------------------------------------------------------- #
    def _check_fleet_symmetry(self, tree: SourceTree) -> List[Finding]:
        protocol = tree.find(FLEET_PROTOCOL_PATH)
        if protocol is None:
            return []
        findings: List[Finding] = []
        built = _built_control_kinds(protocol, builders=("_frame", "ControlFrame"))
        vocabulary, vocab_line = _frame_kinds_vocabulary(protocol)
        if vocab_line is None:
            return [
                Finding(
                    self.name, FLEET_PROTOCOL_PATH, 1,
                    "no _FRAME_KINDS parser vocabulary found",
                )
            ]
        for kind, lineno in built:
            if kind not in vocabulary:
                findings.append(
                    Finding(
                        self.name,
                        FLEET_PROTOCOL_PATH,
                        lineno,
                        f"fleet frame kind {kind!r} is built but missing from the "
                        f"_FRAME_KINDS parser vocabulary",
                    )
                )
        built_kinds = {kind for kind, _ in built}
        for kind in sorted(vocabulary - built_kinds):
            findings.append(
                Finding(
                    self.name,
                    FLEET_PROTOCOL_PATH,
                    vocab_line,
                    f"fleet frame kind {kind!r} is parseable but no builder "
                    f"constructs it",
                )
            )
        return findings

    # -------------------------------------------------------------- #
    def _check_proc_symmetry(self, tree: SourceTree) -> List[Finding]:
        worker = tree.find(PROC_WORKER_PATH)
        backend = tree.find(PROC_BACKEND_PATH)
        if worker is None or backend is None:
            return []
        findings: List[Finding] = []
        pairs = (
            (worker, PROC_WORKER_PATH, backend, "runtime/proc_backend.py"),
            (backend, PROC_BACKEND_PATH, worker, "runtime/proc_worker.py"),
        )
        for sender, sender_path, receiver, receiver_path in pairs:
            sent = _built_control_kinds(sender)
            consumed = _checked_control_kinds(receiver)
            for kind, lineno in sent:
                if kind not in consumed:
                    findings.append(
                        Finding(
                            self.name,
                            sender_path,
                            lineno,
                            f"handshake ControlFrame kind {kind!r} is sent here but "
                            f"never examined by {receiver_path}",
                        )
                    )
        return findings
