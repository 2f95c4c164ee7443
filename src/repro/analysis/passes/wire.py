"""wire-completeness: every handshake and fleet frame one endpoint builds, its peer examines.

The frame classes are the :class:`Frame` subclasses in
``runtime/messages.py`` outside the :class:`Message` family: the proc
handshake, the run-end report and the fleet's campaign frames.  A class
constructed in one endpoint module must be examined (``isinstance`` or
``type(x) is``) in its peer module — ``proc_worker.py`` with
``proc_backend.py``, ``fleet/agent.py`` with ``fleet/scheduler.py`` — or it
is a frame the peer cannot tell apart.  Codecs need no check here:
:mod:`repro.runtime.wire` derives them from the dataclasses, so a class is
its own builder and parser.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.base import AnalysisPass, Finding, SourceFile, SourceTree, register_pass

MESSAGES_PATH = "runtime/messages.py"
#: each endpoint module and its peer
PEERS = (
    ("runtime/proc_worker.py", "runtime/proc_backend.py"),
    ("fleet/agent.py", "fleet/scheduler.py"),
)


def _name(node: ast.AST) -> str:
    """``Cls`` for ``Cls`` or ``module.Cls``; '' otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def _frame_classes(source: SourceFile) -> Set[str]:
    """Classes deriving from ``Frame`` in this module, the Message family aside."""
    bases: Dict[str, List[str]] = {
        node.name: [_name(base) for base in node.bases]
        for node in source.tree.body
        if isinstance(node, ast.ClassDef)
    }

    def reaches(cls: str, target: str) -> bool:
        return any(base == target or reaches(base, target) for base in bases.get(cls, ()))

    return {
        cls for cls in bases
        if reaches(cls, "Frame") and cls != "Message" and not reaches(cls, "Message")
    }


def _constructed(source: SourceFile, frames: Set[str]) -> List[Tuple[str, int]]:
    """Frame classes this module calls, with the line of each call."""
    return [
        (_name(node.func), node.lineno)
        for node in ast.walk(source.tree)
        if isinstance(node, ast.Call) and _name(node.func) in frames
    ]


def _examined(source: SourceFile) -> Set[str]:
    """Classes this module tests a value against: ``isinstance(x, C)``,
    ``isinstance(x, (C, D))``, ``type(x) is C``."""
    names: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance" and len(node.args) == 2:
            target = node.args[1]
            items = target.elts if isinstance(target, ast.Tuple) else [target]
            names.update(_name(item) for item in items)
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and _name(node.left.func) == "type"
        ):
            names.update(
                _name(side)
                for op, side in zip(node.ops, node.comparators)
                if isinstance(op, (ast.Is, ast.Eq))
            )
    return names


@register_pass
class WireCompletenessPass(AnalysisPass):
    name = "wire"
    description = (
        "every handshake/fleet frame class an endpoint builds, its peer examines"
    )

    def run(self, tree: SourceTree) -> List[Finding]:
        messages = tree.find(MESSAGES_PATH)
        if messages is None:
            return []
        frames = _frame_classes(messages)
        findings: List[Finding] = []
        for a, b in PEERS:
            sources = {path: tree.find(path) for path in (a, b)}
            if None in sources.values():
                continue
            for sender, receiver in ((a, b), (b, a)):
                examined = _examined(sources[receiver])
                findings.extend(
                    Finding(
                        self.name,
                        sender,
                        lineno,
                        f"frame {cls} is built here but never examined by {receiver}",
                    )
                    for cls, lineno in _constructed(sources[sender], frames)
                    if cls not in examined
                )
        return findings
