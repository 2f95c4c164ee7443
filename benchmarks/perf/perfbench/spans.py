"""Spans recorded from outside: wrappers around the program's public callables.

The tracer replaces each target (a method on a class, or a module-level
function everywhere it was imported by name) with a wrapper that records
``(id, name, thread, start, end, parent)``.  ``parent`` is the span that
was open on the *same thread* when this one started, so a layer's self
time is its duration minus its direct children's — work on another
thread never subtracts from it.  Spans stay in memory and are written
out once, after the traced repeat.

End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Tuple

#: span name -> ("module", "Class.attr" | "function"), one or more per name
TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.predictors.loss.observe": (("repro.core.predictors.loss_predictor", "LSTMLossPredictor.observe"),),
    "core.predictors.loss.predict_next": (("repro.core.predictors.loss_predictor", "LSTMLossPredictor.predict_next"),),
    "core.predictors.loss.predict_delay": (("repro.core.predictors.loss_predictor", "LSTMLossPredictor.predict_delay"),),
    "core.predictors.step.observe": (("repro.core.predictors.step_predictor", "LSTMStepPredictor.observe"),),
    "core.predictors.step.predict": (("repro.core.predictors.step_predictor", "LSTMStepPredictor.predict"),),
    "core.server.handle_state": (("repro.core.server", "ParameterServer.handle_state"),),
    "core.server.handle_pull": (("repro.core.server", "ParameterServer.handle_pull"),),
    "core.server.handle_gradient": (("repro.core.server", "ParameterServer.handle_gradient"),),
    "nn.rnn.lstm_forward": (("repro.nn.rnn", "LSTM.forward"),),
    "tensor.backward": (("repro.tensor.tensor", "Tensor.backward"),),
    "core.worker.load_params": (("repro.core.worker", "DistributedWorker.load_params"),),
    "core.worker.forward": (("repro.core.worker", "DistributedWorker.forward"),),
    "core.worker.backward": (("repro.core.worker", "DistributedWorker.backward"),),
    "optim.sgd.step": (("repro.optim.sgd", "SGD.step"),),
    "data.loader.next_batch": (("repro.data.loader", "DataLoader.next_batch"),),
    "cluster.simulator.schedule": (("repro.cluster.simulator", "Simulator.schedule"),),
    "cluster.trace.record": (("repro.cluster.trace", "ClusterTrace.record"),),
    "runtime.wire.encode": (("repro.runtime.wire", "encode_message_into"),),
    "runtime.wire.decode": (("repro.runtime.wire", "decode_frame"),),
    "runtime.wire.send_parts": (("repro.runtime.wire", "FrameConnection.send_parts"),),
    "runtime.wire.read_frame": (("repro.runtime.wire", "FrameConnection.read_frame"),),
    "runtime.server_actor.loop": (("repro.runtime.server_actor", "server_actor_loop"),),
    "runtime.transport.to_server": (
        ("repro.runtime.transport", "InProcTransport.to_server"),
        ("repro.runtime.proc_backend", "SocketTransport.to_server"),
    ),
    "runtime.transport.to_worker": (
        ("repro.runtime.transport", "InProcTransport.to_worker"),
        ("repro.runtime.proc_backend", "SocketTransport.to_worker"),
    ),
    "runtime.transport.mailbox_get": (("repro.runtime.transport", "Mailbox.get"),),
    "runtime.session.plan_build": (("repro.runtime.session", "ExperimentPlan.from_config"),),
    "runtime.session.build_result": (("repro.runtime.session", "ExperimentSession.build_result"),),
    "runtime.session.evaluate": (("repro.runtime.session", "ExperimentSession.evaluate"),),
    "experiments.spec.key": (("repro.experiments.spec", "ExperimentSpec.key"),),
    "experiments.store.put": (("repro.experiments.store", "ResultStore.put"),),
    "experiments.executors.execute_spec": (("repro.experiments.executors", "execute_spec"),),
}


class Span(NamedTuple):
    id: int
    name: str
    thread: int
    start: float
    end: float
    parent: int  # -1: nothing was open on this thread


class Tracer:
    """Install wrappers, collect spans, restore the originals."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        #: (owner, attribute, original) for every replaced binding
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` recorded around every call."""
        spans, local, ids = self.spans, self._local, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                # list.append is atomic under the GIL: no lock on the hot path
                spans.append(Span(span_id, name, ident(), start, end, parent))

        return traced

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        # vars(), not getattr: a classmethod must be put back as the
        # descriptor object, not as the bound method getattr would return
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, targets: Dict[str, Iterable[Tuple[str, str]]] = TARGETS) -> None:
        """Wrap every target.  Call :meth:`uninstall` in a ``finally``."""
        for name, sites in targets.items():
            for module_name, path in sites:
                module = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    raw = vars(owner)[attr]
                    if isinstance(raw, classmethod):
                        self._replace(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        self._replace(owner, attr, self.wrap(name, raw))
                    continue
                original = getattr(module, path)
                wrapper = self.wrap(name, original)
                # ``from m import f`` copied the binding: patch every copy
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("repro") and (
                        vars(other).get(path) is original
                    ):
                        self._replace(other, path, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump_jsonl(self, path: Path) -> None:
        """One JSON object per span, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict(), separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_times(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, total self seconds)``.

    Self time = duration minus the durations of direct children (spans
    whose ``parent`` is this one — by construction on the same thread and
    inside its interval).
    """
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + (span.end - span.start)
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        calls, total = totals.get(span.name, (0, 0.0))
        own = (span.end - span.start) - child_time.get(span.id, 0.0)
        totals[span.name] = (calls + 1, total + own)
    return totals


def covered_seconds(spans: Iterable[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by at least one root span, any thread."""
    intervals = sorted(
        (max(s.start, start), min(s.end, end)) for s in spans if s.parent < 0
    )
    covered = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
