"""A proc cell's result must not depend on the proc runs its process made before.

The proc backend may hand a run worker children that an earlier run in the
same process already used.  This is the oracle for that: each M=1 cell on
the repo benchmark's ``config(...)`` shape is fingerprinted — every applied
update (worker, staleness, loss bits), the curve's errors and losses,
finishing order, staleness summary, update count and the message and logical
byte counts; wall-clock fields left out — and the fingerprint must be
byte-equal whether the cell runs

(i)   first in a fresh process (the reference),
(ii)  after a run with the same config,
(iii) after a run with a different config (``BEFORE``),

and an obs-off run must match after an obs-on one.  With one worker the
cycle is strictly serial, so every loss and staleness value repeats bit for
bit across processes.  Of ``comm`` only ``messages`` and ``logical_bytes``
are compared.  Up to protocol v5 the wire-byte keys varied between two fresh
processes (JSON headers printed wall-clock floats to a varying number of
digits: 5083323 and 5083449 wire bytes for two fresh ``asgd_raw32`` runs).
Since v6 they are a function of the spec (``test_proc_backend.py`` pins
that), and they stay out so that a fingerprint reads the same across
protocol versions.

An M=2 run after an M=1 run checks invariants only, since two children race.

Run as a script (``python test_proc_reuse_oracle.py <cell>``) it prints one
cell's fingerprint; that is how (i) gets its fresh process.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

REPO = Path(__file__).resolve().parents[2]
for _entry in (REPO / "src", REPO / "benchmarks" / "perf"):
    if str(_entry) not in sys.path:
        sys.path.append(str(_entry))

from perfbench.workloads import config  # noqa: E402  (the benchmark's pinned shape)

from repro.runtime.backends import run_experiment  # noqa: E402
from repro.runtime.session import ExperimentSession  # noqa: E402
from repro.runtime.messages import Ready  # noqa: E402
from repro.runtime.wire import FrameConnection  # noqa: E402

SEED = 11
UPDATES = 48
TIMEOUT = 120.0

#: name -> (algorithm, config overrides); all M=1
CELLS = {
    "asgd_raw32": ("asgd", {"comm_codec": "raw32"}),
    # topk keeps a residual per connection: a second run must start from zero
    "asgd_topk": ("asgd", {"comm_codec": "topk"}),
    # fp16 also casts the parent's downlink (the pulled weights)
    "asgd_fp16": ("asgd", {"comm_codec": "fp16"}),
    # bn_mode="local": worker 0 streams its BN statistics back once per run
    "sgd_local_bn": ("sgd", {}),
}
#: case (iii): the different config each cell runs after
BEFORE = {
    "asgd_raw32": "asgd_topk",  # codec state left by a topk run
    "asgd_topk": "asgd_fp16",  # a parent codec left by an fp16 run
    "asgd_fp16": "sgd_local_bn",
    "sgd_local_bn": "asgd_raw32",
}


def run_cell(name: str, workers: int = 1, obs: bool = False):
    algorithm, overrides = CELLS[name]
    cfg = config(algorithm, workers, UPDATES, SEED, **overrides)
    return run_experiment(cfg, backend="proc", obs=obs, time_scale=0.0, timeout=TIMEOUT)


def applied_updates(run):
    """``(result, [[worker, staleness, loss bits], ...])`` of ``run()``."""
    applied = []
    record_update = ExperimentSession.record_update

    def spy(self, now, worker, staleness, loss):
        applied.append([int(worker), int(staleness), float(loss).hex()])
        return record_update(self, now, worker, staleness, loss)

    with mock.patch.object(ExperimentSession, "record_update", spy):
        result = run()
    return result, applied


def fingerprint(name: str) -> str:
    """Canonical JSON of everything the cell computed; floats as hex bits."""
    result, applied = applied_updates(lambda: run_cell(name))
    return json.dumps(
        {
            "applied": applied,
            "curve": [
                [
                    p.epoch,
                    p.train_error.hex(),
                    p.train_loss.hex(),
                    p.test_error.hex(),
                    p.test_loss.hex(),
                ]
                for p in result.curve
            ],
            "finishing_order": [int(w) for w in result.finishing_order],
            "staleness": result.staleness,
            "total_updates": result.total_updates,
            "comm": [result.comm["messages"], result.comm["logical_bytes"]],
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def alone():
    """Case (i): each cell's fingerprint from a process that ran nothing else."""
    cache = {}

    def reference(name: str) -> str:
        if name not in cache:
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), name],
                capture_output=True, text=True, env=env, timeout=2 * TIMEOUT,
            )
            assert proc.returncode == 0, proc.stderr
            cache[name] = proc.stdout.strip().splitlines()[-1]
        return cache[name]

    return reference


@pytest.mark.parametrize("name", sorted(CELLS))
def test_same_result_after_a_run_with_the_same_config(name, alone):
    run_cell(name)
    assert fingerprint(name) == alone(name)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_same_result_after_a_run_with_a_different_config(name, alone):
    run_cell(BEFORE[name])
    assert fingerprint(name) == alone(name)


def test_obs_off_run_after_an_obs_on_run(alone):
    # the obs-on run's RunEnd carries trace rows; the next run's must
    # carry none, and its result no recorder
    traced = run_cell("asgd_raw32", obs=True)
    assert traced.obs["records"] > 0
    assert fingerprint("asgd_raw32") == alone("asgd_raw32")
    assert run_cell("asgd_raw32").obs == {}


def test_two_workers_after_one_worker():
    run_cell("asgd_raw32")
    ready = []
    recv = FrameConnection.recv

    def spy(self):
        frame, delay = recv(self)
        if isinstance(frame, Ready):
            ready.append(frame.worker)
        return frame, delay

    with mock.patch.object(FrameConnection, "recv", spy):
        result, applied = applied_updates(lambda: run_cell("asgd_raw32", workers=2))
    assert sorted(ready) == [0, 1]  # each worker id handed to exactly one child
    per_worker = Counter(worker for worker, _, _ in applied)
    assert sorted(per_worker) == [0, 1]
    assert result.total_updates == UPDATES == len(applied)
    assert sum(per_worker.values()) == result.total_updates


if __name__ == "__main__":
    print(fingerprint(sys.argv[1]))
