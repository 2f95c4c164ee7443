"""A cell's result must not depend on what the process built before it.

Campaign cells that name the same ``(dataset, dataset_kwargs, seed)`` may be
handed one shared dataset instead of each synthesising its own.  This is the
oracle for that: three cells on the repo benchmark's ``config(...)`` shape are
fingerprinted — every applied update (worker, staleness, loss bits), the
curve, finishing order, staleness summary, final loss / error and (sim
cells) ``comm``; wall-clock fields left out — and the fingerprint must be byte-equal whether
the cell runs

(i)   alone in a fresh subprocess (the reference),
(ii)  after another cell with the same dataset key,
(iii) after a cell with a different dataset key,
(iv)  after its dataset was built, shared and then evicted from the table.

(i)-(iii) were committed before ``build_dataset`` shared anything and passed
unchanged at that commit; (iv) came with the table.

Run as a script (``python test_dataset_reuse_oracle.py <cell>``) it prints one
cell's fingerprint; that is how (i) gets its fresh process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

REPO = Path(__file__).resolve().parents[2]
for _entry in (REPO / "src", REPO / "benchmarks" / "perf"):
    if str(_entry) not in sys.path:
        sys.path.append(str(_entry))

from perfbench.workloads import config  # noqa: E402  (the benchmark's pinned shape)

from repro.data import registry  # noqa: E402
from repro.runtime.backends import run_experiment  # noqa: E402
from repro.runtime.session import ExperimentSession  # noqa: E402

SEED = 11

#: name -> (algorithm, workers, updates, backend, backend options)
CELLS = {
    "asgd_sim_m4": ("asgd", 4, 48, "sim", {}),
    "lc-asgd_sim_m4": ("lc-asgd", 4, 24, "sim", {}),
    "asgd_thread_m2": ("asgd", 2, 48, "thread", {"deterministic": True}),
}


def fingerprint(name: str) -> str:
    """Canonical JSON of everything the cell computed; floats as hex bits."""
    algorithm, workers, updates, backend, options = CELLS[name]
    applied = []
    record_update = ExperimentSession.record_update

    def spy(self, now, worker, staleness, loss):
        applied.append([int(worker), int(staleness), float(loss).hex()])
        return record_update(self, now, worker, staleness, loss)

    with mock.patch.object(ExperimentSession, "record_update", spy):
        result = run_experiment(
            config(algorithm, workers, updates, SEED), backend=backend, **options
        )
    # The thread backend stamps wall-clock seconds, and its ``comm`` counts the
    # pull in flight at shutdown or not depending on thread timing (144 or 145
    # messages run to run, before any dataset was shared), so neither is compared.
    virtual_clock = backend == "sim"
    return json.dumps(
        {
            "applied": applied,
            "curve": [
                [
                    p.epoch,
                    p.time.hex() if virtual_clock else None,
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
            "comm": result.comm if virtual_clock else None,
        },
        sort_keys=True,
    )


def run_cell(seed: int, **dataset_overrides) -> None:
    """A short sim cell whose only job is to have built its dataset first."""
    base = config("ssgd", 2, 4, seed)
    run_experiment(
        base.with_overrides(dataset_kwargs={**base.dataset_kwargs, **dataset_overrides})
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
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            cache[name] = proc.stdout.strip()
        return cache[name]

    return reference


@pytest.mark.parametrize("name", sorted(CELLS))
def test_same_result_after_a_cell_with_the_same_dataset_key(name, alone):
    run_cell(SEED)
    assert fingerprint(name) == alone(name)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_same_result_after_a_cell_with_a_different_dataset_key(name, alone):
    run_cell(SEED + 1)
    run_cell(SEED, noise=0.8)
    assert fingerprint(name) == alone(name)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_same_result_after_its_dataset_was_evicted(name, alone, monkeypatch):
    table = registry._DatasetTable(4 * 2**20)  # one 3.5 MB benchmark set at a time
    monkeypatch.setattr(registry, "_TABLE", table)
    run_cell(SEED)  # builds and shares SEED's set
    other = registry.build_dataset(config("asgd", 1, 1, SEED + 1))  # pushes it out
    assert len(table) == 1
    assert registry.build_dataset(config("asgd", 1, 1, SEED + 1)) is other
    assert fingerprint(name) == alone(name)


if __name__ == "__main__":
    print(fingerprint(sys.argv[1]))
