"""Golden gossip sim runs: AD-PSGD's update log and result, pinned.

The values below were captured at commit fabbf37, while the gossip sim
still counted its updates beside :func:`repro.runtime.cycle.dispatch`
instead of through it, so moving that bookkeeping is proven against the
old implementation rather than against itself.  Orders and staleness
sequences are one digit per update.  On four workers the ring *is* the
bipartite graph (edges 0-1, 1-2, 2-3, 3-0), so those two entries agree;
the five-worker complete graph leaves one worker unmatched each round,
which is what makes its staleness sequence non-trivial.

``complete-m5``'s ``total_virtual_time`` was re-captured (0.16648573163792682
-> 0.16553175779263438) when the sim's rounds began driving the shared
gossip cycle: its budget ends after worker 3 of the fifth round, and the
last round now pairs only workers that took their step, where it used to
charge a transfer to a pair that included worker 4.  Its finishing order,
staleness and final loss did not move.
"""

from unittest import mock

import pytest

from repro.core import TrainingConfig
from repro.runtime import ExperimentSession, run_experiment

GOLDEN = {
    "ring": dict(
        config=dict(topology="ring", num_workers=4),
        finishing_order="0123" * 6,
        staleness="1" * 24,
        total_virtual_time=0.19468058812334174,
        final_train_loss=1.9555091857910156,
    ),
    "bipartite": dict(
        config=dict(topology="bipartite", num_workers=4),
        finishing_order="0123" * 6,
        staleness="1" * 24,
        total_virtual_time=0.19468058812334174,
        final_train_loss=1.9555091857910156,
    ),
    "complete-m5": dict(
        config=dict(topology="complete", num_workers=5),
        finishing_order="01234" * 4 + "0123",
        staleness="111112111131111411111111",
        total_virtual_time=0.16553175779263438,
        final_train_loss=2.054408550262451,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_gossip_sim_run_matches_the_golden_log(name):
    golden = GOLDEN[name]
    applied = []
    record_update = ExperimentSession.record_update

    def spy(self, now, worker, staleness, loss):
        applied.append((worker, staleness))
        return record_update(self, now, worker, staleness, loss)

    cfg = TrainingConfig.tiny(algorithm="ad-psgd", seed=5, **golden["config"])
    with mock.patch.object(ExperimentSession, "record_update", spy):
        result = run_experiment(cfg, backend="sim")

    assert "".join(str(w) for w in result.finishing_order) == golden["finishing_order"]
    assert [w for w, _ in applied] == result.finishing_order
    assert "".join(str(k) for _, k in applied) == golden["staleness"]
    assert result.total_virtual_time == pytest.approx(golden["total_virtual_time"], rel=1e-9)
    assert result.curve[-1].train_loss == pytest.approx(golden["final_train_loss"], rel=1e-9)
