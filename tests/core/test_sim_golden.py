"""Golden sim runs: the event schedule of every server-based algorithm.

The values below were captured at commit 50787a0, *before* the worker
cycle and the server dispatch were consolidated, so a refactor of either
is proven against the old implementation rather than against itself.
Orders and staleness sequences are one digit per update (ids and staleness
are < 10 at these sizes).

The two ``lc-asgd`` entries also pin what the predictors said: the step
predictor's forecast ``k`` per landed gradient and the Figure-7 mean
absolute error of the loss predictor's one-step forecasts.  Those were
captured at commit 94f6289, while the predictors still ran on the autograd
``nn.LSTM``.  The fused ``SeriesLSTM`` kernel that replaced it sums in a
different float32 order, so for these two entries everything that passes
through predictor numerics is held to a tolerance instead of ``1e-9``
(observed drift at the swap: 1e-7 relative on both the final loss and the
MAE, every predicted ``k`` unchanged); the event schedule does not depend
on predictor numerics and stays exact.

Their final loss and MAE were re-captured when the loss predictor began
reading its forecast, its delay prefix and its training window from one
window pass, feeding the newest loss once (the MAE moved by -0.5 % and
-0.3 %, the final loss by under 3e-4 relative); the event schedule and
every predicted ``k`` stayed as they were.
"""

import numpy as np

import pytest

from repro.core import DistributedTrainer, TrainingConfig

GOLDEN = {
    "sgd": dict(
        config=dict(algorithm="sgd", num_workers=1),
        finishing_order="000000000000000000000000",
        staleness="000000000000000000000000",
        processed_events=96,
        total_virtual_time=0.7208242370129496,
        final_train_loss=1.140099287033081,
    ),
    "ssgd": dict(
        config=dict(algorithm="ssgd", num_workers=4),
        finishing_order="132012301230123012301320",
        staleness="000000000000000000000000",
        processed_events=102,
        total_virtual_time=0.21400520914640064,
        final_train_loss=1.9571062326431274,
    ),
    "asgd": dict(
        config=dict(algorithm="asgd", num_workers=4),
        finishing_order="132012301230123012310231",
        staleness="012322333233333333324333",
        processed_events=105,
        total_virtual_time=0.203293061199704,
        final_train_loss=1.1257407665252686,
    ),
    "dc-asgd": dict(
        config=dict(algorithm="dc-asgd", num_workers=4),
        finishing_order="132012301230123012310231",
        staleness="012322333233333333324333",
        processed_events=105,
        total_virtual_time=0.203293061199704,
        final_train_loss=1.126204490661621,
    ),
    "sa-asgd": dict(
        config=dict(algorithm="sa-asgd", num_workers=4),
        finishing_order="132012301230123012310231",
        staleness="012322333233333333324333",
        processed_events=105,
        total_virtual_time=0.203293061199704,
        final_train_loss=1.8552495241165161,
    ),
    "lc-asgd-damping": dict(
        config=dict(algorithm="lc-asgd", num_workers=4, compensation="damping"),
        finishing_order="132012301230123012310231",
        staleness="012332333233333333324332",
        processed_events=159,
        total_virtual_time=0.21672486013085085,
        final_train_loss=1.1739251613616943,
        predicted_k="000022222222233333333333",
        loss_mae=0.24255177976219947,
    ),
    "lc-asgd-sensitivity": dict(
        config=dict(algorithm="lc-asgd", num_workers=4, compensation="sensitivity"),
        finishing_order="132012301230123012310231",
        staleness="012332333233333333324332",
        processed_events=159,
        total_virtual_time=0.21672486013085085,
        final_train_loss=1.1477099657058716,
        predicted_k="000022222222233333333333",
        loss_mae=0.24276550247193873,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_sim_run_matches_the_pre_consolidation_schedule(name):
    golden = GOLDEN[name]
    trainer = DistributedTrainer(TrainingConfig.tiny(seed=5, **golden["config"]))
    result = trainer.run()

    assert "".join(str(w) for w in result.finishing_order) == golden["finishing_order"]
    assert "".join(str(k) for k in trainer.trace.staleness) == golden["staleness"]
    assert trainer.sim.processed_events == golden["processed_events"]
    assert result.total_virtual_time == pytest.approx(
        golden["total_virtual_time"], rel=1e-9
    )
    # lc-asgd: the compensation scales every gradient by a predictor output
    loss_rel = 1e-5 if "predicted_k" in golden else 1e-9
    assert result.curve[-1].train_loss == pytest.approx(
        golden["final_train_loss"], rel=loss_rel
    )
    if "predicted_k" in golden:
        server = trainer.server
        predicted = "".join(str(k) for _, k in server.step_prediction_pairs)
        assert predicted == golden["predicted_k"]
        mae = np.mean([abs(actual - forecast) for actual, forecast in server.loss_prediction_pairs])
        assert mae == pytest.approx(golden["loss_mae"], rel=1e-3)
