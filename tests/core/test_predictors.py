"""Loss and step predictors: online learning, forecasting, baselines."""

import numpy as np
import pytest

from repro.core.predictors import (
    EMALossPredictor,
    EMAStepPredictor,
    LSTMLossPredictor,
    LSTMStepPredictor,
    LastValueLossPredictor,
    LastValueStepPredictor,
    LinearTrendLossPredictor,
    make_loss_predictor,
    make_step_predictor,
)
from repro.data.synthetic import make_regression_series


class TestLSTMLossPredictor:
    def make(self, **kw):
        defaults = dict(hidden_size=8, window=6, lr=0.1, seed=0)
        defaults.update(kw)
        return LSTMLossPredictor(**defaults)

    def test_cold_start_flat_forecast(self):
        p = self.make()
        assert p.predict_next() is None
        assert p.predict_delay(2.0, 3) == pytest.approx(6.0)
        assert p.predict_delay(2.0, 0) == 0.0

    def test_tracks_decaying_series(self):
        """After online training on a decaying loss the one-step forecast
        must beat the trivial last-value predictor."""
        series = make_regression_series(200, kind="decay", noise=0.005, seed=1)
        p = self.make()
        lstm_errs, naive_errs = [], []
        prev = series[0]
        for value in series:
            forecast = p.predict_next()
            if forecast is not None and len(lstm_errs) < 150:
                lstm_errs.append(abs(forecast - value))
                naive_errs.append(abs(prev - value))
            p.observe(value)
            prev = value
        # compare on the tail, after warm-up
        assert np.mean(lstm_errs[30:]) < 3 * np.mean(naive_errs[30:]) + 0.05

    def test_predict_delay_sums_k_values(self):
        p = self.make()
        for v in np.linspace(3.0, 2.0, 30):
            p.observe(v)
        d1 = p.predict_delay(2.0, 1)
        d5 = p.predict_delay(2.0, 5)
        assert d5 > d1  # summing more steps grows the total
        assert d5 < 5 * 3.5  # but stays near the loss scale

    def test_rollout_cap_extrapolates(self):
        p = self.make(rollout_cap=4)
        for v in np.linspace(3.0, 2.0, 30):
            p.observe(v)
        d = p.predict_delay(2.0, 100)
        assert np.isfinite(d)
        assert d == pytest.approx(p.predict_delay(2.0, 100))  # deterministic

    def test_delay_sensitivity_finite(self):
        p = self.make()
        for v in np.linspace(3.0, 2.0, 20):
            p.observe(v)
        s = p.delay_sensitivity(2.0, 3)
        assert np.isfinite(s)

    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMLossPredictor(hidden_size=0)
        with pytest.raises(ValueError):
            LSTMLossPredictor(window=1)
        with pytest.raises(ValueError):
            LSTMLossPredictor(train_every=0)


class TestLSTMStepPredictor:
    def make(self, **kw):
        defaults = dict(hidden_size=8, window=4, max_step=64, lr=0.1, seed=0)
        defaults.update(kw)
        return LSTMStepPredictor(**defaults)

    def test_cold_start(self):
        p = self.make()
        assert p.predict(0, 0.1, 0.2) == 0

    def test_learns_constant_staleness(self):
        p = self.make()
        for _ in range(60):
            p.observe(0, 7.0, 0.01, 0.02)
        assert abs(p.predict(0, 0.01, 0.02) - 7) <= 2

    def test_per_worker_histories(self):
        p = self.make()
        for _ in range(40):
            p.observe(0, 2.0, 0.01, 0.02)
            p.observe(1, 12.0, 0.05, 0.08)
        fast = p.predict(0, 0.01, 0.02)
        slow = p.predict(1, 0.05, 0.08)
        assert slow > fast

    def test_output_clamped(self):
        p = self.make(max_step=10)
        for _ in range(30):
            p.observe(0, 500.0, 0.01, 0.02)
        assert 0 <= p.predict(0, 0.01, 0.02) <= 10

    def test_validation(self):
        with pytest.raises(ValueError):
            LSTMStepPredictor(hidden_size=0)
        with pytest.raises(ValueError):
            LSTMStepPredictor(train_every=0)


class TestBaselines:
    def test_last_value_loss(self):
        p = LastValueLossPredictor()
        assert p.predict_next() is None
        p.observe(3.0)
        assert p.predict_next() == 3.0
        assert p.predict_delay(2.0, 4) == 8.0

    def test_ema_loss(self):
        p = EMALossPredictor(decay=0.5)
        p.observe(4.0)
        p.observe(2.0)
        assert p.predict_next() == pytest.approx(3.0)
        # 2.0 replaces the newest loss, not blended in on top of it: 2 * 3.0
        assert p.predict_delay(2.0, 2) == 6.0
        with pytest.raises(ValueError):
            EMALossPredictor(decay=0.0)

    def test_linear_trend_extrapolates(self):
        p = LinearTrendLossPredictor(window=8)
        for v in np.linspace(10.0, 3.0, 8):
            p.observe(v)
        nxt = p.predict_next()
        assert nxt < 3.0  # continues the downward trend
        assert p.predict_delay(3.0, 3) >= 0.0  # clamped at zero

    def test_linear_trend_forecast_never_below_zero(self):
        p = LinearTrendLossPredictor(window=4)
        for v in (0.9, 0.5, 0.2, 0.05):
            p.observe(v)
        # the fitted line crosses zero before the next step; a loss cannot
        assert p.predict_next() == 0.0
        assert p.predict_delay(0.05, 1) == 0.0

    def test_linear_trend_cold(self):
        p = LinearTrendLossPredictor()
        assert p.predict_next() is None
        p.observe(1.0)
        assert p.predict_delay(1.0, 2) == 2.0
        with pytest.raises(ValueError):
            LinearTrendLossPredictor(window=2)

    def test_last_value_step(self):
        p = LastValueStepPredictor()
        assert p.predict(0, 0, 0) == 0
        p.observe(0, 5, 0.1, 0.1)
        assert p.predict(0, 0, 0) == 5

    def test_ema_step(self):
        p = EMAStepPredictor(decay=0.5)
        p.observe(1, 4, 0, 0)
        p.observe(1, 8, 0, 0)
        assert p.predict(1, 0, 0) == 6
        with pytest.raises(ValueError):
            EMAStepPredictor(decay=1.5)


class TestFactories:
    @pytest.mark.parametrize("variant", ["lstm", "ema", "last", "linear"])
    def test_loss_factory(self, variant):
        kwargs = {"hidden_size": 8, "window": 4, "seed": 0} if variant == "lstm" else {}
        p = make_loss_predictor(variant, **kwargs)
        assert p.name == variant

    @pytest.mark.parametrize("variant", ["lstm", "ema", "last"])
    def test_step_factory(self, variant):
        kwargs = {"hidden_size": 8, "window": 4, "seed": 0} if variant == "lstm" else {}
        p = make_step_predictor(variant, **kwargs)
        assert p.name == variant

    def test_unknown_variants(self):
        with pytest.raises(ValueError):
            make_loss_predictor("bogus")
        with pytest.raises(ValueError):
            make_step_predictor("bogus")


class TestFusedKernelIsTheOnlyPath:
    """The predictors run on ``SeriesLSTM`` alone: no autograd fallback."""

    @pytest.mark.parametrize("compensation", ["damping", "sensitivity"])
    def test_lc_asgd_never_reaches_the_autograd_lstm(self, monkeypatch, compensation):
        from repro.core import DistributedTrainer, TrainingConfig
        from repro.nn.rnn import LSTM

        def forbidden(self, *args, **kwargs):
            raise AssertionError("the predictors fell back to the autograd nn.LSTM")

        monkeypatch.setattr(LSTM, "forward", forbidden)
        config = TrainingConfig.tiny(
            seed=2, algorithm="lc-asgd", num_workers=3, compensation=compensation
        )
        trainer = DistributedTrainer(config)
        result = trainer.run()
        assert result.total_updates > 0
        assert trainer.server.loss_prediction_pairs and trainer.server.step_prediction_pairs

    def test_predictor_modules_import_no_autograd(self):
        import ast
        from pathlib import Path

        import repro.core.predictors as package

        forbidden = ("repro.tensor", "repro.optim", "repro.nn.rnn")
        imported = set()
        for path in sorted(Path(package.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    # ``from repro.nn import rnn`` names the module in the alias
                    imported.update({node.module} | {f"{node.module}.{a.name}" for a in node.names})
                elif isinstance(node, ast.Import):
                    imported.update(alias.name for alias in node.names)
        offending = {
            name for name in imported if any(name == f or name.startswith(f + ".") for f in forbidden)
        }
        assert not offending

    def test_running_norm_hands_out_python_floats(self):
        p = LSTMLossPredictor(hidden_size=4, window=4, seed=0)
        for v in (3.0, 2.5, 2.2, 2.0):
            p.observe(v)
        assert type(p._norm.std) is float
        assert type(p.predict_next()) is float
        assert type(p.predict_delay(2.0, 3)) is float

    def test_sensitivity_shares_one_encoded_prefix(self, monkeypatch):
        """``predict_delay`` at ``loss`` and ``loss ± eps`` run no window pass of their own.

        Each weight version runs one pass, over the next training window,
        made by ``observe``; the delay prefix is its state before the last
        step.
        """
        p = LSTMLossPredictor(hidden_size=4, window=6, seed=0)
        for v in np.linspace(3.0, 2.0, 12):
            p.observe(v)
        passes = []
        original = p.model.forward

        def spy(x):
            passes.append(len(x))
            return original(x)

        monkeypatch.setattr(p.model, "forward", spy)
        forecast = p.predict_next()
        delay = p.predict_delay(2.0, 3)
        sensitivity = p.delay_sensitivity(2.0, 3)
        assert passes == []  # all three read the last observe's pass
        assert p.predict_next() == forecast and p.predict_delay(2.0, 3) == delay
        assert p.delay_sensitivity(2.0, 3) == sensitivity

        p.observe(1.9)  # new history and new weights: one window-step pass
        assert passes == [6]
        p.predict_next()
        p.predict_delay(1.9, 3)
        p.delay_sensitivity(1.9, 3)
        assert passes == [6]


@pytest.mark.parametrize("variant", ["lstm", "ema", "last", "linear"])
def test_the_newest_loss_is_fed_once(variant):
    """Right after ``observe(l)``, ``predict_delay(l, 1)`` is ``predict_next()``.

    ``predict_delay``'s ``loss`` stands in for the newest observed loss, so
    with the same loss both forecast one step after the same history.  The
    baselines agree exactly; the LSTM's rollout step (a GEMV) and its window
    pass (a GEMM) round differently in the last bits.
    """
    kwargs = {"hidden_size": 8, "window": 5, "seed": 0} if variant == "lstm" else {}
    p = make_loss_predictor(variant, **kwargs)
    for step, loss in enumerate(make_regression_series(40, kind="decay", noise=0.05, seed=3)):
        p.observe(loss)
        forecast = p.predict_next()
        if forecast is None:  # the LSTM before its second loss
            assert variant == "lstm" and step == 0
            continue
        delay = p.predict_delay(loss, 1)
        if variant == "lstm":
            assert delay == pytest.approx(forecast, rel=1e-5)
        else:
            assert delay == forecast
