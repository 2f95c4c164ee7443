"""Extensions beyond the paper: SA-ASGD baseline, CLI."""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import DistributedTrainer, TrainingConfig
from repro.core.algorithms import StalenessAwareASGDRule, make_update_rule
from repro.core.state import GradientPayload


class TestStalenessAwareASGD:
    def test_scales_by_staleness(self):
        rule = StalenessAwareASGDRule()
        params = np.zeros(2)
        payload = GradientPayload(worker=0, grad=np.array([1.0, 1.0]), pull_version=0)
        rule.apply_gradient(params, payload, lr=1.0, version=3)  # staleness 3
        np.testing.assert_allclose(params, [-0.25, -0.25])  # lr/(1+3)

    def test_zero_staleness_full_step(self):
        rule = StalenessAwareASGDRule()
        params = np.zeros(1)
        payload = GradientPayload(worker=0, grad=np.array([1.0]), pull_version=5)
        rule.apply_gradient(params, payload, lr=1.0, version=5)
        np.testing.assert_allclose(params, [-1.0])

    def test_exponent(self):
        rule = StalenessAwareASGDRule(exponent=2.0)
        params = np.zeros(1)
        payload = GradientPayload(worker=0, grad=np.array([1.0]), pull_version=0)
        rule.apply_gradient(params, payload, lr=1.0, version=1)
        np.testing.assert_allclose(params, [-0.25])  # 1/(1+1)^2
        with pytest.raises(ValueError):
            StalenessAwareASGDRule(exponent=-1)

    def test_factory_and_trainer(self):
        rule = make_update_rule("sa-asgd", num_workers=4, momentum=0.5)
        assert isinstance(rule, StalenessAwareASGDRule)
        cfg = TrainingConfig.tiny(algorithm="sa-asgd", num_workers=2, epochs=2, seed=0)
        result = DistributedTrainer(cfg).run()
        assert result.final_test_error < 0.9


class TestCLI:
    def test_info(self, capsys):
        assert cli_main(["info", "--algorithm", "asgd", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "asgd" in out

    def test_run_writes_json(self, tmp_path, capsys):
        out_path = str(tmp_path / "result.json")
        code = cli_main([
            "run", "--algorithm", "asgd", "--workers", "2",
            "--epochs", "2", "--seed", "0", "--json", out_path,
        ])
        assert code == 0
        with open(out_path) as fh:
            payload = json.load(fh)
        assert payload["algorithm"] == "asgd"
        assert 0.0 <= payload["final_test_error"] <= 1.0
        assert len(payload["curve"]) >= 1

    def test_run_epochs_override_speeds_config(self):
        # config resolution only (no training): epochs propagate
        from repro.cli import _make_config
        import argparse

        ns = argparse.Namespace(
            workers=4, preset="cifar", model=None, epochs=6, seed=1, json=None
        )
        cfg = _make_config(ns, "lc-asgd")
        assert cfg.epochs == 6
        assert cfg.lr_milestones == (3, 4)
