"""Grid expansion, campaign execution, resume, events, executors."""

import pytest

from repro.core.config import ClusterConfig, TrainingConfig
from repro.experiments import (
    Campaign,
    CampaignEvents,
    ExperimentSpec,
    Grid,
    MultiprocessExecutor,
    ResultStore,
    SerialExecutor,
    Sweep,
    make_executor,
)


def tiny_factory(**kwargs) -> TrainingConfig:
    kwargs.setdefault("max_updates", 4)
    kwargs.setdefault("epochs", 1)
    return TrainingConfig.tiny(**kwargs)


class TestGridExpansion:
    def test_product_counts(self):
        grid = (
            Sweep("algorithm", ["asgd", "lc-asgd"])
            * Sweep("num_workers", [2, 4, 8])
            * Sweep("seed", [0, 1])
        )
        assert len(grid) == 12
        assert len(grid.points()) == 12
        assert len(grid.specs(TrainingConfig.tiny)) == 12

    def test_points_vary_rightmost_fastest(self):
        grid = Sweep("algorithm", ["a", "b"]) * Sweep("seed", [0, 1])
        assert grid.points() == [
            {"algorithm": "a", "seed": 0},
            {"algorithm": "a", "seed": 1},
            {"algorithm": "b", "seed": 0},
            {"algorithm": "b", "seed": 1},
        ]

    def test_kwargs_construction_and_cluster_axis(self):
        clusters = [ClusterConfig(), ClusterConfig(mean_batch_time=0.2)]
        grid = Grid(seed=[0, 1], cluster=clusters)
        specs = grid.specs(TrainingConfig.tiny)
        assert len(specs) == 4
        assert len({s.key() for s in specs}) == 4  # timing models alter identity

    def test_duplicate_axis_raises(self):
        with pytest.raises(ValueError, match="duplicate sweep axis"):
            Sweep("seed", [0]) * Sweep("seed", [1])
        with pytest.raises(ValueError, match="duplicate sweep axis"):
            Grid(seed=[0]) * Grid(seed=[1])

    def test_empty_axis_raises(self):
        with pytest.raises(ValueError, match="no values"):
            Sweep("seed", [])

    def test_base_can_be_concrete_config(self):
        base = TrainingConfig.tiny(algorithm="asgd")
        specs = Grid(seed=[0, 1]).specs(base)
        assert [s.config.seed for s in specs] == [0, 1]
        assert all(s.config.algorithm == "asgd" for s in specs)


class RecordingEvents(CampaignEvents):
    def __init__(self):
        self.started = []
        self.ended = []
        self.points = []
        self.campaign = []

    def on_campaign_start(self, total, cached):
        self.campaign.append((total, cached))

    def on_run_start(self, spec, index, total):
        self.started.append((index, spec.key()))

    def on_curve_point(self, spec, point):
        self.points.append((spec.key(), point.epoch))

    def on_run_end(self, spec, result, cached, index, total):
        self.ended.append((index, spec.key(), cached))


class TestCampaign:
    def test_runs_every_spec_and_fires_events(self):
        specs = Grid(seed=[0, 1]).specs(tiny_factory)
        events = RecordingEvents()
        report = Campaign(specs, events=events).run()
        assert len(report) == 2
        assert len(report.executed) == 2 and not report.cached
        assert events.campaign == [(2, 0)]
        assert [i for i, _ in events.started] == [0, 1]
        assert [(i, cached) for i, _, cached in events.ended] == [(0, False), (1, False)]
        # serial execution streams at least one curve point per run
        assert {key for key, _ in events.points} == {s.key() for s in specs}

    def test_multi_seed_store_keys_are_deterministic(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = Grid(seed=[0, 1, 2]).specs(tiny_factory)
        Campaign(specs, store=store).run()
        # an independently re-expanded grid addresses the exact same files
        again = Grid(seed=[0, 1, 2]).specs(tiny_factory)
        assert sorted(store.keys()) == sorted(s.key() for s in again)

    def test_resume_skips_completed_runs(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = Grid(seed=[0, 1, 2]).specs(tiny_factory)
        first = Campaign(specs, store=store).run()
        assert len(first.executed) == 3

        events = RecordingEvents()
        second = Campaign(specs, store=store, events=events).run()
        assert len(second.executed) == 0
        assert len(second.cached) == 3
        assert events.campaign == [(3, 3)]
        assert not events.started  # nothing reached the executor
        assert all(cached for _, _, cached in events.ended)
        # results match what the first pass computed
        for a, b in zip(first.results, second.results):
            assert a.final_test_error == b.final_test_error

    def test_partial_store_resumes_the_remainder(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = Grid(seed=[0, 1, 2]).specs(tiny_factory)
        Campaign([specs[1]], store=store).run()
        report = Campaign(specs, store=store, events=RecordingEvents()).run()
        assert len(report.cached) == 1
        assert len(report.executed) == 2
        assert report.runs[1].cached  # order preserved: seed=1 is the cached one

    def test_interrupted_campaign_keeps_completed_prefix(self, tmp_path):
        # a campaign killed mid-grid must leave every finished run in the
        # store (executors stream; the Campaign persists per run)
        class ExplodingExecutor(SerialExecutor):
            def run(self, jobs, total, events):
                for n, triple in enumerate(super().run(jobs, total, events)):
                    if n == 2:
                        raise KeyboardInterrupt
                    yield triple

        store = ResultStore(tmp_path)
        specs = Grid(seed=[0, 1, 2, 3]).specs(tiny_factory)
        with pytest.raises(KeyboardInterrupt):
            Campaign(specs, store=store, executor=ExplodingExecutor()).run()
        assert len(store) == 2  # the two completed runs survived

        report = Campaign(specs, store=store).run()  # resume the remainder
        assert len(report.cached) == 2
        assert len(report.executed) == 2

    def test_identical_specs_deduplicate(self):
        # sgd normalizes every worker count to M=1: one run, not three
        specs = Grid(num_workers=[2, 4, 8]).specs(
            lambda **kw: tiny_factory(algorithm="sgd", **kw)
        )
        report = Campaign(specs).run()
        assert len(report) == 1

    def test_empty_specs_raise(self):
        with pytest.raises(ValueError, match="at least one spec"):
            Campaign([])

    def test_summarize_groups_cells(self):
        specs = Grid(algorithm=["sgd", "asgd"], seed=[0, 1]).specs(tiny_factory)
        rows = Campaign(specs).run().summarize()
        cells = {(r["algorithm"], r["num_workers"]) for r in rows}
        assert cells == {("sgd", 1), ("asgd", 2)}
        assert all(r["runs"] == 2 for r in rows)


class TestExecutors:
    def test_make_executor_rule(self):
        assert isinstance(make_executor(1), SerialExecutor)
        pool = make_executor(3)
        assert isinstance(pool, MultiprocessExecutor)
        assert pool.processes == 3

    def test_pool_matches_serial_results(self):
        specs = Grid(algorithm=["asgd", "lc-asgd"], seed=[0]).specs(tiny_factory)
        serial = Campaign(specs, executor=SerialExecutor()).run()
        pooled = Campaign(specs, executor=MultiprocessExecutor(processes=2)).run()
        # the pool builds each plan in a child process, where its
        # initialization could diverge: every curve point, the staleness
        # summary and the finishing order must match, not just the end
        assert len(pooled.results) == len(specs)
        for a, b in zip(serial.results, pooled.results):
            assert a.final_test_error == b.final_test_error
            assert a.curve == b.curve
            assert a.staleness == b.staleness
            assert a.finishing_order == b.finishing_order

    def test_pool_rejects_thread_backend(self):
        spec = ExperimentSpec(tiny_factory(), backend="thread")
        with pytest.raises(ValueError, match="only runs the 'sim' backend"):
            Campaign([spec], executor=MultiprocessExecutor(processes=2)).run()

    def test_pool_rejects_proc_backend(self):
        spec = ExperimentSpec(tiny_factory(), backend="proc")
        with pytest.raises(ValueError, match="only runs the 'sim' backend"):
            Campaign([spec], executor=MultiprocessExecutor(processes=2)).run()

    def test_pool_reports_starts_as_jobs_are_picked_up(self):
        # the old bulk submit fired every on_run_start before any run began;
        # with one process, job 1 must not claim to start before job 0 ends
        timeline = []

        class TimelineEvents(CampaignEvents):
            def on_run_start(self, spec, index, total):
                timeline.append(("start", index))

        specs = Grid(seed=[0, 1]).specs(tiny_factory)
        executor = MultiprocessExecutor(processes=1)
        jobs = list(enumerate(specs))
        for index, _spec, _result in executor.run(jobs, 2, TimelineEvents()):
            timeline.append(("end", index))
        assert timeline == [("start", 0), ("end", 0), ("start", 1), ("end", 1)]

    def test_pool_persists_results_in_parent_store(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = Grid(seed=[0, 1]).specs(tiny_factory)
        Campaign(specs, store=store, executor=MultiprocessExecutor(processes=2)).run()
        assert len(store) == 2
