"""FleetExecutor + FleetAgent: scheduling, fault tolerance, store parity."""

import json
import socket
import threading
import time
import types

import pytest

from repro.core import TrainingConfig
from repro.experiments import Campaign, CampaignEvents, Grid, ResultStore, Sweep
from repro.experiments.spec import ExperimentSpec
from repro.fleet import FleetAgent, FleetError, FleetExecutor
from repro.runtime.messages import FleetHello, Job, JobResult, Welcome
from repro.runtime.wire import FrameConnection
from tests.runtime.test_wire import raw_frame


def spirals_factory(**kw):
    kw.setdefault("algorithm", "asgd")
    kw.setdefault("num_workers", 2)
    kw.setdefault("epochs", 1)
    return TrainingConfig.spirals(**kw)


@pytest.fixture
def agents():
    started = [FleetAgent(port=0, slots=1).start(), FleetAgent(port=0, slots=1).start()]
    yield started
    for agent in started:
        agent.close()


class RecordingEvents(CampaignEvents):
    def __init__(self):
        self.starts, self.curve_points, self.ends, self.notes = [], [], [], []

    def on_run_start(self, spec, index, total):
        self.starts.append(index)

    def on_curve_point(self, spec, point):
        self.curve_points.append((spec.key(), point))

    def on_run_end(self, spec, result, cached, index, total):
        self.ends.append((index, cached))

    def on_note(self, message):
        self.notes.append(message)


# ---------------------------------------------------------------------- #
# the acceptance criterion: fleet == serial, byte for byte
# ---------------------------------------------------------------------- #
def test_fleet_store_summary_matches_serial_byte_for_byte(tmp_path, agents):
    """The same sweep through FleetExecutor (2 agents) and SerialExecutor
    must produce summary-equivalent ResultStores: the sim backend is
    deterministic, so shipping cells across sockets must change nothing
    the summary can see."""
    grid = Sweep("algorithm", ["sgd", "asgd"]) * Sweep("seed", [0, 1])
    specs = grid.specs(spirals_factory)

    serial_store = ResultStore(tmp_path / "serial")
    Campaign(specs, store=serial_store).run()

    fleet_store = ResultStore(tmp_path / "fleet")
    executor = FleetExecutor([a.address for a in agents])
    report = Campaign(specs, executor=executor, store=fleet_store).run()

    assert len(report.runs) == len(specs)
    assert fleet_store.keys() == serial_store.keys()
    serial_rows = json.dumps(serial_store.summarize(), sort_keys=True)
    fleet_rows = json.dumps(fleet_store.summarize(), sort_keys=True)
    assert fleet_rows == serial_rows


def test_fleet_streams_curve_points(agents):
    events = RecordingEvents()
    specs = Grid(seed=[0]).specs(spirals_factory)
    executor = FleetExecutor([agents[0].address])
    Campaign(specs, executor=executor, events=events).run()
    assert events.curve_points, "fleet runs must stream evaluation points"
    assert events.curve_points[0][0] == specs[0].key()


# ---------------------------------------------------------------------- #
# fault tolerance
# ---------------------------------------------------------------------- #
def test_agent_death_requeues_and_campaign_completes(tmp_path, agents):
    """Kill one agent mid-campaign: its in-flight cells requeue onto the
    survivor and every cell lands in the store exactly once."""
    store = ResultStore(tmp_path / "out")
    events = RecordingEvents()
    specs = Grid(seed=list(range(8))).specs(
        lambda **kw: spirals_factory(num_workers=4, epochs=8, **kw)
    )
    victim = agents[1]

    def kill_once_underway():
        deadline = time.monotonic() + 60.0
        while len(store) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        victim.kill()

    killer = threading.Thread(target=kill_once_underway, daemon=True)
    killer.start()
    executor = FleetExecutor([a.address for a in agents], heartbeat_timeout=8.0)
    report = Campaign(specs, executor=executor, store=store, events=events).run()
    killer.join(timeout=60.0)

    assert len(report.runs) == len(specs)
    assert len(store) == len(specs)  # every cell exactly once (keys are unique)
    assert sorted(store.keys()) == sorted(spec.key() for spec in specs)
    assert sorted(index for index, _ in events.ends) == list(range(len(specs)))
    assert any("died" in note for note in events.notes)


def test_all_agents_dead_raises_instead_of_hanging(tmp_path):
    agent = FleetAgent(port=0, slots=1).start()
    # cells of ~0.5 s each: the kill at 0.3 s must land mid-campaign (at 8
    # epochs all four cells could finish first on a fast host)
    specs = Grid(seed=list(range(4))).specs(
        lambda **kw: spirals_factory(num_workers=4, epochs=64, **kw)
    )
    threading.Timer(0.3, agent.kill).start()
    executor = FleetExecutor([agent.address], heartbeat_timeout=5.0)
    with pytest.raises(FleetError, match="every fleet agent died"):
        Campaign(specs, executor=executor).run()


def test_deterministic_cell_failure_fails_fast_with_remote_traceback(agents):
    # an option ThreadBackend's constructor rejects: raises identically on
    # every agent, so the second attempt must end the campaign
    bad = ExperimentSpec(
        config=TrainingConfig.tiny(algorithm="asgd", num_workers=2, epochs=1),
        backend="thread",
        backend_options={"bogus_option": True},
    )
    executor = FleetExecutor([a.address for a in agents])
    with pytest.raises(FleetError, match="failed 2 time"):
        Campaign([bad], executor=executor).run()


def test_unreachable_agent_is_skipped_but_all_unreachable_raises(agents):
    # grab a port with no listener behind it
    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    dead_addr = placeholder.getsockname()
    placeholder.close()

    events = RecordingEvents()
    specs = Grid(seed=[0]).specs(spirals_factory)
    executor = FleetExecutor([dead_addr, agents[0].address], connect_timeout=2.0)
    report = Campaign(specs, executor=executor, events=events).run()
    assert len(report.runs) == 1
    assert any("unavailable" in note for note in events.notes)

    lonely = FleetExecutor([dead_addr], connect_timeout=2.0)
    with pytest.raises(FleetError, match="no fleet agents reachable"):
        Campaign(specs, executor=lonely).run()


def _serve_fake_agent(listener, on_job=None, welcome=None):
    """Accept one scheduler, welcome it with the ``welcome`` frame (a
    well-formed one by default) and answer every Job with ``on_job(conn,
    job)``; returns an Event set on the link's EOF."""
    closed = threading.Event()

    def serve():
        sock, _ = listener.accept()
        conn = FrameConnection(sock)
        try:
            conn.recv()  # hello
            conn.send_frame(welcome or raw_frame("Welcome", 1, blob=["skewed"]))
            while True:
                frame = conn.recv()[0]
                if on_job is not None and isinstance(frame, Job):
                    on_job(conn, frame)
        except Exception:
            closed.set()
        finally:
            conn.close()

    threading.Thread(target=serve, daemon=True).start()
    return closed


def test_undecodable_result_faults_the_agent_not_the_campaign(agents):
    """A skewed agent whose result frame decodes but whose payload won't
    rehydrate must be marked dead (its cell requeued onto a healthy agent),
    not crash the campaign with a raw KeyError."""

    def bogus_result(conn, job):
        conn.send_message(JobResult(job.id, {"bogus": 1}))

    listener = socket.create_server(("127.0.0.1", 0))
    _serve_fake_agent(listener, on_job=bogus_result)
    try:
        events = RecordingEvents()
        specs = Grid(seed=[0]).specs(spirals_factory)
        executor = FleetExecutor([listener.getsockname()[:2], agents[0].address])
        report = Campaign(specs, executor=executor, events=events).run()
        assert len(report.runs) == 1  # the healthy agent finished the cell
        assert any("undecodable result" in note for note in events.notes)
    finally:
        listener.close()


@pytest.mark.parametrize(
    "welcome",
    [raw_frame("Welcome", 0, blob=["skewed"]), raw_frame("Welcome", 1, blob=[[2]])],
    ids=["no-slots", "list-agent"],
)
def test_malformed_welcome_skips_the_agent_not_the_campaign(agents, welcome):
    """A welcome that does not decode (no usable slot count, or an agent
    name that is not a str) is that agent's fault: it is reported
    unavailable and its half-open link is closed, and the campaign runs on
    the healthy agent."""
    listener = socket.create_server(("127.0.0.1", 0))
    closed = _serve_fake_agent(listener, welcome=welcome)
    try:
        events = RecordingEvents()
        specs = Grid(seed=[0]).specs(spirals_factory)
        executor = FleetExecutor([listener.getsockname()[:2], agents[0].address])
        report = Campaign(specs, executor=executor, events=events).run()
        assert len(report.runs) == 1
        assert any("unavailable, continuing without it" in n for n in events.notes)
        assert closed.wait(5.0), "the scheduler left the bad agent's link open"
    finally:
        listener.close()


def test_undecodable_heartbeat_marks_the_agent_dead(agents):
    """Under obs the scheduler records every heartbeat's ``n``; a heartbeat
    whose header is cut short of it must fault that agent (its cell
    requeued), not the campaign."""

    def bad_heartbeat(conn, job):
        conn.send_frame(raw_frame("Heartbeat", 7)[:-1])

    listener = socket.create_server(("127.0.0.1", 0))
    _serve_fake_agent(listener, on_job=bad_heartbeat)
    try:
        events = RecordingEvents()
        specs = Grid(seed=[0]).specs(spirals_factory)
        executor = FleetExecutor(
            [listener.getsockname()[:2], agents[0].address], obs=True
        )
        report = Campaign(specs, executor=executor, events=events).run()
        assert len(report.runs) == 1  # requeued onto the healthy agent
        assert any("skewed died" in note for note in events.notes)
    finally:
        listener.close()


def test_heartbeat_silence_marks_agent_dead():
    executor = FleetExecutor(["127.0.0.1:1"], heartbeat_timeout=3.0)
    stale = types.SimpleNamespace(alive=True, last_seen=time.monotonic() - 10.0)
    fresh = types.SimpleNamespace(alive=True, last_seen=time.monotonic())
    tombstones = []
    executor._check_heartbeats(
        [stale, fresh], lambda link, why: tombstones.append((link, why))
    )
    assert tombstones and tombstones[0][0] is stale
    assert "no heartbeat" in tombstones[0][1]
    assert len(tombstones) == 1


# ---------------------------------------------------------------------- #
# agent session behavior
# ---------------------------------------------------------------------- #
def test_second_scheduler_is_turned_away_busy():
    agent = FleetAgent(port=0, slots=1).start()
    try:
        first = FrameConnection(socket.create_connection(agent.address, timeout=5.0))
        first.send_message(FleetHello())
        assert isinstance(first.recv()[0], Welcome)

        with pytest.raises(FleetError, match="busy"):
            from repro.fleet.scheduler import AgentLink
            import queue

            AgentLink(*agent.address, events_out=queue.Queue(), connect_timeout=5.0)
        first.close()
        # after the first scheduler leaves, the agent serves again
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            second = FrameConnection(socket.create_connection(agent.address, timeout=5.0))
            second.send_message(FleetHello())
            answer = second.recv()[0]
            second.close()
            if isinstance(answer, Welcome):
                break
            time.sleep(0.05)
        assert isinstance(answer, Welcome)
    finally:
        agent.close()


def test_silent_connection_cannot_wedge_the_agent():
    """A connection that never sends hello (port scan, dead scheduler host)
    must be abandoned after the silence window instead of holding the
    single-session lock forever."""
    agent = FleetAgent(port=0, slots=1, session_timeout=1.0).start()
    try:
        lurker = socket.create_connection(agent.address, timeout=5.0)
        # the lurker holds the session slot without ever speaking; a real
        # scheduler must get a welcome once the agent gives up on it
        deadline = time.monotonic() + 10.0
        answer = None
        while time.monotonic() < deadline:
            probe = FrameConnection(socket.create_connection(agent.address, timeout=5.0))
            probe.send_message(FleetHello())
            answer = probe.recv()[0]
            probe.close()
            if isinstance(answer, Welcome):
                break
            time.sleep(0.1)
        lurker.close()
        assert isinstance(answer, Welcome)
    finally:
        agent.close()


def test_agent_survives_many_campaigns(agents):
    specs = Grid(seed=[0]).specs(spirals_factory)
    for _ in range(2):
        executor = FleetExecutor([agents[0].address])
        report = Campaign(specs, executor=executor).run()
        assert len(report.runs) == 1


def test_agent_validates_arguments():
    with pytest.raises(ValueError, match="slots"):
        FleetAgent(slots=0)
    with pytest.raises(ValueError, match="heartbeat"):
        FleetAgent(heartbeat_interval=0.0)
    with pytest.raises(ValueError, match="at least one agent"):
        FleetExecutor([])
    with pytest.raises(ValueError, match="positive"):
        FleetExecutor(["h:1"], heartbeat_timeout=0.0)


# ---------------------------------------------------------------------- #
# observability: trace frames ride the existing control plane
# ---------------------------------------------------------------------- #
def test_obs_campaign_ships_traces_over_trace_frames(agents):
    specs = Grid(seed=[0, 1]).specs(spirals_factory)
    events = RecordingEvents()
    executor = FleetExecutor([a.address for a in agents], obs=True)
    report = Campaign(specs, executor=executor, events=events).run()

    assert len(report.runs) == len(specs)
    # every cell ran with a live recorder on its agent...
    assert all(result.obs.get("enabled") for result in report.results)
    # ...and shipped its raw rows back before the result frame: the
    # campaign recorder holds staleness samples from both cells
    kinds = {}
    for record in executor.recorder.records():
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    expected = sum(result.staleness["count"] for result in report.results)
    assert kinds.get("staleness", 0) == expected


def test_obs_off_campaign_sends_no_trace_rows(agents):
    specs = Grid(seed=[0]).specs(spirals_factory)
    executor = FleetExecutor([agents[0].address])
    report = Campaign(specs, executor=executor).run()
    assert executor.recorder.rows() == []
    assert report.results[0].obs == {}
