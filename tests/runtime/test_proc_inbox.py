"""SocketTransport's inbox against fake peers, and what a proc run starts.

The server actor of a proc run reads the children's sockets itself, on the
thread that called ``run``.  Each fake peer here is one end of a
``socket.socketpair()`` attached as a worker, so every failure property is
checked without a child process: a frame cut off mid-way, a peer that
closes mid-run, a peer that closes after the Shutdown broadcast, a garbled
frame, and per-link FIFO order with the RunEnd collected rather than
returned.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core import TrainingConfig
from repro.runtime import SocketTransport, proc_backend, run_experiment
from repro.runtime.messages import PullReply, PullRequest, RunEnd, Shutdown
from repro.runtime.wire import _LEN, FrameConnection

TIMEOUT = 120.0


@pytest.fixture
def peers():
    """``make(n)``: a transport with ``n`` attached fake workers, and their far ends."""
    opened = []

    def make(n, timeout=TIMEOUT):
        transport = SocketTransport(n, timeout=timeout)
        far = []
        for worker in range(n):
            near, other = socket.socketpair()
            opened.extend((near, other))
            transport.attach(worker, FrameConnection(near))
            far.append(other)
        opened.append(transport)
        return transport, far

    yield make
    for thing in opened:
        thing.close()


def test_half_a_frame_then_silence_fails_the_read_by_its_deadline(peers):
    transport, (peer,) = peers(1, timeout=0.2)
    peer.sendall(_LEN.pack(64) + b"x" * 32)
    with pytest.raises(RuntimeError, match="exceeded timeout"):
        transport.server_inbox.get()


def test_an_expired_read_names_the_timeout_that_expired(peers):
    transport, _ = peers(2)
    with pytest.raises(RuntimeError, match=r"exceeded timeout=0\.2s"):
        transport.server_inbox.get(timeout=0.2)


def test_a_busy_lone_link_still_fails_the_read_past_the_deadline(peers):
    transport, (far,) = peers(1, timeout=0.2)
    peer = FrameConnection(far)
    for sent_at in (1.0, 2.0):
        peer.send_message(PullRequest(0, sent_at=sent_at))
    assert transport.server_inbox.get().sent_at == 1.0
    time.sleep(0.3)
    with pytest.raises(RuntimeError, match="exceeded timeout"):
        transport.server_inbox.get()  # a frame is waiting, but the run is over time


def test_a_peer_that_closes_mid_run_fails_the_read_naming_it(peers):
    transport, (_, second) = peers(2)
    second.close()
    with pytest.raises(RuntimeError, match="worker child 1 dropped its connection"):
        transport.server_inbox.get()


def test_a_garbled_frame_fails_the_read_naming_its_worker(peers):
    transport, (peer,) = peers(1)
    FrameConnection(peer).send_frame(_LEN.pack(2) + b"{]")
    with pytest.raises(RuntimeError, match="worker child 0"):
        transport.server_inbox.get()


def test_frames_keep_their_link_order_and_the_run_end_is_collected(peers):
    transport, (far,) = peers(1)
    peer = FrameConnection(far)
    for sent_at in (1.0, 2.0, 3.0):
        peer.send_message(PullRequest(0, sent_at=sent_at))
    peer.send_message(RunEnd(timers={"worker-compute": 1.0}))
    assert [transport.server_inbox.get().sent_at for _ in range(3)] == [1.0, 2.0, 3.0]
    transport.wake_all_workers(Shutdown())
    assert isinstance(transport.server_inbox.get(), Shutdown)
    (ended,) = transport.ended().values()
    assert ended.timers == {"worker-compute": 1.0}
    assert isinstance(peer.recv()[0], Shutdown)  # the one broadcast reached the peer


def test_a_peer_that_closes_after_shutdown_only_loses_its_place(peers):
    transport, (quitter, far) = peers(2)
    finisher = FrameConnection(far)
    transport.wake_all_workers(Shutdown())
    finisher.send_message(PullRequest(1))  # a straggler of the run: read, not returned
    finisher.send_message(RunEnd())
    quitter.close()
    assert isinstance(transport.server_inbox.get(), Shutdown)
    assert set(transport.ended()) == {1}


def test_a_peer_silent_after_shutdown_costs_only_its_place_within_the_grace(peers, monkeypatch):
    monkeypatch.setattr(proc_backend, "RUN_END_GRACE", 0.2)
    transport, (_, far) = peers(2)  # worker 0 stays open and silent
    transport.wake_all_workers(Shutdown())
    FrameConnection(far).send_message(RunEnd())
    started = time.monotonic()
    assert isinstance(transport.server_inbox.get(), Shutdown)
    assert time.monotonic() - started < TIMEOUT / 2  # the grace ended the wait, not the run's
    assert set(transport.ended()) == {1}


def test_a_send_to_a_closed_peer_fails_naming_it(peers):
    transport, (_, second) = peers(2)
    second.close()
    with pytest.raises(RuntimeError, match="worker child 1 dropped its connection"):
        for _ in range(8):  # the first write may still land in the socket buffer
            transport.to_worker(1, PullRequest(1))


def test_a_send_that_stays_blocked_past_the_deadline_fails_the_run(peers):
    transport, _ = peers(1, timeout=0.2)  # the peer never reads
    weights = np.zeros(1 << 20, dtype=np.float32)
    with pytest.raises(RuntimeError, match=r"exceeded timeout=0\.2s"):
        for _ in range(64):
            transport.to_worker(0, PullReply(0, weights=weights))


def test_the_queue_depth_counts_the_other_links_with_a_frame_waiting(peers):
    transport, far = peers(2)
    for worker, sock in enumerate(far):
        FrameConnection(sock).send_message(PullRequest(worker))
    inbox = transport.server_inbox
    inbox.get()
    assert inbox.approx_len() == 1  # the other link holds a frame too
    inbox.get()
    assert inbox.approx_len() == 0


def test_the_spawn_env_is_rebuilt_only_when_the_environment_changes(monkeypatch):
    env, signature = proc_backend._spawn_env()
    again, same = proc_backend._spawn_env()
    assert same is signature and again is env
    monkeypatch.setenv("REPRO_TEST_SPAWN_SIGNATURE", "1")
    changed_env, changed = proc_backend._spawn_env()
    assert changed != signature
    assert changed_env["REPRO_TEST_SPAWN_SIGNATURE"] == "1"
    monkeypatch.setenv("REPRO_TEST_SPAWN_SIGNATURE", "2")
    assert proc_backend._spawn_env()[1] != changed


def test_a_warm_proc_run_starts_no_thread(monkeypatch):
    cfg = TrainingConfig.tiny(algorithm="asgd", num_workers=1, epochs=1, seed=0)
    run_experiment(cfg, backend="proc", timeout=TIMEOUT)  # the pool holds its child now
    starts = []
    start = threading.Thread.start

    def counting(self, *args, **kwargs):
        starts.append(self.name)
        return start(self, *args, **kwargs)

    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", counting)
    result = run_experiment(cfg, backend="proc", timeout=TIMEOUT)
    assert result.total_updates == 8
    assert starts == []
    assert threading.active_count() == before
