"""repro.fleet — distributed campaign execution across agent daemons.

The first genuinely multi-host layer of the reproduction: a campaign's
grid cells fan out over TCP to :class:`~repro.fleet.agent.FleetAgent`
daemons (``repro agent --bind HOST:PORT --slots N``), scheduled by a
fault-tolerant :class:`~repro.fleet.scheduler.FleetExecutor` that slots
into the existing :class:`~repro.experiments.campaign.Campaign` executor
protocol — store persistence, resume and events all work unchanged.

* :mod:`repro.fleet.protocol` — the session: typed frames (FleetHello,
  Welcome, Job, JobCurvePoint, JobTrace, JobResult, JobError, Heartbeat,
  Busy, all in :mod:`repro.runtime.messages`) on the pickle-free
  :mod:`repro.runtime.wire` codec.
* :mod:`repro.fleet.agent` — the daemon: N concurrent job slots, curve
  streaming, heartbeats; one scheduler at a time, many campaigns per
  daemon lifetime.
* :mod:`repro.fleet.scheduler` — greedy slot-filling, heartbeat/EOF
  death detection with requeue onto survivors, fail-fast only when a
  cell itself raises twice.

Quickstart (two terminals, then a third)::

    repro agent --bind 127.0.0.1:7463 --slots 2
    repro agent --bind 127.0.0.1:7464 --slots 2
    repro sweep --agents 127.0.0.1:7463,127.0.0.1:7464 --json out/fleet

Stores collected on different hosts combine key-wise with
``repro store merge out/all out/host-a out/host-b`` (see
:meth:`~repro.experiments.store.ResultStore.merge`).
"""

from repro.fleet.agent import FleetAgent
from repro.fleet.protocol import FleetProtocolError, parse_agent_addrs
from repro.fleet.scheduler import AgentLink, FleetError, FleetExecutor

__all__ = [
    "FleetAgent",
    "FleetExecutor",
    "AgentLink",
    "FleetError",
    "FleetProtocolError",
    "parse_agent_addrs",
]
