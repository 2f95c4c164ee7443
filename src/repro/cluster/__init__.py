"""Discrete-event simulation of a parameter-server cluster.

Substitutes the paper's physical testbed (one NVIDIA V100 per worker node,
parameter server with two extra GPUs, real Ethernet) with a deterministic
virtual-time simulator.  What the algorithms under study actually consume
is the *ordering* of compute/communication events — that ordering produces
the gradient staleness ``k_m`` that DC-ASGD and LC-ASGD compensate — and the
simulator reproduces it with controllable heterogeneity, jitter and
straggler injection.
"""

from repro.cluster.network import LinkModel, NetworkModel
from repro.cluster.node import ComputeModel, StragglerModel
from repro.cluster.simulator import Simulator
from repro.cluster.topology import (
    BipartiteTopology,
    CompleteTopology,
    RingTopology,
    TopologyModel,
    available_topologies,
    make_topology,
    register_topology,
)
from repro.cluster.trace import ClusterTrace

__all__ = [
    "Simulator",
    "LinkModel",
    "NetworkModel",
    "ComputeModel",
    "StragglerModel",
    "ClusterTrace",
    "TopologyModel",
    "RingTopology",
    "BipartiteTopology",
    "CompleteTopology",
    "make_topology",
    "register_topology",
    "available_topologies",
]
