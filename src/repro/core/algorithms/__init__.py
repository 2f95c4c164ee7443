"""Update rules for the training algorithms (server-side, plus the
decentralized AD-PSGD rule that lives on each worker replica)."""

from repro.core.algorithms.base import UpdateRule
from repro.core.algorithms.adpsgd import ADPSGDRule, gossip_staleness
from repro.core.algorithms.asgd import ASGDRule
from repro.core.algorithms.dcasgd import DCASGDRule
from repro.core.algorithms.lcasgd import LCASGDRule, compensation_seed
from repro.core.algorithms.sa_asgd import StalenessAwareASGDRule
from repro.core.algorithms.sgd import SequentialSGDRule
from repro.core.algorithms.ssgd import SSGDRule

__all__ = [
    "UpdateRule",
    "SequentialSGDRule",
    "SSGDRule",
    "ASGDRule",
    "ADPSGDRule",
    "DCASGDRule",
    "LCASGDRule",
    "StalenessAwareASGDRule",
    "compensation_seed",
    "gossip_staleness",
    "make_update_rule",
]


def make_update_rule(algorithm: str, num_workers: int, momentum: float = 0.0, **kwargs) -> UpdateRule:
    """Build the update rule for ``algorithm``.

    ``kwargs`` are forwarded to the rule constructor (e.g. ``dc_lambda``).
    """
    if algorithm == "sgd":
        return SequentialSGDRule(momentum=momentum)
    if algorithm == "ssgd":
        return SSGDRule(num_workers=num_workers, momentum=momentum)
    if algorithm == "asgd":
        return ASGDRule(momentum=momentum)
    if algorithm == "dc-asgd":
        return DCASGDRule(
            lambda0=kwargs.get("dc_lambda", 0.04),
            adaptive=kwargs.get("dc_adaptive", True),
            momentum=momentum,
        )
    if algorithm == "lc-asgd":
        return LCASGDRule(momentum=momentum)
    if algorithm == "sa-asgd":
        return StalenessAwareASGDRule(momentum=momentum)
    if algorithm == "ad-psgd":
        # per-replica local rule: the gossip runtime builds one per worker
        return ADPSGDRule(momentum=momentum)
    raise ValueError(f"unknown algorithm {algorithm!r}")
