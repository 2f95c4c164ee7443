"""ExperimentSpec: one fully-described run, with a content-addressed key.

A spec is the unit of the declarative experiment API: *what* to run (a
:class:`~repro.core.config.TrainingConfig`), *how* to execute it (a backend
name plus backend options), and free-form ``tags`` for bookkeeping.  Its
:meth:`key` is a stable hash of the config + backend identity — the same
spec always maps to the same key, which is what lets the
:class:`~repro.experiments.store.ResultStore` resume interrupted campaigns
by skipping completed runs.

Tags are deliberately excluded from the key: relabelling a run must not
invalidate its cached result.

A spec owns a deep copy of the config and backend options it was built
from, and hashes them once, when it is built: a caller who goes on to
mutate their own config (``cfg.seed = s`` in a loop) changes neither the
spec's run nor its key.  To change a spec, build a new one.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.core.config import TrainingConfig

#: hex digits of SHA-256 kept in a key — 64 bits, ample for any campaign
KEY_LENGTH = 16


@dataclass(frozen=True)
class ExperimentSpec:
    """Config + backend + backend options + tags: one declarative run."""

    config: TrainingConfig
    backend: str = "sim"
    backend_options: Mapping[str, Any] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # own copies of the mutable inputs, so the key below stays the
        # key of what runs; tags are normalized so specs serialize alike
        object.__setattr__(self, "config", copy.deepcopy(self.config))
        object.__setattr__(self, "backend_options", copy.deepcopy(dict(self.backend_options)))
        object.__setattr__(self, "tags", _as_tag_tuple(self.tags))
        canonical = json.dumps(self.identity(), sort_keys=True, separators=(",", ":"))
        object.__setattr__(
            self, "_key", hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:KEY_LENGTH]
        )

    # ------------------------------------------------------------------ #
    def identity(self) -> Dict[str, Any]:
        """The JSON document the key hashes: config + backend, never tags."""
        return {
            "config": self.config.to_dict(),
            "backend": self.backend,
            "backend_options": dict(self.backend_options),
        }

    def key(self) -> str:
        """Content-addressed key: SHA-256 of the canonical identity JSON,
        hashed when the spec was built."""
        return self._key

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (identity + tags + key) for persistence."""
        payload = self.identity()
        payload["tags"] = list(self.tags)
        payload["key"] = self.key()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict` — how a spec crosses process/host
        boundaries (the fleet protocol ships specs as these documents).

        If the payload carries a ``key``, the rebuilt spec must re-derive
        the same one: a mismatch means the sender and receiver disagree
        about what the spec *is* (schema skew), and silently running the
        wrong experiment under a cached key would poison every store the
        result lands in.
        """
        spec = cls(
            config=TrainingConfig.from_dict(payload["config"]),
            backend=payload.get("backend", "sim"),
            backend_options=dict(payload.get("backend_options", {})),
            tags=tuple(payload.get("tags", ())),
        )
        expected = payload.get("key")
        if expected is not None and spec.key() != expected:
            raise ValueError(
                f"spec key mismatch after round-trip: sender says {expected!r}, "
                f"rebuilt spec hashes to {spec.key()!r} (schema skew?)"
            )
        return spec

    def label(self) -> str:
        """Short human-readable handle for progress lines and tables."""
        cfg = self.config
        return f"{cfg.algorithm}@M{cfg.num_workers} seed={cfg.seed} [{self.backend}]"

    def with_tags(self, *tags: str) -> "ExperimentSpec":
        """A copy with extra tags appended (key is unchanged by design)."""
        return ExperimentSpec(
            config=self.config,
            backend=self.backend,
            backend_options=dict(self.backend_options),
            tags=self.tags + _as_tag_tuple(tags),
        )


def _as_tag_tuple(tags: Iterable[str]) -> Tuple[str, ...]:
    if isinstance(tags, str):  # a lone string is one tag, not characters
        return (tags,)
    return tuple(str(t) for t in tags)
