"""ResultStore: content-addressed JSON persistence for campaign runs.

Each run is one file, ``<key>.json``, where the key is the spec's hash
(:meth:`~repro.experiments.spec.ExperimentSpec.key`).  That gives three
properties the hand-rolled ``--json`` dump never had:

* **resume** — re-running a campaign skips every spec whose key is already
  on disk, so an interrupted grid finishes from where it stopped;
* **dedup** — two identical specs (e.g. ``sgd`` normalized to one worker
  at every swept worker count) share one file;
* **aggregation** — :meth:`ResultStore.summarize` rebuilds the paper-style
  (algorithm × workers) tables from whatever runs have landed so far.

Writes are atomic (temp file + rename) so a killed campaign never leaves a
half-written record behind to poison a resume.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.metrics import RunResult
from repro.experiments.spec import ExperimentSpec
from repro.utils.serialization import numpy_json_default

#: schema version stamped into every record
STORE_VERSION = 1

#: a ``*.tmp`` file older than this is an orphan from a killed writer; a
#: younger one may be a concurrent writer mid-``put`` and must be left alone
STALE_TMP_SECONDS = 600.0


@dataclass(frozen=True)
class StoreRecord:
    """One persisted run: its key, the spec document, and the result."""

    key: str
    spec: Dict[str, Any]
    result: RunResult


@dataclass(frozen=True)
class MergeReport:
    """What a :meth:`ResultStore.merge` actually did, key by key."""

    copied: Tuple[str, ...]  # only in the source: now here too
    skipped: Tuple[str, ...]  # key collision, existing record kept
    replaced: Tuple[str, ...]  # key collision, source record won (overwrite)

    def __str__(self) -> str:
        return (
            f"{len(self.copied)} copied, {len(self.skipped)} skipped, "
            f"{len(self.replaced)} replaced"
        )


class ResultStore:
    """A directory of ``<key>.json`` run records."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # a SIGKILL between mkstemp and os.replace strands a *.tmp file;
        # they are incomplete by construction, so sweep them on open (only
        # completed records ever carry the .json suffix).  The age gate
        # protects a live writer: its temp file exists for milliseconds,
        # never STALE_TMP_SECONDS.
        cutoff = time.time() - STALE_TMP_SECONDS
        for orphan in self.root.glob("*.tmp"):
            try:
                if orphan.stat().st_mtime < cutoff:
                    orphan.unlink()
            except OSError:
                pass  # racing store instance already collected it

    # ------------------------------------------------------------------ #
    def path_for(self, spec_or_key: Union[ExperimentSpec, str]) -> Path:
        """The file a spec (or raw key) lives at."""
        key = spec_or_key.key() if isinstance(spec_or_key, ExperimentSpec) else spec_or_key
        return self.root / f"{key}.json"

    def __contains__(self, spec_or_key: Union[ExperimentSpec, str]) -> bool:
        return self.path_for(spec_or_key).exists()

    def __len__(self) -> int:
        return len(self.keys())

    def keys(self) -> Tuple[str, ...]:
        """Keys of every persisted record, sorted."""
        return tuple(sorted(p.stem for p in self.root.glob("*.json")))

    # ------------------------------------------------------------------ #
    def put(self, spec: ExperimentSpec, result: RunResult) -> Path:
        """Persist one run atomically; returns the record path."""
        path = self.path_for(spec)
        payload = {
            "version": STORE_VERSION,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        text = json.dumps(payload, indent=2, default=numpy_json_default)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def get(self, spec_or_key: Union[ExperimentSpec, str]) -> Optional[RunResult]:
        """The stored result for a spec/key, or None if absent."""
        path = self.path_for(spec_or_key)
        if not path.exists():
            return None
        return self._load(path).result

    def load(self, key: str) -> StoreRecord:
        """The full record under ``key``; missing keys raise."""
        path = self.path_for(key)
        if not path.exists():
            raise KeyError(f"no record {key!r} in {self.root}")
        return self._load(path)

    def records(self) -> Iterator[StoreRecord]:
        """Every persisted record, in key order."""
        for key in self.keys():
            yield self._load(self.path_for(key))

    def results(self) -> List[RunResult]:
        """Every persisted RunResult, in key order."""
        return [record.result for record in self.records()]

    def _load(self, path: Path) -> StoreRecord:
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                # a bare decode error names no file; a resume over hundreds
                # of records must say which one is damaged
                message = f"corrupt record {path}: {exc.msg}"
                raise json.JSONDecodeError(message, exc.doc, exc.pos) from exc
        return StoreRecord(
            key=path.stem,
            spec=payload["spec"],
            result=RunResult.from_dict(payload["result"]),
        )

    # ------------------------------------------------------------------ #
    def merge(self, other: "ResultStore", overwrite: bool = False) -> "MergeReport":
        """Fold another store's records into this one, key-wise.

        This is how independently-collected fleet stores combine: keys are
        content-addressed, so a record only in ``other`` is simply copied,
        and a key present in both names the *same experiment* — the
        results may differ in nondeterministic detail (wall time, real
        staleness), never in identity.  Collisions keep the existing
        record unless ``overwrite`` is set; either way the report says
        exactly what happened so callers can audit a merge.

        Every source record is parsed before it is copied — a truncated
        or hand-mangled file fails the merge instead of poisoning the
        destination — and copies are atomic (temp file + rename), same as
        :meth:`put`.
        """
        copied: List[str] = []
        skipped: List[str] = []
        replaced: List[str] = []
        for key in other.keys():
            source = other.path_for(key)
            other._load(source)  # validate before it can land here
            if key in self:
                if not overwrite:
                    skipped.append(key)
                    continue
                replaced.append(key)
            else:
                copied.append(key)
            payload = source.read_bytes()
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, self.path_for(key))
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        return MergeReport(
            copied=tuple(copied), skipped=tuple(skipped), replaced=tuple(replaced)
        )

    # ------------------------------------------------------------------ #
    def summarize(
        self, filters: Optional[Dict[str, str]] = None
    ) -> List[Dict[str, Any]]:
        """Paper-style aggregate rows over the store, optionally filtered.

        ``filters`` uses the :func:`record_matches` vocabulary (the CLI's
        ``report --filter tag=... --filter algo=...``).
        """
        records = [
            r for r in self.records() if filters is None or record_matches(r, filters)
        ]
        return summarize_results(
            [r.result for r in records],
            scenarios=[scenario_label(r.spec.get("config", {})) for r in records],
        )


# ---------------------------------------------------------------------- #
# record filtering (the CLI's ``report --filter``)
# ---------------------------------------------------------------------- #
#: filter-name aliases: short CLI spellings -> the field they mean
FILTER_ALIASES = {
    "algo": "algorithm",
    "workers": "num_workers",
    "topo": "topology",
    "codec": "comm_codec",
}


def parse_filters(items: Sequence[str]) -> Dict[str, str]:
    """``["tag=sweep", "algo=lc-asgd"]`` -> {"tag": "sweep", "algorithm": ...}.

    Repeated ``--filter`` flags AND together; repeating the same *name*
    raises (two values for one field can never both match, and silently
    keeping the last one would hide a typo'd query).
    """
    filters: Dict[str, str] = {}
    for item in items:
        name, sep, value = str(item).partition("=")
        name = name.strip()
        if not sep or not name or not value.strip():
            raise ValueError(f"filter {item!r} is not name=value")
        name = FILTER_ALIASES.get(name, name)
        if name in filters:
            raise ValueError(f"filter {name!r} given twice")
        filters[name] = value.strip()
    return filters


def record_matches(record: StoreRecord, filters: Dict[str, str]) -> bool:
    """Does one record satisfy every filter?

    ``tag`` matches membership in the spec's tag list; ``backend`` matches
    the spec's backend; every other name looks up the spec's *config*
    document (``algorithm``, ``num_workers``, ``dataset``, ``model``,
    ``seed``, ``epochs``, ...) and compares stringified values, so
    ``num_workers=4`` works without the caller knowing field types.
    Filtering on a field the config doesn't have matches nothing rather
    than raising — stores legitimately mix schema versions.
    """
    spec = record.spec
    config = spec.get("config", {})
    for name, value in filters.items():
        if name == "tag":
            if value not in [str(t) for t in spec.get("tags", [])]:
                return False
        elif name == "backend":
            if str(spec.get("backend", "")) != value:
                return False
        elif name == "topology":
            # every config carries the field, but only decentralized runs
            # read it — match the *effective* topology ("" for a parameter-
            # server run), mirroring RunResult.topology
            effective = (
                str(config.get(name, ""))
                if str(config.get("algorithm", "")) == "ad-psgd"
                else ""
            )
            if effective != value:
                return False
        elif name == "comm_codec":
            # same effective-value contract as topology: only the backends
            # that move bytes honor the codec (RunResult.codec is "" on the
            # pure simulator and on gossip runs)
            honored = (
                str(spec.get("backend", "")) in ("thread", "proc")
                and str(config.get("algorithm", "")) != "ad-psgd"
            )
            effective = str(config.get(name, "raw32")) if honored else ""
            if effective != value:
                return False
        else:
            if name not in config or str(config[name]) != value:
                return False
    return True


# ---------------------------------------------------------------------- #
# aggregation (shared by the store and in-memory campaign results)
# ---------------------------------------------------------------------- #
def scenario_label(config: Dict[str, Any]) -> str:
    """Short workload handle (dataset/model/epochs) for summary grouping.

    A RunResult alone does not know what data it trained on; grouping by
    this label keeps runs from different presets (or epoch budgets) in
    separate rows when one store accumulates several campaigns.
    """
    if not config:
        return ""
    return (
        f"{config.get('dataset', '?')}/{config.get('model', '?')}"
        f"/e{config.get('epochs', '?')}"
    )


def summarize_results(
    results: Sequence[RunResult], scenarios: Optional[Sequence[str]] = None
) -> List[Dict[str, Any]]:
    """Group runs by (scenario, algorithm, workers, backend), average seeds.

    Row fields mirror the paper's tables: seed-averaged final/best test
    error, mean staleness, clock time, and per-iteration predictor
    overhead (Tables 2-3) where recorded.  ``scenarios`` (parallel to
    ``results``) separates runs of different workloads that share an
    algorithm/worker cell; without it every run lands in scenario "".
    """
    if scenarios is None:
        scenarios = [""] * len(results)
    elif len(scenarios) != len(results):
        # zip would silently truncate and misattribute runs to rows
        raise ValueError(
            f"scenarios ({len(scenarios)}) and results ({len(results)}) must "
            f"be parallel sequences"
        )
    cells: Dict[Tuple[str, str, str, str, int, str], List[RunResult]] = {}
    for result, scenario in zip(results, scenarios):
        cells.setdefault(
            (
                scenario,
                result.algorithm,
                result.topology,
                result.codec,
                result.num_workers,
                result.backend,
            ),
            [],
        ).append(result)

    rows: List[Dict[str, Any]] = []
    for (scenario, algorithm, topology, codec, workers, backend), runs in sorted(
        cells.items()
    ):
        final_errors = np.array([r.final_test_error for r in runs], dtype=np.float64)
        rows.append(
            {
                "scenario": scenario,
                "algorithm": algorithm,
                "topology": topology,
                "codec": codec,
                "num_workers": workers,
                "backend": backend,
                "runs": len(runs),
                "seeds": sorted(r.seed for r in runs),
                "final_test_error": float(final_errors.mean()),
                "final_test_error_std": float(final_errors.std()),
                "best_test_error": float(np.mean([r.best_test_error for r in runs])),
                "mean_staleness": float(
                    np.mean([r.staleness.get("mean", 0.0) for r in runs])
                ),
                "clock_time": float(np.mean([r.total_virtual_time for r in runs])),
                "loss_pred_ms": float(
                    np.mean([r.timers.get("loss_pred_ms", 0.0) for r in runs])
                ),
                # unified CommStats keys (zero on runs that moved no bytes)
                "wire_mb": float(
                    np.mean([r.comm.get("wire_bytes", 0.0) for r in runs]) / 1e6
                ),
                "logical_mb": float(
                    np.mean([r.comm.get("logical_bytes", 0.0) for r in runs]) / 1e6
                ),
            }
        )
    return rows


def format_summary(rows: Sequence[Dict[str, Any]]) -> str:
    """Render summarize() rows as the CLI's aligned text table.

    The scenario column appears only when the rows span more than one
    workload (one campaign's table stays compact).
    """
    if not rows:
        return "(no runs)"
    scenarios = {row.get("scenario", "") for row in rows}
    show_scenario = len(scenarios) > 1
    scen_w = max(len("scenario"), *(len(s) for s in scenarios)) if show_scenario else 0
    # decentralized rows carry a peer graph; the column appears only when
    # at least one run has one (server-only tables stay compact)
    show_topology = any(row.get("topology", "") for row in rows)
    # codec and wire columns appear when some run honored a codec / moved
    # bytes — pure-sim tables stay exactly as compact as before
    show_codec = any(row.get("codec", "") for row in rows)
    show_wire = any(row.get("wire_mb", 0.0) > 0 for row in rows)
    header = (
        (f"{'scenario':<{scen_w}} " if show_scenario else "")
        + f"{'algorithm':<10} "
        + (f"{'topology':<9} " if show_topology else "")
        + (f"{'codec':<6} " if show_codec else "")
        + f"{'M':>3} {'backend':<7} {'runs':>4} "
        f"{'test err':>9} {'±std':>7} {'best':>7} {'stale':>6} {'clock(s)':>9}"
        + (f" {'wire MB':>8}" if show_wire else "")
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            (f"{row.get('scenario', ''):<{scen_w}} " if show_scenario else "")
            + f"{row['algorithm']:<10} "
            + (f"{row.get('topology', '') or '-':<9} " if show_topology else "")
            + (f"{row.get('codec', '') or '-':<6} " if show_codec else "")
            + f"{row['num_workers']:>3} {row['backend']:<7} "
            f"{row['runs']:>4} {row['final_test_error']:>8.2%} "
            f"{row['final_test_error_std']:>7.4f} {row['best_test_error']:>6.2%} "
            f"{row['mean_staleness']:>6.1f} {row['clock_time']:>9.1f}"
            + (f" {row.get('wire_mb', 0.0):>8.2f}" if show_wire else "")
        )
    return "\n".join(lines)
