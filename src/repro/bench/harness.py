"""Table formatting and the perf trajectory for the benches."""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.utils.logging import get_logger

logger = get_logger("bench.harness")


def record_trajectory(
    name: str, metrics: Dict[str, float], root: Optional[str] = None
) -> Optional[str]:
    """Append one dated entry to the ``BENCH_<name>.json`` trajectory.

    The trajectory is how perf regressions stay visible across PRs: each
    recorded bench run appends ``{"date", "metrics"}`` to a committed JSON
    file at the repo root.  Recording is opt-in — without an explicit
    ``root`` this is a no-op unless ``REPRO_BENCH_RECORD`` is set — so
    ordinary pytest/CI runs never dirty the working tree.  Returns the
    path written, or None when recording is off.
    """
    if root is None:
        if not os.environ.get("REPRO_BENCH_RECORD"):
            return None
        root = os.environ.get("REPRO_BENCH_DIR") or str(
            Path(__file__).resolve().parents[3]
        )
    path = Path(root) / f"BENCH_{name}.json"
    history = json.loads(path.read_text()) if path.exists() else []
    clean = {
        key: (round(value, 6) if isinstance(value, float) else value)
        for key, value in metrics.items()
    }
    history.append({"date": time.strftime("%Y-%m-%d"), "metrics": clean})
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    logger.info("recorded bench trajectory entry: %s", path)
    return str(path)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Monospace table with aligned columns (bench stdout artifact)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
