"""Make ``perfbench`` and ``run.py`` importable for the benchmark's own tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1]
# appended, not prepended: ``benchmarks/perf/tests`` must not shadow the
# repo's own ``tests`` namespace package (``from tests.conftest import ...``)
for entry in (str(PERF_DIR.parents[1] / "src"), str(PERF_DIR)):
    if entry not in sys.path:
        sys.path.append(entry)


@pytest.fixture(scope="session")
def run_module():
    """``benchmarks/perf/run.py`` loaded as a module (it is a script, not a package member)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERF_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
