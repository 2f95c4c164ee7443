"""The linter run against this repo itself, plus mutation acceptance checks.

The self-check is the tier-1 gate the ISSUE asks for: ``repro lint`` must
be clean over ``src/repro`` modulo the committed baseline.  The mutation
tests then prove the gate has teeth — a proc frame class that nobody
examines, or a reintroduced unseeded ``default_rng()``, must produce a finding.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis import apply_baseline, load_baseline, run_passes

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_ROOT.parent.parent
BASELINE = REPO_ROOT / "lint-baseline.json"


def test_repo_is_lint_clean_modulo_baseline():
    findings = run_passes(PACKAGE_ROOT)
    entries = load_baseline(BASELINE) if BASELINE.is_file() else []
    fresh, _suppressed, stale = apply_baseline(findings, entries)
    assert not fresh, "non-baselined lint findings:\n" + "\n".join(str(f) for f in fresh)
    assert not stale, "stale baseline entries (fix was shipped, prune them): " + repr(stale)


def test_committed_baseline_is_empty():
    # the ISSUE's bar: an empty (or explicitly justified) baseline.  If a
    # future change has to baseline something, document why and drop this.
    assert load_baseline(BASELINE) == []


@pytest.fixture
def package_copy(tmp_path):
    dest = tmp_path / "repro"
    shutil.copytree(PACKAGE_ROOT, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_dropping_a_handshake_kind_examination_is_caught(package_copy):
    backend = package_copy / "runtime" / "proc_backend.py"
    text = backend.read_text()
    target = "if isinstance(message, RunEnd):"
    assert text.count(target) == 1, "mutation target moved; update this test"
    backend.write_text(text.replace(target, "if message is None:"))

    findings = run_passes(package_copy, rules=["wire"])
    assert any(
        "frame RunEnd " in f.message and f.path == "runtime/proc_worker.py" for f in findings
    ), [str(f) for f in findings]
    # findings carry a real path:line location
    assert all(f.line >= 1 for f in findings)


def test_unseeded_default_rng_in_nn_is_caught(package_copy):
    mlp = package_copy / "nn" / "mlp.py"
    mlp.write_text(
        mlp.read_text() + "\n\n_BAD_RNG = np.random.default_rng()\n"
    )
    findings = run_passes(package_copy, rules=["determinism"])
    assert len(findings) == 1
    assert findings[0].path == "nn/mlp.py"
    assert "unseeded" in findings[0].message


def test_clean_package_copy_stays_clean(package_copy):
    # the copy must reproduce the self-check (guards against the mutation
    # tests passing for the wrong reason, e.g. a path-dependent allowlist)
    assert run_passes(package_copy) == []
