"""BENCHMARK.json: schema, naming and limit checks, and agreement with the harness."""

import re

import pytest

from perfbench import manifest

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def doc():
    return manifest.load()


def test_top_level_keys_and_command(doc):
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/perf"]
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p for p in doc["paths"])
    assert 1 <= len(doc["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in doc["command"])
    # every file the command names lives under ``paths``
    assert [a for a in doc["command"] if "/" in a] == ["benchmarks/perf/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert manifest.BENCHMARK_JSON.stat().st_size <= 64 * 1024


def test_counts_names_units_and_bounds_are_within_limits(doc):
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.10, "the issue caps every bound at 10%"
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_file_is_exactly_what_the_harness_declares(doc):
    assert doc == manifest.build(doc["run_seconds"])


def test_run_budget_fits_the_driver_cap(doc):
    runs = 4 + 22 * len(doc["workloads"])
    per_run = doc["run_seconds"] + 6  # interpreter start + warm-up repeat + the last repeat's overrun
    assert runs * per_run <= 3420
