"""CLI smoke tests for the new sweep/report subcommands."""

import json

import pytest

from repro.cli import main as cli_main


def test_sweep_smoke_on_tiny(tmp_path, capsys):
    store_dir = tmp_path / "out"
    code = cli_main([
        "sweep", "--preset", "tiny", "--algorithms", "sgd,asgd",
        "--workers", "2,4", "--seeds", "2", "--epochs", "1",
        "--seed", "0", "--json", str(store_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign:" in out
    assert "store:" in out

    # one JSON per run, keyed by spec hash; sgd deduped across worker counts
    records = sorted(store_dir.glob("*.json"))
    assert len(records) == 6  # 2 sgd (M collapses to 1) + 4 asgd
    payload = json.loads(records[0].read_text())
    assert payload["spec"]["key"] == records[0].stem
    assert "result" in payload


def test_sweep_resumes_from_store(tmp_path, capsys):
    store_dir = str(tmp_path / "out")
    argv = [
        "sweep", "--preset", "tiny", "--algorithms", "asgd",
        "--workers", "2", "--seeds", "2", "--epochs", "1", "--json", store_dir,
    ]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert "running" in first

    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert "running" not in second  # everything cached
    assert "cached" in second


def test_report_reads_store(tmp_path, capsys):
    store_dir = str(tmp_path / "out")
    cli_main([
        "sweep", "--preset", "tiny", "--algorithms", "asgd",
        "--workers", "2", "--seeds", "1", "--epochs", "1", "--json", store_dir,
    ])
    capsys.readouterr()

    rows_path = tmp_path / "rows.json"
    assert cli_main(["report", store_dir, "--json", str(rows_path)]) == 0
    out = capsys.readouterr().out
    assert "algorithm" in out and "asgd" in out
    rows = json.loads(rows_path.read_text())
    assert rows[0]["algorithm"] == "asgd"
    assert rows[0]["num_workers"] == 2


def test_sweep_rejects_unknown_algorithm(tmp_path):
    import pytest

    with pytest.raises(SystemExit, match="bogus"):
        cli_main(["sweep", "--algorithms", "bogus", "--workers", "2"])


def test_sweep_through_proc_backend_persists_and_resumes(tmp_path, capsys):
    """The acceptance path: a proc-backend grid lands in a ResultStore and a
    rerun resolves entirely from it (real worker processes both times)."""
    store_dir = str(tmp_path / "out")
    argv = [
        "sweep", "--preset", "spirals", "--backend", "proc",
        "--algorithms", "asgd,lc-asgd", "--workers", "2", "--seeds", "1",
        "--epochs", "1", "--json", store_dir,
    ]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert "running" in first and "[proc]" in first

    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    assert "running" not in second  # resumed: everything cached
    assert "cached" in second

    import json
    from pathlib import Path

    records = sorted(Path(store_dir).glob("*.json"))
    assert len(records) == 2
    assert all(json.loads(p.read_text())["spec"]["backend"] == "proc" for p in records)


def test_sweep_through_fleet_agents(tmp_path, capsys):
    """`sweep --agents host:port,host:port` runs the grid on fleet daemons
    and lands in the same resumable store as any other executor."""
    from repro.fleet import FleetAgent

    agents = [FleetAgent(port=0, slots=1).start(), FleetAgent(port=0, slots=1).start()]
    roster = ",".join(f"{h}:{p}" for h, p in (a.address for a in agents))
    store_dir = str(tmp_path / "out")
    argv = [
        "sweep", "--preset", "spirals", "--algorithms", "asgd",
        "--workers", "2", "--seeds", "2", "--epochs", "1", "--seed", "0",
        "--agents", roster, "--json", store_dir,
    ]
    try:
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "fleet:" in out and "running" in out

        assert cli_main(argv) == 0  # resumes entirely from the store
        assert "running" not in capsys.readouterr().out
    finally:
        for agent in agents:
            agent.close()
    records = sorted(__import__("pathlib").Path(store_dir).glob("*.json"))
    assert len(records) == 2


def test_sweep_codec_axis_runs_dcasgd_ablation_on_one_grid(tmp_path, capsys):
    """The compression ablation the redesign exists for: dc-asgd crossed
    with every codec on a single grid, with per-codec wire bytes in the
    report coming from the unified CommStats keys."""
    store_dir = str(tmp_path / "out")
    argv = [
        "sweep", "--preset", "tiny", "--backend", "thread",
        "--algorithms", "dc-asgd", "--workers", "2", "--seeds", "1",
        "--epochs", "1", "--comm-codec", "raw32,fp16,topk",
        "--json", store_dir,
    ]
    assert cli_main(argv) == 0
    capsys.readouterr()

    records = sorted(__import__("pathlib").Path(store_dir).glob("*.json"))
    assert len(records) == 3  # one cell per codec, same grid
    codecs = sorted(
        json.loads(p.read_text())["spec"]["config"]["comm_codec"] for p in records
    )
    assert codecs == ["fp16", "raw32", "topk"]

    rows_path = tmp_path / "rows.json"
    assert cli_main(["report", store_dir, "--json", str(rows_path)]) == 0
    out = capsys.readouterr().out
    assert "codec" in out and "wire MB" in out
    rows = json.loads(rows_path.read_text())
    by_codec = {row["codec"]: row for row in rows}
    assert set(by_codec) == {"raw32", "fp16", "topk"}
    assert all(row["wire_mb"] > 0 for row in rows)
    # the whole point of the ablation: compression shows up in the report
    assert by_codec["fp16"]["wire_mb"] < by_codec["raw32"]["wire_mb"]
    assert by_codec["topk"]["wire_mb"] < by_codec["raw32"]["wire_mb"]

    # the codec filter narrows like any other axis
    assert cli_main([
        "report", store_dir, "--filter", "codec=fp16", "--json", str(rows_path),
    ]) == 0
    capsys.readouterr()
    assert [row["codec"] for row in json.loads(rows_path.read_text())] == ["fp16"]


def test_sweep_rejects_unknown_codec():
    import pytest

    with pytest.raises(SystemExit, match="gzip"):
        cli_main(["sweep", "--comm-codec", "raw32,gzip", "--workers", "2"])


def test_sweep_rejects_agents_plus_jobs():
    import pytest

    with pytest.raises(SystemExit, match="different parallelism"):
        cli_main(["sweep", "--agents", "127.0.0.1:1", "--jobs", "2"])


def test_report_filter_narrows_rows(tmp_path, capsys):
    store_dir = str(tmp_path / "out")
    cli_main([
        "sweep", "--preset", "tiny", "--algorithms", "sgd,asgd",
        "--workers", "2", "--seeds", "1", "--epochs", "1", "--json", store_dir,
    ])
    capsys.readouterr()

    rows_path = tmp_path / "rows.json"
    assert cli_main([
        "report", store_dir, "--filter", "algo=asgd", "--json", str(rows_path),
    ]) == 0
    rows = json.loads(rows_path.read_text())
    assert [row["algorithm"] for row in rows] == ["asgd"]

    assert cli_main(["report", store_dir, "--filter", "tag=sweep"]) == 0
    assert "sgd" in capsys.readouterr().out  # sweep tag matches everything

    import pytest

    with pytest.raises(SystemExit, match="name=value"):
        cli_main(["report", store_dir, "--filter", "nonsense"])


def test_store_merge_cli(tmp_path, capsys):
    a_dir, b_dir = str(tmp_path / "a"), str(tmp_path / "b")
    for algo, store_dir in (("sgd", a_dir), ("asgd", b_dir)):
        cli_main([
            "sweep", "--preset", "tiny", "--algorithms", algo,
            "--workers", "2", "--seeds", "1", "--epochs", "1", "--json", store_dir,
        ])
    capsys.readouterr()

    dest = str(tmp_path / "merged")
    assert cli_main(["store", "merge", dest, a_dir, b_dir]) == 0
    out = capsys.readouterr().out
    assert "1 copied" in out and "(2 record(s))" in out

    # merging again skips every record (idempotent)
    assert cli_main(["store", "merge", dest, a_dir, b_dir]) == 0
    assert "0 copied" in capsys.readouterr().out

    import pytest

    with pytest.raises(SystemExit, match="no result store"):
        cli_main(["store", "merge", dest, str(tmp_path / "missing")])


def test_deterministic_flag_requires_thread_backend():
    import pytest

    with pytest.raises(SystemExit, match="thread-backend option"):
        cli_main(["run", "--backend", "proc", "--deterministic", "--epochs", "1"])


def test_info_emits_nested_json(capsys):
    assert cli_main(["info", "--algorithm", "lc-asgd", "--workers", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # nested dataclasses serialize as real objects, not Python reprs
    assert isinstance(payload["predictor"], dict)
    assert isinstance(payload["cluster"], dict)
    assert payload["predictor"]["loss_variant"] == "lstm"
    assert payload["cluster"]["mean_batch_time"] > 0


def test_run_spirals_preset(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = cli_main([
        "run", "--preset", "spirals", "--algorithm", "asgd", "--workers", "2",
        "--epochs", "1", "--json", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["algorithm"] == "asgd"
    assert 0.0 <= payload["final_test_error"] <= 1.0


def test_sweep_refuses_adpsgd_where_it_cannot_run_before_running_any_cell(tmp_path):
    for backend in (["--backend", "proc"], ["--backend", "thread", "--deterministic"]):
        store_dir = tmp_path / backend[1]
        with pytest.raises(SystemExit, match="ad-psgd"):
            cli_main([
                "sweep", "--preset", "tiny", *backend, "--algorithms", "asgd,ad-psgd",
                "--workers", "2", "--seeds", "1", "--epochs", "1", "--json", str(store_dir),
            ])
        assert not list(store_dir.glob("*.json"))  # no cell ran


def test_run_refuses_adpsgd_where_it_cannot_run_before_building_a_plan(monkeypatch):
    from repro.runtime import ExperimentPlan

    def no_plan(*args, **kwargs):  # pragma: no cover - the failure being tested
        raise AssertionError("a plan was built for a refused cell")

    monkeypatch.setattr(ExperimentPlan, "from_config", no_plan)
    for backend in (["--backend", "proc"], ["--backend", "thread", "--deterministic"]):
        with pytest.raises(SystemExit, match="ad-psgd") as refused:
            cli_main([
                "run", "--preset", "spirals", *backend, "--algorithm", "ad-psgd",
                "--workers", "2", "--epochs", "1",
            ])
        assert "\n" not in str(refused.value.code)


def test_a_refused_run_prints_one_line_and_no_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--backend", "proc", "--algorithm", "ad-psgd",
         "--preset", "spirals", "--workers", "2", "--epochs", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "backend, clock", [("thread", "wall-clock"), ("gossip", "virtual"), ("sim", "virtual")]
)
def test_a_gossip_run_summary_names_the_clock_of_the_backend_it_ran(backend, clock, capsys):
    code = cli_main([
        "run", "--preset", "tiny", "--backend", backend, "--algorithm", "ad-psgd",
        "--workers", "2", "--epochs", "1",
    ])
    assert code == 0
    summary = [line for line in capsys.readouterr().out.splitlines() if "final test error" in line]
    assert len(summary) == 1 and clock in summary[0], summary
