"""Command-line interface: ``python -m repro run|compare|sweep|report|info``.

A thin veneer over the declarative experiment API
(:mod:`repro.experiments`): every subcommand builds
:class:`~repro.experiments.spec.ExperimentSpec` objects and hands them to a
:class:`~repro.experiments.campaign.Campaign`.  Progress reporting goes
through :class:`~repro.experiments.events.ConsoleEvents` — the CLI itself
contains no training loops.

* ``run`` — one algorithm, one seed.
* ``compare`` — every algorithm on the same preset (a 1×|algorithms| grid).
* ``sweep`` — the full declarative grid: ``--algorithms`` ×
  ``--workers`` × ``--seeds``, optionally parallelized across processes
  (``--jobs``) and persisted/resumed through a result store (``--json DIR``).
* ``report`` — summarize a result store as the paper-style table,
  optionally filtered (``--filter tag=... --filter algo=...``);
  ``--plot`` additionally renders the paper-style convergence curves
  as ASCII charts.
* ``agent`` — run a fleet agent daemon; ``sweep --agents host:port,...``
  farms grid cells out to a roster of them (see README "Fleet mode").
* ``store merge`` — fold independently-collected result stores into one,
  content-addressed-key-wise.
* ``watch`` — follow the live JSON dashboard a ``sweep --serve PORT``
  campaign publishes (progress, curve tails, agent roster, metrics).
* ``trace`` — inspect a JSONL run trace written by ``run --trace PATH``:
  ``show`` prints records, ``summarize`` prints per-phase time
  attribution and staleness statistics.
* ``info`` — dump the resolved configuration as nested JSON.

``--backend`` selects the execution runtime: ``sim`` (deterministic
virtual-time event loop, the default), ``thread`` (real concurrent
parameter server; wall-clock time and staleness are genuine) or ``proc``
(real OS-process workers over sockets; no shared GIL).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import TrainingConfig
from repro.core.config import ALGORITHMS, COMM_CODECS, TOPOLOGIES
from repro.data.registry import dataset_names
from repro.experiments import (
    Campaign,
    ConsoleEvents,
    ExperimentSpec,
    ResultStore,
    Sweep,
    format_summary,
    make_executor,
    parse_filters,
)
from repro.nn.registry import model_names
from repro.runtime import available_backends
from repro.version import __version__

#: preset name -> TrainingConfig factory (the sweepable scenarios)
PRESETS = {
    "tiny": TrainingConfig.tiny,
    "cifar": TrainingConfig.small_cifar,
    "imagenet": TrainingConfig.small_imagenet,
    "spirals": TrainingConfig.spirals,
    "paper-cifar": TrainingConfig.paper_cifar10,
    "paper-imagenet": TrainingConfig.paper_imagenet,
}


def _result_payload(result) -> dict:
    """The full result record plus the derived headline numbers."""
    payload = result.to_dict()
    payload.update(
        final_test_error=result.final_test_error,
        final_train_error=result.final_train_error,
        best_test_error=result.best_test_error,
    )
    return payload


def _make_config(
    args: argparse.Namespace,
    algorithm: str,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    codec: Optional[str] = None,
) -> TrainingConfig:
    """Resolve one TrainingConfig from CLI flags (sgd-normalization is
    config's job now, not ours)."""
    factory = PRESETS[args.preset]
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
        overrides["lr_milestones"] = (args.epochs // 2, (3 * args.epochs) // 4)
    if args.model is not None:
        overrides["model"] = args.model
        overrides["model_kwargs"] = {}  # preset kwargs belong to its own model
    if getattr(args, "topology", None) is not None:
        overrides["topology"] = args.topology
    if codec is not None:
        overrides["comm_codec"] = codec
    elif getattr(args, "comm_codec", None) is not None:
        overrides["comm_codec"] = args.comm_codec
    return factory(
        algorithm=algorithm,
        num_workers=int(args.workers) if workers is None else workers,
        seed=args.seed if seed is None else seed,
        **overrides,
    )


def _backend_options(args: argparse.Namespace) -> dict:
    if args.backend != "thread":
        return {}
    return {"deterministic": args.deterministic}


def _make_spec(
    args: argparse.Namespace,
    algorithm: str,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    codec: Optional[str] = None,
) -> ExperimentSpec:
    return ExperimentSpec(
        config=_make_config(args, algorithm, seed=seed, workers=workers, codec=codec),
        backend=args.backend,
        backend_options=_backend_options(args),
    )


def _print_summary(result, backend: str) -> None:
    # the backend the CLI ran, not result.backend: a thread gossip run's
    # result says "gossip", like the sim's rounds, but its clock is the wall
    clock = (
        f"real {result.wall_time:.1f}s wall-clock"
        if backend in ("thread", "proc")
        else f"virtual {result.total_virtual_time:.1f}s"
    )
    print(f"final test error: {result.final_test_error:.2%} "
          f"({clock}, mean staleness {result.staleness['mean']:.1f})")


def _add_common(parser: argparse.ArgumentParser, multi_worker: bool = False) -> None:
    if multi_worker:
        parser.add_argument(
            "--workers", default="4,8",
            help="comma-separated worker counts to sweep (e.g. 2,4,8)",
        )
    else:
        parser.add_argument("--workers", type=int, default=8, help="worker count")
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="cifar",
        help="named experiment preset (scenario + scale)",
    )
    parser.add_argument(
        "--dataset", choices=sorted(dataset_names()), default=None,
        help="alias for --preset on the small-scale scenarios",
    )
    parser.add_argument(
        "--model", choices=sorted(model_names()), default=None,
        help="override the preset's model (e.g. resnet_tiny)",
    )
    parser.add_argument("--epochs", type=int, default=None, help="override preset epochs")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--backend",
        choices=list(available_backends()),
        default="sim",
        help="execution runtime: sim (virtual time), thread (real threads), "
             "proc (real worker processes over sockets) or gossip "
             "(serverless ad-psgd on the sim's rounds; sim and thread run "
             "ad-psgd serverless too)",
    )
    parser.add_argument(
        "--topology",
        choices=list(TOPOLOGIES),
        default=None,
        help="ad-psgd peer graph (ring, bipartite, complete); "
             "ignored by the server-based algorithms",
    )
    parser.add_argument(
        "--comm-codec",
        dest="comm_codec",
        default=None,
        help="gradient codec on the wire (raw32, fp16, topk); sweep accepts "
             "a comma-separated list to add a codec axis to the grid",
    )
    parser.add_argument(
        "--deterministic",
        action="store_true",
        help="thread backend only: round-robin scheduling, reproducible runs",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="stream one line per evaluation point (serial execution only)",
    )


def _resolve_preset(args: argparse.Namespace) -> None:
    """``--dataset X`` keeps working as shorthand for the matching preset."""
    if args.dataset is not None:
        args.preset = args.dataset


def _check_jobs(args: argparse.Namespace) -> None:
    if getattr(args, "agents", None) and args.jobs > 1:
        raise SystemExit(
            "--agents and --jobs are different parallelism strategies: agents "
            "already run cells concurrently on their own hosts (pick one)"
        )
    if args.jobs > 1 and args.backend != "sim":
        raise SystemExit(
            "--jobs > 1 parallelizes across processes and only supports the sim "
            "backend; the thread and proc backends already use every core for "
            "their own workers"
        )


def _refuse_gossip(args: argparse.Namespace, algorithms: List[str]) -> None:
    """Refuse ad-psgd on proc or deterministic threads before any cell runs."""
    if "ad-psgd" in algorithms and (args.backend == "proc" or args.deterministic):
        raise SystemExit(
            "ad-psgd has no proc runtime and no deterministic thread mode; run "
            "it on --backend sim or free-running thread, or pick another algorithm"
        )


def _parse_worker_counts(raw: str) -> List[int]:
    try:
        counts = [int(w) for w in str(raw).split(",") if w.strip()]
    except ValueError:
        raise SystemExit(f"--workers expects comma-separated integers, got {raw!r}")
    if not counts:
        raise SystemExit("--workers expects at least one worker count")
    return counts


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="LC-ASGD reproduction (ICPP 2020)"
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train once with one algorithm")
    run_p.add_argument("--algorithm", choices=list(ALGORITHMS), default="lc-asgd")
    _add_common(run_p)
    run_p.add_argument("--json", metavar="PATH", default=None, help="write the result as JSON")
    run_p.add_argument(
        "--obs", action="store_true",
        help="attach a trace recorder: the result carries per-phase time "
             "attribution and staleness/wire-byte histograms",
    )
    run_p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write the run's JSONL trace here (implies --obs)",
    )

    cmp_p = sub.add_parser("compare", help="train every algorithm and summarize")
    _add_common(cmp_p)
    cmp_p.add_argument(
        "--jobs", type=int, default=1,
        help="sim backend: run up to N configs in parallel processes",
    )
    cmp_p.add_argument("--json", metavar="PATH", default=None, help="write results as JSON")

    sweep_p = sub.add_parser(
        "sweep", help="run a declarative algorithms x workers x seeds grid"
    )
    sweep_p.add_argument(
        "--algorithms", default=",".join(ALGORITHMS),
        help="comma-separated algorithms (default: all)",
    )
    _add_common(sweep_p, multi_worker=True)
    sweep_p.set_defaults(preset="tiny")
    sweep_p.add_argument(
        "--seeds", type=int, default=1,
        help="number of seeds per cell (seed, seed+1, ...)",
    )
    sweep_p.add_argument(
        "--jobs", type=int, default=1,
        help="sim backend: run up to N grid cells in parallel processes",
    )
    sweep_p.add_argument(
        "--json", metavar="DIR", default=None,
        help="result-store directory: one JSON per run, keyed by spec hash; "
             "rerunning resumes from it",
    )
    sweep_p.add_argument(
        "--agents", metavar="HOST:PORT,...", default="",
        help="run grid cells on these fleet agents (start them with "
             "`repro agent`); dead agents are survived by requeueing",
    )
    sweep_p.add_argument(
        "--agent-timeout", type=float, default=0.0, metavar="SECONDS",
        help="declare an agent dead after this long without a frame "
             "(default 10; must exceed the agents' --heartbeat interval)",
    )
    sweep_p.add_argument(
        "--obs", action="store_true",
        help="run every cell with a trace recorder (results carry "
             "metrics-hub snapshots; fleet agents ship traces back)",
    )
    sweep_p.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="publish live campaign state as JSON on this port while the "
             "sweep runs (0 picks a free port; follow it with `repro "
             "watch URL`); implies --obs",
    )

    rep_p = sub.add_parser("report", help="summarize a result-store directory")
    rep_p.add_argument("store", help="result-store directory written by sweep --json")
    rep_p.add_argument("--json", metavar="PATH", default=None, help="write summary rows as JSON")
    rep_p.add_argument(
        "--filter", action="append", default=[], metavar="NAME=VALUE",
        help="keep only matching runs; repeatable (ANDed). NAME is 'tag', "
             "'backend', or a config field (algo/algorithm, num_workers, "
             "dataset, model, seed, ...)",
    )
    rep_p.add_argument(
        "--plot", action="store_true",
        help="also render the paper-style convergence curves (test error "
             "vs time, one series per algorithm x workers cell) as ASCII",
    )

    agent_p = sub.add_parser(
        "agent", help="run a fleet agent daemon that executes sweep cells"
    )
    agent_p.add_argument(
        "--bind", default="127.0.0.1:7463", metavar="HOST:PORT",
        help="address to listen on (port 0 picks a free one)",
    )
    agent_p.add_argument(
        "--slots", type=int, default=1, help="cells to run concurrently on this host"
    )
    agent_p.add_argument(
        "--heartbeat", type=float, default=None,
        help="seconds between liveness pulses to the scheduler",
    )
    agent_p.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound host:port here once listening",
    )

    store_p = sub.add_parser("store", help="result-store maintenance")
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    merge_p = store_sub.add_parser(
        "merge", help="fold source stores into a destination, key-wise"
    )
    merge_p.add_argument("dest", help="destination store directory (created if absent)")
    merge_p.add_argument("sources", nargs="+", help="source store directories")
    merge_p.add_argument(
        "--overwrite", action="store_true",
        help="on key collision prefer the source record (default keeps dest's)",
    )

    watch_p = sub.add_parser(
        "watch", help="follow the live dashboard of a `sweep --serve` campaign"
    )
    watch_p.add_argument("url", help="dashboard URL printed by sweep --serve")
    watch_p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval (default 2s)",
    )
    watch_p.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )

    trace_p = sub.add_parser("trace", help="inspect a JSONL run trace")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    show_p = trace_sub.add_parser("show", help="print trace records")
    show_p.add_argument("path", help="JSONL trace written by run --trace")
    show_p.add_argument(
        "--kind", default=None, metavar="NAME",
        help="only records of this event kind (span, staleness, ...)",
    )
    show_p.add_argument(
        "--limit", type=int, default=0, metavar="N",
        help="stop after N records (default: all)",
    )
    tsum_p = trace_sub.add_parser(
        "summarize", help="per-phase time attribution + staleness statistics"
    )
    tsum_p.add_argument("path", help="JSONL trace written by run --trace")

    info_p = sub.add_parser("info", help="describe the resolved configuration")
    info_p.add_argument("--algorithm", choices=list(ALGORITHMS), default="lc-asgd")
    _add_common(info_p)

    lint_p = sub.add_parser(
        "lint", help="run the repro.analysis invariant passes over the source tree"
    )
    lint_p.add_argument(
        "--rule", action="append", default=None, metavar="NAME",
        help="run only this pass; repeatable (default: all passes)",
    )
    lint_p.add_argument(
        "--root", default=None, metavar="DIR",
        help="tree to analyze (default: the installed repro package)",
    )
    lint_p.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="suppression baseline (default: lint-baseline.json found "
             "walking up from the analyzed root)",
    )
    lint_p.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true", help="list available passes and exit"
    )

    args = parser.parse_args(argv)

    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "agent":
        return _cmd_agent(args)
    if args.command == "store":
        return _cmd_store_merge(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.deterministic and args.backend != "thread":
        raise SystemExit(
            "--deterministic is a thread-backend option (sim is always "
            "deterministic; proc workers are real processes and race)"
        )
    _resolve_preset(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    return _cmd_sweep(args)


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def _cmd_info(args: argparse.Namespace) -> int:
    config = _make_config(args, args.algorithm)
    print(json.dumps(config.to_dict(), indent=2))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _refuse_gossip(args, [args.algorithm])
    spec = _make_spec(args, args.algorithm)
    if args.obs or args.trace:
        # Observability bypasses the Campaign veneer: run_experiment owns
        # the recorder so --trace can dump the JSONL after the run.
        from repro.runtime.backends import run_experiment

        result = run_experiment(
            spec.config,
            backend=spec.backend,
            obs=True,
            trace_path=args.trace or "",
            **spec.backend_options,
        )
    else:
        report = Campaign([spec], events=ConsoleEvents(verbose=args.verbose)).run()
        result = report.results[0]
    _print_summary(result, args.backend)
    obs = getattr(result, "obs", None) or {}
    if obs.get("enabled"):
        spans = obs.get("spans_ms") or {}
        attribution = "  ".join(
            f"{phase} {ms:.0f}ms" for phase, ms in sorted(spans.items())
        )
        print(f"obs: {obs.get('records', 0)} trace record(s)"
              + (f"; {attribution}" if attribution else ""))
    if args.trace:
        print(f"trace: {args.trace}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(_result_payload(result), fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _check_jobs(args)
    # the proc runtime is server-based only, and gossip on threads cannot be
    # made deterministic; keep `compare --backend proc` and `--backend
    # thread --deterministic` meaningful by skipping the serverless
    # algorithm instead of dying on it
    skip_gossip = args.backend == "proc" or args.deterministic
    algorithms = [a for a in ALGORITHMS if not (a == "ad-psgd" and skip_gossip)]
    specs = [_make_spec(args, algorithm) for algorithm in algorithms]
    report = Campaign(
        specs,
        executor=make_executor(args.jobs),
        events=ConsoleEvents(verbose=args.verbose),
    ).run()
    payloads = [_result_payload(result) for result in report.results]
    best = min(payloads, key=lambda p: p["final_test_error"])
    print(f"\nbest: {best['algorithm']} at {best['final_test_error']:.2%}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payloads, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_jobs(args)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    unknown = sorted(set(algorithms) - set(ALGORITHMS))
    if unknown:
        raise SystemExit(f"unknown algorithm(s) {', '.join(unknown)}; "
                         f"choose from {', '.join(ALGORITHMS)}")
    _refuse_gossip(args, algorithms)
    workers = _parse_worker_counts(args.workers)
    seeds = [args.seed + i for i in range(max(1, args.seeds))]

    grid = (
        Sweep("algorithm", algorithms)
        * Sweep("num_workers", workers)
        * Sweep("seed", seeds)
    )
    if args.comm_codec is not None:
        # `--comm-codec fp16,topk` makes the codec one more grid axis, so
        # compression ablations (dc-asgd x codecs) run as one sweep
        codecs = [c.strip() for c in args.comm_codec.split(",") if c.strip()]
        unknown = sorted(set(codecs) - set(COMM_CODECS))
        if unknown:
            raise SystemExit(f"unknown codec(s) {', '.join(unknown)}; "
                             f"choose from {', '.join(COMM_CODECS)}")
        if not codecs:
            raise SystemExit("--comm-codec expects at least one codec")
        grid = grid * Sweep("comm_codec", codecs)
    specs = [
        _make_spec(
            args,
            point["algorithm"],
            seed=point["seed"],
            workers=point["num_workers"],
            codec=point.get("comm_codec"),
        ).with_tags("sweep")
        for point in grid.points()
    ]
    store = ResultStore(args.json) if args.json else None
    events = ConsoleEvents(verbose=args.verbose)
    obs = args.obs or args.serve is not None
    server = None
    if args.serve is not None:
        from repro.obs.dashboard import DashboardEvents, serve_dashboard

        events = DashboardEvents(inner=events)
        server = serve_dashboard(events, port=args.serve)
        print(f"dashboard: {server.url}  (follow with `repro watch {server.url}`)")
    try:
        report = Campaign(
            specs,
            executor=make_executor(
                args.jobs, agents=args.agents, agent_timeout=args.agent_timeout, obs=obs
            ),
            store=store,
            events=events,
        ).run()
        print()
        print(format_summary(report.summarize()))
        if store is not None:
            print(f"\nstore: {store.root} ({len(store)} record(s))")
    finally:
        if server is not None:
            server.linger()  # let an active watcher see the finished frame
            server.close()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if not Path(args.store).is_dir():  # report is read-only: never mkdir
        raise SystemExit(f"no result store at {args.store!r}")
    try:
        filters = parse_filters(args.filter) if args.filter else None
    except ValueError as exc:
        raise SystemExit(str(exc))
    store = ResultStore(args.store)
    rows = store.summarize(filters=filters)
    print(format_summary(rows))
    if args.plot:
        chart = _render_store_plots(store, filters)
        if chart:
            print()
            print(chart)
        else:
            print("\n(no learning curves to plot)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _render_store_plots(store, filters=None) -> str:
    """The paper's Figures 3-6 as ASCII: error-vs-time convergence curves.

    One series per (algorithm, workers, backend) cell; seed replicates
    collapse to the first seed seen (the summary table already carries the
    seed-averaged numbers).
    """
    from repro.bench.plots import ascii_plot
    from repro.experiments.store import record_matches

    test_series = {}
    train_series = {}
    for record in store.records():
        if filters and not record_matches(record, filters):
            continue
        result = record.result
        if not result.curve:
            continue
        label = f"{result.algorithm} M={result.num_workers} {result.backend}"
        if label in test_series:  # another seed of the same cell
            continue
        times = [p.time for p in result.curve]
        test_series[label] = (times, [p.test_error for p in result.curve])
        train_series[label] = (times, [p.train_error for p in result.curve])
    if not test_series:
        return ""
    charts = [
        ascii_plot(
            test_series,
            title="test error vs training time (paper Figs. 3-6)",
            xlabel="time (s)", ylabel="test err",
        ),
        ascii_plot(
            train_series,
            title="train error vs training time",
            xlabel="time (s)", ylabel="train err",
        ),
    ]
    return "\n\n".join(charts)


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import watch

    return watch(args.url, interval=args.interval, once=args.once)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.recorder import load_trace

    if not Path(args.path).is_file():
        raise SystemExit(f"no trace file at {args.path!r}")
    try:
        meta, records = load_trace(args.path)
    except (ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"unreadable trace {args.path!r}: {exc}")
    if args.trace_command == "show":
        shown = 0
        for record in records:
            if args.kind and record.kind != args.kind:
                continue
            fields = "  ".join(f"{k}={v}" for k, v in record.fields.items())
            print(f"t={record.t:12.6f}  w={record.worker:3d}  {record.kind:12s} {fields}")
            shown += 1
            if args.limit and shown >= args.limit:
                break
        print(f"({shown} of {len(records)} record(s) shown)", file=sys.stderr)
        return 0
    return _trace_summarize(meta, records)


def _trace_summarize(meta: dict, records) -> int:
    """``repro trace summarize``: reconstruct attribution from the JSONL."""
    from repro.obs.hub import staleness_histogram
    from repro.obs.recorder import phase_totals_ms

    print(f"trace: run_id={meta.get('run_id', '?')!r}  "
          f"version={meta.get('version', '?')}  "
          f"records={len(records)}  dropped={meta.get('dropped', 0)}")
    kinds: dict = {}
    for record in records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    print("events: " + "  ".join(f"{k}={n}" for k, n in sorted(kinds.items())))

    totals = phase_totals_ms(records, meta.get("timer") or {})
    if totals:
        print("phase attribution (ms):")
        width = max(len(name) for name in totals)
        grand = sum(totals.values()) or 1.0
        for name, ms in sorted(totals.items(), key=lambda kv: -kv[1]):
            print(f"  {name:{width}s}  {ms:10.1f}  ({ms / grand:6.1%})")

    staleness = [
        float(r.fields["value"]) for r in records if r.kind == "staleness"
    ]
    if staleness:
        hist = staleness_histogram(staleness)
        print(f"staleness: n={len(staleness)}  "
              f"mean={sum(staleness) / len(staleness):.3f}  "
              f"max={max(staleness):.0f}")
        payload = hist.to_dict()
        edges, counts = payload["edges"], payload["counts"]
        labels = _histogram_labels(edges)
        peak = max(counts) or 1
        for label, count in zip(labels, counts):
            bar = "#" * max(1 if count else 0, round(24 * count / peak))
            print(f"  {label:>12s} {count:6d} {bar}")
    return 0


def _histogram_labels(edges) -> List[str]:
    """Bin labels for a Histogram's counts: [<e0, e0-e1, ..., >=eN]."""
    labels = [f"<{edges[0]:g}"]
    for lo, hi in zip(edges, edges[1:]):
        labels.append(f"{lo:g}-{hi:g}")
    labels.append(f">={edges[-1]:g}")
    return labels


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        BASELINE_FILENAME,
        apply_baseline,
        available_rules,
        load_baseline,
        run_passes,
        save_baseline,
    )

    if args.list_rules:
        from repro.analysis import PASSES, load_builtin_passes

        load_builtin_passes()
        for name in available_rules():
            print(f"{name:14s} {PASSES.get(name).description}")
        return 0

    if args.root is not None:
        root = Path(args.root).resolve()
    else:
        import repro

        root = Path(repro.__file__).resolve().parent
    if not root.is_dir():
        print(f"lint: no such directory: {root}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is None:
        for candidate_dir in (root, *root.parents):
            candidate = candidate_dir / BASELINE_FILENAME
            if candidate.is_file():
                baseline_path = candidate
                break

    findings = run_passes(root, rules=args.rule)

    if args.update_baseline:
        target = baseline_path or root / BASELINE_FILENAME
        save_baseline(target, findings)
        print(f"lint: wrote {len(findings)} suppression(s) to {target}")
        return 0

    entries = load_baseline(baseline_path) if baseline_path else []
    fresh, suppressed, stale = apply_baseline(findings, entries)

    for finding in fresh:
        print(finding)
    for entry in stale:
        print(
            f"lint: stale baseline entry [{entry.get('rule', '?')}] "
            f"{entry.get('path', '?')}: {entry.get('message', '?')}",
            file=sys.stderr,
        )
    if fresh:
        print(
            f"lint: {len(fresh)} finding(s)"
            + (f", {len(suppressed)} baselined" if suppressed else ""),
            file=sys.stderr,
        )
        return 1
    summary = f"lint: clean ({len(findings) - len(fresh)} baselined)" if suppressed else "lint: clean"
    print(summary)
    return 0


def _cmd_agent(args: argparse.Namespace) -> int:
    from repro.fleet.agent import serve

    return serve(
        args.bind, slots=args.slots, heartbeat=args.heartbeat, port_file=args.port_file
    )


def _cmd_store_merge(args: argparse.Namespace) -> int:
    for source in args.sources:
        if not Path(source).is_dir():
            raise SystemExit(f"no result store at {source!r}")
    dest = ResultStore(args.dest)
    for source in args.sources:
        report = dest.merge(ResultStore(source), overwrite=args.overwrite)
        print(f"merge {source} -> {args.dest}: {report}")
    print(f"store: {dest.root} ({len(dest)} record(s))")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
