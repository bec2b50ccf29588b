"""Command-line interface.

Mirrors the paper artifact's shell-script workflow (Appendix §5) as a
single entry point::

    python -m repro run --workload bfs --dataset kron-s --policy thp \
        --scenario high-pressure
    python -m repro figure fig07 --workloads bfs --datasets kron-s
    python -m repro datasets
    python -m repro advise --dataset twitter-s
    python -m repro profiles

Subcommands:

``run``
    Simulate one cell and print its metrics (the paper's
    ``app_output``/``results.txt`` numbers).
``figure``
    Regenerate one paper figure's rows (the ``thp.sh``-style drivers).
``tournament``
    Sweep the policy zoo across scenario axes and rank a leaderboard
    (see docs/policies.md).
``datasets``
    List the registry (Table 2); ``datasets NAME...`` builds the named
    graphs and prints their vertex, edge and degree statistics.
``advise``
    Print the page-size advisor's report for a dataset.
``profiles``
    List machine profiles and their geometry.
``runs``
    Inspect, compact or merge run journals (``list`` / ``show`` /
    ``gc`` / ``merge``); pairs with ``run``/``figure``'s ``--journal``
    and ``--resume`` flags (see docs/checkpointing.md).
``work``
    Remote sweep worker: pulls leased cells from a ``figure
    --distribute`` coordinator and streams results back (see
    docs/distributed.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .config import PROFILES, get_profile
from .errors import ReproError
from .tlb.engine import TLB_ENGINES
from .units import format_bytes


def _add_common_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default="scaled",
        choices=sorted(PROFILES),
        help="machine profile (default: scaled)",
    )
    parser.add_argument(
        "--tlb-engine",
        default="auto",
        choices=TLB_ENGINES,
        dest="tlb_engine",
        help="translation engine: 'exact' (reference per-lookup "
        "simulator), 'batch' (vectorized set-wise engine), 'native' "
        "(the reference loop compiled with $CC on first use and cached "
        "under ~/.cache/repro; an error if it cannot be built), or "
        "'auto' (native, else batch, after a per-geometry equivalence "
        "self-check; default).  Every engine gives identical counts.",
    )


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="fault-injection plan: comma list of "
        "site[:prob|:after=N|:every=N][:max=M] "
        "(e.g. 'compaction:0.5,swap-out:after=100'); see docs/faults.md",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed for the fault plan's per-site RNGs (default: 0)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="max retries per cell for injected faults (default: 2)",
    )
    parser.add_argument(
        "--cell-budget",
        type=int,
        default=None,
        metavar="ACCESSES",
        help="cap on simulated accesses per cell (runaway guard; "
        "default: unlimited)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable MemSan, the simulated-memory invariant checker "
        "(equivalent to REPRO_SANITIZE=1; see docs/static-analysis.md)",
    )


def _add_runstate_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="crash-safe run journal (JSONL); every cell outcome is "
        "recorded durably (see docs/checkpointing.md)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already completed in --journal (spec-hash "
        "match); failed/in-flight/torn cells re-run",
    )
    parser.add_argument(
        "--cell-cycles",
        type=int,
        default=None,
        metavar="CYCLES",
        help="watchdog: cap on simulated cycles per cell "
        "(deterministic; default: unlimited)",
    )
    parser.add_argument(
        "--cell-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog: wall-clock deadline per cell "
        "(catches host-side hangs; default: unlimited)",
    )


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record structured observability events and write them as "
        "JSONL to PATH (inspect with 'repro trace'; see "
        "docs/observability.md)",
    )


def _make_runner(args: argparse.Namespace):
    from .experiments import ExperimentRunner, RunConfig
    from .mem.sanitizer import set_sanitize

    run_config = RunConfig.from_cli(args)
    if run_config.sanitize:
        # Global switch too: spawn-mode pool workers and any library
        # code that consults the ambient setting must agree.
        set_sanitize(True)
    return ExperimentRunner(
        config=get_profile(args.profile), run_config=run_config
    )


def _close_runner(runner) -> None:
    """Release the sweep's journal lock now that the command is done
    (atexit would release it anyway; in-process callers shouldn't have
    to wait for interpreter shutdown)."""
    journal = getattr(runner.run_config, "journal", None)
    if journal is not None:
        journal.close()


def _write_trace(args: argparse.Namespace, runner) -> None:
    """Flush an armed runner's trace log to ``--trace PATH``."""
    path = getattr(args, "trace", None)
    if not path:
        return
    from .obs import write_trace_jsonl

    entries = list(runner.trace_log)
    harness_entry = runner.harness_trace_entry()
    if harness_entry is not None:
        # Sweep-level resilience events ride in a synthetic trailing
        # "harness/-/-/-" cell (see docs/observability.md).
        entries.append(harness_entry)
    lines = write_trace_jsonl(path, entries)
    print(f"wrote {lines} trace event(s) to {path}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Simulated reproduction of 'The Implications of Page Size "
            "Management on Graph Analytics' (IISWC 2022)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one experiment cell")
    run.add_argument("--workload", default="bfs")
    run.add_argument("--dataset", default="kron-s")
    run.add_argument(
        "--policy",
        default="base4k",
        help="policy name (see 'repro policies'), "
        "selective:<s>[:<reorder>], or a zoo spec NAME[:k=v,...] "
        "(e.g. 'ingens:threshold=0.8', 'advisor')",
    )
    run.add_argument(
        "--scenario",
        default="fresh",
        help="fresh | high-pressure | low-pressure | frag-50 | "
        "oversubscribed | constrained:<gb> | fragmented:<level>[:<gb>]",
    )
    _add_common_machine_args(run)
    _add_resilience_args(run)
    _add_runstate_args(run)
    _add_trace_arg(run)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument(
        "figure_id",
        help="e.g. fig01, fig07, fig11, headline — or 'all'",
    )
    figure.add_argument("--workloads", default=None,
                        help="comma list (default: figure's own)")
    figure.add_argument("--datasets", default=None,
                        help="comma list (default: all Table 2 inputs)")
    figure.add_argument(
        "--policy", action="append", default=None, metavar="SPEC",
        help="(tournament only) zoo policy spec to enter; repeat or "
        "comma-separate (default: the stock lineup)",
    )
    figure.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    figure.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also save <figure_id>.txt and .json under DIR "
        "(atomic write: never leaves torn files)",
    )
    figure.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_WORKERS", "1")),
        metavar="N",
        help="process fan-out for the figure's cell sweep: 1 = serial "
        "(default), N > 1 = work-stealing pool of N workers, 0 = one "
        "per CPU; output and journal bytes are identical to a serial "
        "run (env default: REPRO_WORKERS; see docs/performance.md)",
    )
    figure.add_argument(
        "--distribute", default=None, metavar="ADDR",
        help="shard the sweep across remote 'repro work' agents: "
        "listen on ADDR (socket path or host:port) and lease cells "
        "to pulling workers; degrades to local execution when no "
        "worker is reachable (see docs/distributed.md)",
    )
    figure.add_argument(
        "--lease-seconds", type=float, default=5.0, metavar="SECONDS",
        help="(--distribute) lease duration per cell; workers renew at "
        "a third of this (default: 5)",
    )
    figure.add_argument(
        "--lease-attempts", type=int, default=3, metavar="N",
        help="(--distribute) lease grants per cell before it runs "
        "locally instead (default: 3)",
    )
    figure.add_argument(
        "--local-grace", type=float, default=10.0, metavar="SECONDS",
        help="(--distribute) no worker contact for this long degrades "
        "the batch to local execution, one-way (default: 10)",
    )
    figure.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="deterministic chaos plan for the figure's journal "
        "(tests only), e.g. 'kill-server:append:3' tears the N-th "
        "append and SIGKILLs this process; requires --journal",
    )
    _add_common_machine_args(figure)
    _add_resilience_args(figure)
    _add_runstate_args(figure)
    _add_trace_arg(figure)

    tournament = sub.add_parser(
        "tournament",
        help="sweep the policy zoo across scenarios and rank a "
        "leaderboard (see docs/policies.md)",
    )
    tournament.add_argument(
        "--policies", default=None, metavar="SPECS",
        help="comma list of zoo policy specs NAME[:k=v,...] "
        "(default: the stock lineup; see 'repro policies')",
    )
    tournament.add_argument(
        "--scenarios", default=None, metavar="SPECS",
        help="comma list of scenario specs "
        "(default: fresh,fragmented:0.9,constrained:0.5)",
    )
    tournament.add_argument(
        "--workloads", default=None,
        help="comma list (default: bfs)",
    )
    tournament.add_argument(
        "--datasets", default=None,
        help="comma list (default: all Table 2 inputs)",
    )
    tournament.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    tournament.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also save tournament.txt and .json under DIR "
        "(atomic write: never leaves torn files)",
    )
    tournament.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_WORKERS", "1")),
        metavar="N",
        help="process fan-out for the sweep: 1 = serial (default), "
        "N > 1 = work-stealing pool, 0 = one per CPU; leaderboard and "
        "journal bytes are identical to a serial run",
    )
    _add_common_machine_args(tournament)
    _add_resilience_args(tournament)
    _add_runstate_args(tournament)
    _add_trace_arg(tournament)

    trace = sub.add_parser(
        "trace", help="inspect or convert a recorded trace"
    )
    trace.add_argument(
        "action",
        choices=("summary", "export"),
        help="summary: per-cell event digest; export: convert to "
        "Chrome trace_event JSON (open in Perfetto / about:tracing)",
    )
    trace.add_argument("tracefile", metavar="TRACE", help="trace JSONL file")
    trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="(export) output path (default: TRACE with .json suffix)",
    )

    datasets = sub.add_parser(
        "datasets",
        help="list datasets (Table 2); name some to build them and "
        "print their graph stats",
    )
    datasets.add_argument(
        "names", nargs="*", metavar="NAME",
        help="datasets to build and describe (default: list them all)",
    )
    sub.add_parser("policies", help="list named policies")
    sub.add_parser("profiles", help="list machine profiles")

    runs = sub.add_parser(
        "runs", help="inspect, compact or merge run journals"
    )
    runs.add_argument(
        "action",
        choices=("list", "show", "gc", "merge"),
        help="list: one line per cell; show: full record(s) as JSON; "
        "gc: compact to completed cells; merge: union N journal "
        "shards by spec fingerprint (partition-tolerant; refuses "
        "split-brain conflicts with exit code 3)",
    )
    runs.add_argument(
        "shards", nargs="*", metavar="SHARD",
        help="(merge) journal shard files to union (coordinator + "
        "worker journals; missing files count as empty shards)",
    )
    runs.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal file (required for list/show/gc; for merge it "
        "is prepended to the shard list)",
    )
    runs.add_argument(
        "--spec",
        default=None,
        metavar="FINGERPRINT",
        help="(show) restrict to one cell's spec fingerprint",
    )
    runs.add_argument(
        "--out", default=None, metavar="PATH",
        help="(merge) write the merged journal here (atomic); "
        "default: print to stdout",
    )

    advise = sub.add_parser(
        "advise", help="run the page-size advisor on a dataset"
    )
    advise.add_argument("--dataset", default="kron-s")
    _add_common_machine_args(advise)

    work = sub.add_parser(
        "work",
        help="run a remote sweep worker: pull leased cells from a "
        "'repro figure --distribute' coordinator (see docs/distributed.md)",
    )
    work.add_argument(
        "--connect", required=True, metavar="ADDR",
        help="coordinator address: socket path or host:port",
    )
    work.add_argument(
        "--journal", required=True, metavar="PATH",
        help="this worker's local journal shard (merged afterwards "
        "with 'repro runs merge')",
    )
    work.add_argument(
        "--worker-id", default=None, metavar="NAME",
        help="stable worker name for leases and events "
        "(default: w<pid>)",
    )
    work.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="SECONDS",
        help="idle poll period when no cell is leasable (default: 0.2)",
    )
    work.add_argument(
        "--idle-exit", type=float, default=30.0, metavar="SECONDS",
        help="exit 0 after this long without coordinator contact "
        "(default: 30)",
    )
    work.add_argument(
        "--request-attempts", type=int, default=4, metavar="N",
        help="bounded retry attempts per coordinator request "
        "(default: 4)",
    )
    work.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="deterministic chaos plan (tests only): kill-worker:cell:N "
        "self-SIGKILLs mid-cell; drop/delay/sever net.* actions fault "
        "this worker's socket operations",
    )
    work.add_argument(
        "--net-delay", type=float, default=0.5, metavar="SECONDS",
        help="stall applied by delay:net.* chaos actions (default: 0.5)",
    )

    analyze = sub.add_parser(
        "analyze",
        help="run the repo's static analysis (REP001-REP013); "
        "arguments after -- pass through to python -m repro.analysis",
    )
    analyze.add_argument(
        "analyzer_args", nargs=argparse.REMAINDER, metavar="ARGS",
        help="arguments forwarded verbatim after a -- separator "
        "(e.g. repro analyze -- --list-rules, repro analyze -- "
        "--baseline .analysis-baseline.json --format json)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the deterministic chaos scenarios against a real "
        "coordinator and workers (see docs/distributed.md)",
    )
    chaos.add_argument(
        "scenarios", nargs="*", metavar="SCENARIO",
        help="scenarios to run (default: all); see --list",
    )
    chaos.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="working directory for journals/sockets/logs "
        "(default: a fresh temporary directory, kept on failure)",
    )

    return parser


def _parse_policy(spec: str, dataset=None, config=None):
    from .experiments.parse import parse_policy

    return parse_policy(spec, dataset=dataset, config=config)


def _parse_scenario(spec: str):
    from .experiments.parse import parse_scenario

    return parse_scenario(spec)


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.harness import CellFailure

    runner = _make_runner(args)
    policy = _parse_policy(
        args.policy, dataset=args.dataset, config=runner.config
    )
    scenario = _parse_scenario(args.scenario)
    try:
        result = runner.run_cell(args.workload, args.dataset, policy, scenario)
        _write_trace(args, runner)
    finally:
        _close_runner(runner)
    if isinstance(result, CellFailure):
        print(result.describe(), file=sys.stderr)
        return 1
    print(f"{args.workload} on {args.dataset} | policy={policy.name} "
          f"| scenario={scenario.name}")
    for key, value in result.summary().items():
        print(f"  {key:26s}: {value}")
    for name, fraction in result.huge_fraction_per_array.items():
        print(f"  huge[{name}]".ljust(28) + f": {fraction:.1%}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments.figures import FIGURES

    if args.figure_id == "all":
        # 'all' regenerates the paper figures; the zoo leaderboard is
        # its own sweep (also available as 'repro tournament').
        selected = [
            function
            for figure_id, function in FIGURES.items()
            if figure_id != "tournament"
        ]
    elif args.figure_id in FIGURES:
        selected = [FIGURES[args.figure_id]]
    else:
        raise ReproError(
            f"unknown figure {args.figure_id!r}; known: all, "
            + ", ".join(sorted(FIGURES))
        )
    if getattr(args, "policy", None) and args.figure_id != "tournament":
        raise ReproError(
            "figure --policy only applies to the 'tournament' figure; "
            "other figures pin their own policy axes"
        )
    runner = _make_runner(args)
    if getattr(args, "chaos", None):
        from .chaos.journal import ChaosJournal
        from .chaos.plan import ChaosPlan

        if not args.journal:
            raise ReproError("figure --chaos requires --journal PATH")
        old = runner.journal
        if old is not None:
            old.close()
        runner.journal = ChaosJournal(
            args.journal, ChaosPlan.parse(args.chaos), lock=True
        )
    coordinator = None
    if getattr(args, "distribute", None):
        from .dist import DistConfig, DistCoordinator, parse_connect

        socket_path, host, port = parse_connect(args.distribute)
        dist_config = DistConfig(
            socket_path=socket_path,
            host=host,
            port=port,
            lease_seconds=args.lease_seconds,
            max_lease_attempts=args.lease_attempts,
            local_grace_seconds=args.local_grace,
            faults_text=getattr(args, "faults", None),
            fault_seed=getattr(args, "fault_seed", 0),
        )
        coordinator = DistCoordinator(runner, dist_config)
        coordinator.start()
        runner.dist_executor = coordinator.execute_batch
    kwargs = {}
    if args.workloads:
        kwargs["workloads"] = tuple(args.workloads.split(","))
    if args.datasets:
        kwargs["datasets"] = tuple(args.datasets.split(","))
    if getattr(args, "policy", None):
        kwargs["policies"] = tuple(
            spec
            for chunk in args.policy
            for spec in chunk.split(",")
            if spec
        )
    try:
        for function in selected:
            result = function(runner, **kwargs)
            print(result.to_json() if args.json else result.render())
            if args.out:
                txt_path, json_path = result.save(args.out)
                print(f"saved {txt_path} and {json_path}", file=sys.stderr)
            if len(selected) > 1:
                print()
        _write_trace(args, runner)
    finally:
        if coordinator is not None:
            coordinator.drain()
            coordinator.stop()
        _close_runner(runner)
    if runner.failures:
        print(
            f"{len(runner.failures)} cell(s) failed (graceful degradation):",
            file=sys.stderr,
        )
        for failure in runner.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
    return 0


def _cmd_tournament(args: argparse.Namespace) -> int:
    from .policy.tournament import run_tournament

    runner = _make_runner(args)
    kwargs = {}
    if args.policies:
        kwargs["policies"] = tuple(
            spec for spec in args.policies.split(",") if spec
        )
    if args.scenarios:
        kwargs["scenarios"] = tuple(
            spec for spec in args.scenarios.split(",") if spec
        )
    if args.workloads:
        kwargs["workloads"] = tuple(args.workloads.split(","))
    if args.datasets:
        kwargs["datasets"] = tuple(args.datasets.split(","))
    try:
        result = run_tournament(runner, **kwargs)
        print(result.to_json() if args.json else result.render())
        if args.out:
            txt_path, json_path = result.save(args.out)
            print(f"saved {txt_path} and {json_path}", file=sys.stderr)
        _write_trace(args, runner)
    finally:
        _close_runner(runner)
    if runner.failures:
        print(
            f"{len(runner.failures)} cell(s) failed (graceful degradation):",
            file=sys.stderr,
        )
        for failure in runner.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from .graph.datasets import DATASETS, load_dataset
    from .graph.stats import degree_stats

    if not args.names:
        # The listing reads the registry alone: no graph is built.
        for name, spec in DATASETS.items():
            if name != "test-small":
                print(f"{name:12s} {spec.paper_name:22s} {spec.description}")
        return 0
    for name in args.names:
        data = load_dataset(name)
        graph = data.graph
        stats = degree_stats(graph)
        print(
            f"{data.name:12s} {data.paper_name:22s} "
            f"V={graph.num_vertices:>8,} E={graph.num_edges:>10,} "
            f"avg_deg={graph.average_degree:5.1f} "
            f"gini={stats.gini:.2f} "
            f"hot80%={stats.hot_set_fraction:6.1%} "
            f"skew={stats.skew_class:8s} {data.description}"
        )
    return 0


def _cmd_policies(_args: argparse.Namespace) -> int:
    from .experiments.policies import POLICIES
    from .policy.registry import registered_policies

    for name, policy in POLICIES.items():
        thp = policy.make_thp()
        print(f"{name:16s} thp={thp.mode.value:8s} "
              f"order={policy.plan.order.value:14s} "
              f"reorder={policy.plan.reorder}")
    print("selective:<s>[:<reorder>]   madvise s% of the property array")
    print()
    print("policy zoo — spec NAME[:k=v,...] anywhere --policy is "
          "accepted (docs/policies.md):")
    for name, entry in registered_policies().items():
        tag = "  [dataset-aware]" if entry.dataset_aware else ""
        print(f"{name:16s} {entry.summary}{tag}")
    return 0


def _cmd_profiles(_args: argparse.Namespace) -> int:
    for name in sorted(PROFILES):
        cfg = get_profile(name)
        print(
            f"{name:10s} base={format_bytes(cfg.pages.base_page_size)} "
            f"huge={format_bytes(cfg.pages.huge_page_size)} "
            f"L1={cfg.tlb.l1_base.entries}+{cfg.tlb.l1_huge.entries} "
            f"STLB={cfg.tlb.l2.entries} "
            f"node={format_bytes(cfg.node_memory_bytes)}"
        )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core.advisor import PageSizeAdvisor
    from .graph.datasets import load_dataset

    data = load_dataset(args.dataset)
    report = PageSizeAdvisor(
        data.graph, config=get_profile(args.profile)
    ).advise()
    print(f"advisor report for {data.name}:")
    print(f"  hot vertex fraction : {report.hot_vertex_fraction:.2%}")
    print(f"  access coverage     : {report.access_coverage:.2%}")
    print(f"  natural clustering  : {report.natural_clustering:.2%}")
    print(f"  reorder             : {report.plan.reorder}")
    print(f"  advise fraction s   : {report.advise_fraction:.2%}")
    print(f"  huge pages needed   : {report.huge_pages_needed}")
    print(f"  budget fraction     : {report.budget_fraction:.2%}")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json as json_module

    from .errors import JournalLockedError
    from .runstate.journal import RunJournal
    from .runstate.lock import PidLock

    if args.action == "merge":
        from .errors import MergeConflictError
        from .runstate.merge import (
            format_conflict_report,
            merge_journals,
            write_merged,
        )

        shards = list(args.shards)
        if args.journal:
            shards.insert(0, args.journal)
        if not shards:
            raise ReproError(
                "runs merge needs at least one journal shard "
                "(positional SHARD arguments and/or --journal)"
            )
        try:
            if args.out:
                report = write_merged(shards, args.out)
            else:
                report = merge_journals(shards)
                sys.stdout.write(report.text)
        except MergeConflictError as error:
            print(format_conflict_report(error), file=sys.stderr)
            return 3
        destination = args.out if args.out else "stdout"
        print(
            f"merged {len(shards)} shard(s) -> {destination}: "
            f"kept {report.kept} completed cell(s), "
            f"{report.duplicates} duplicate(s) deduplicated, "
            f"{report.dropped} non-final record(s) dropped",
            file=sys.stderr,
        )
        for shard in report.shards:
            if shard.torn:
                print(
                    f"  {shard.path}: {shard.torn} torn record(s) "
                    "skipped",
                    file=sys.stderr,
                )
        return 0
    if args.shards:
        raise ReproError(
            f"runs {args.action} takes no positional shard arguments "
            "(those are for 'runs merge')"
        )
    if not args.journal:
        raise ReproError(f"runs {args.action} requires --journal PATH")
    if args.action == "gc":
        # Hold the pidfile lock for the whole compaction, not just a
        # liveness check: a sweep starting between a check and the
        # atomic rewrite could append records the rewrite would
        # silently discard.
        lock = PidLock(args.journal)
        try:
            lock.acquire()
        except JournalLockedError as error:
            raise ReproError(
                f"refusing to gc {args.journal!r}: a running sweep "
                f"owns the journal ({error}); stop it first or "
                "wait for it to finish"
            ) from error
        try:
            journal = RunJournal(args.journal)
            kept, dropped = journal.gc()
        finally:
            lock.release()
        print(
            f"{args.journal}: kept {kept} completed cell(s), "
            f"dropped {dropped} superseded/failed/in-flight record(s)"
        )
        return 0
    journal = RunJournal(args.journal)
    if args.action == "list":
        counts = journal.counts()
        print(
            f"{args.journal}: {len(journal)} cell(s) "
            f"(done={counts['done']} failed={counts['failed']} "
            f"running={counts['running']}; "
            f"{journal.torn_records} torn record(s) skipped)"
        )
        for record in journal.records():
            cycles = (
                f"{record.kernel_cycles:,}"
                if record.kernel_cycles is not None
                else "-"
            )
            print(
                f"  {record.spec}  {record.status:8s} "
                f"attempts={record.attempts} kernel_cycles={cycles}  "
                f"{record.label}"
            )
        return 0
    if args.action == "show":
        records = list(journal.records())
        if args.spec is not None:
            records = [r for r in records if r.spec == args.spec]
            if not records:
                raise ReproError(
                    f"no record with spec {args.spec!r} in {args.journal}"
                )
        for record in records:
            print(json_module.dumps(record.to_dict(), indent=2))
        return 0
    raise ReproError(f"unknown runs action {args.action!r}")


def _cmd_work(args: argparse.Namespace) -> int:
    from .dist import WorkerConfig, work_loop

    plan = None
    if args.chaos:
        from .chaos.plan import ChaosPlan

        plan = ChaosPlan.parse(args.chaos)
    config = WorkerConfig(
        connect=args.connect,
        journal_path=args.journal,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        idle_exit_seconds=args.idle_exit,
        max_attempts=args.request_attempts,
        plan=plan,
        net_delay_seconds=args.net_delay,
    )
    return work_loop(config)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        read_trace_jsonl,
        summarize,
        validate_trace_records,
        write_chrome_trace,
    )

    records = read_trace_jsonl(args.tracefile)
    problems = validate_trace_records(records)
    if problems:
        print(
            f"warning: {len(problems)} schema problem(s); first: "
            f"{problems[0]}",
            file=sys.stderr,
        )
    if args.action == "summary":
        print(summarize(records))
        return 0
    out = args.out
    if out is None:
        root, _, _ = args.tracefile.rpartition(".")
        out = (root or args.tracefile) + ".json"
    write_chrome_trace(out, records)
    print(
        f"wrote Chrome trace ({len(records)} event(s)) to {out}; open "
        "in Perfetto (ui.perfetto.dev) or chrome://tracing"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from .chaos import SCENARIOS, run_scenarios

    if args.list:
        for name, function in SCENARIOS.items():
            doc = (function.__doc__ or "").strip().splitlines()[0]
            print(f"{name:22s} {doc}")
        return 0
    names = list(args.scenarios) or list(SCENARIOS)
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    print(f"chaos workdir: {workdir}", file=sys.stderr)

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    reports = run_scenarios(names, workdir, log=log)
    for report in reports:
        detail = " ".join(
            f"{key}={value}"
            for key, value in sorted(report.items())
            if key not in ("scenario", "ok")
        )
        print(f"{report['scenario']:22s} OK  {detail}")
    print(f"{len(reports)}/{len(names)} scenario(s) passed")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.__main__ import main as analysis_main

    forwarded = list(args.analyzer_args)
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    return analysis_main(forwarded)


COMMANDS = {
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "chaos": _cmd_chaos,
    "figure": _cmd_figure,
    "tournament": _cmd_tournament,
    "trace": _cmd_trace,
    "datasets": _cmd_datasets,
    "policies": _cmd_policies,
    "profiles": _cmd_profiles,
    "advise": _cmd_advise,
    "runs": _cmd_runs,
    "work": _cmd_work,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Reader went away mid-print (e.g. ``repro trace summary | head``).
        # Detach stdout so the interpreter's shutdown flush cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
