"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments``                 — list the regenerable paper artifacts
* ``run <experiment> [--scale]``  — regenerate one figure/table
* ``run-all [--scale]``           — regenerate everything
* ``trace-run <experiment>``      — traced run -> Chrome trace JSON
* ``report [--telemetry]``        — full report (+ tail attribution)
* ``chaos <experiment>``          — fault-injection degradation curves
* ``writes [exp]``                — admission-policy WA/lifetime sweeps
* ``loadgen <experiment>``        — QPS sweeps and SLO knee curves
* ``cache clean``                 — wipe or LRU-prune the stored results
* ``simulate``                    — one ad-hoc simulation run
* ``workloads`` / ``configs``     — list registries
* ``history``                     — list/filter the run ledger
* ``diff <A> <B>``                — per-metric deltas between two runs
* ``regress --baseline FILE``     — pass/fail gate for CI
* ``dashboard``                   — static HTML observatory page

Sweep commands accept ``--snapshot-dir PATH`` to move the directory
of stored results (default ``.repro_cache``); the flag sets the
``REPRO_CACHE_DIR`` environment the harness reads.

Every measuring verb (``report``, ``profile``, ``chaos``, ``writes``,
``loadgen``, ``simulate``) appends a
:class:`repro.metrics.RunRecord` to ``.repro_runs/ledger.jsonl``
(``$REPRO_RUNS_DIR`` overrides the directory, ``REPRO_LEDGER=0``
disables); appends are best-effort and never fail the verb.  ``--json PATH`` writes the same record to a file.

Exit status: 0 on success, 1 when a gate fails (``writes``' policy
ordering, ``diff``/``regress`` regressions, ``trace-run``'s trace
validation), 2 on a bad argument value, config or input file,
reported as one ``repro <verb>: error: <message>`` line on stderr, and
141 (128 + SIGPIPE), with nothing on stderr, when stdout's reader has
closed the pipe.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Tuple

from repro.config import EVALUATED_CONFIG_NAMES, make_config
from repro.jsonutil import dumps as json_dumps
from repro.core import Runner
from repro.errors import ReproError
from repro.harness import EXPERIMENTS, run_experiment
from repro.harness.parallel import resolve_jobs
from repro.units import US
from repro.workloads import (
    EVALUATED_WORKLOADS,
    PoissonArrivals,
    make_workload,
)


def _names(text: str) -> Tuple[str, ...]:
    """A comma list of names (``--policies``, ``--presets``)."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AstriFlash (HPCA 2023) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("experiments",
                        help="list regenerable paper artifacts")
    commands.add_parser("workloads", help="list workloads")
    commands.add_parser("configs", help="list system configurations")

    jobs_help = ("worker processes for independent simulations "
                 "(default: $REPRO_JOBS or 1 = in-process)")

    def add_snapshot_flags(sub) -> None:
        sub.add_argument("--snapshot-dir", default=None, metavar="PATH",
                         help="directory holding stored results "
                              "(default: $REPRO_CACHE_DIR or "
                              ".repro_cache)")

    run_parser = commands.add_parser("run", help="regenerate one artifact")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--scale", default="quick",
                            choices=("quick", "full"))
    run_parser.add_argument("--jobs", type=int, default=None, help=jobs_help)
    add_snapshot_flags(run_parser)

    all_parser = commands.add_parser("run-all",
                                     help="regenerate every artifact")
    all_parser.add_argument("--scale", default="quick",
                            choices=("quick", "full"))
    all_parser.add_argument("--jobs", type=int, default=None, help=jobs_help)
    add_snapshot_flags(all_parser)

    report_parser = commands.add_parser(
        "report", help="regenerate everything into a report file "
                       "(tables + ASCII charts)")
    report_parser.add_argument("--scale", default="quick",
                               choices=("quick", "full"))
    report_parser.add_argument("--out", default="repro_report.txt")
    report_parser.add_argument("--jobs", type=int, default=None,
                               help=jobs_help)
    report_parser.add_argument("--telemetry", action="store_true",
                               help="also run traced simulations and "
                                    "append the tail-latency attribution "
                                    "(Table-2-style component breakdown)")
    report_parser.add_argument("--writes", action="store_true",
                               help="also run the write-path sweep and "
                                    "append the WA/lifetime panel "
                                    "(admission policies x write ratio)")
    add_snapshot_flags(report_parser)

    trace_parser = commands.add_parser(
        "trace-run", help="regenerate one artifact with request-lifecycle "
                          "tracing; writes Chrome trace-event JSON for "
                          "Perfetto / chrome://tracing")
    trace_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    trace_parser.add_argument("--scale", default="quick",
                              choices=("quick", "full"))
    trace_parser.add_argument("--out", default="trace.json",
                              help="Chrome trace-event JSON output path")
    trace_parser.add_argument("--sample", type=int, default=1,
                              help="trace one request in N (default 1 = "
                                   "every request)")
    trace_parser.add_argument("--telemetry-out", default=None,
                              metavar="CSV",
                              help="also write the time-series telemetry "
                                   "(MSR/queues/busy) as CSV")
    trace_parser.add_argument("--telemetry-interval-us", type=float,
                              default=5.0,
                              help="telemetry sampling period in "
                                   "simulated us (0 disables; default 5)")

    profile_parser = commands.add_parser(
        "profile", help="regenerate one artifact under cProfile and "
                        "report hotspots + kernel events/sec")
    profile_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    profile_parser.add_argument("--scale", default="quick",
                                choices=("quick", "full"))
    profile_parser.add_argument("--top", type=int, default=15,
                                help="hotspot rows to report (default 15)")
    profile_parser.add_argument("--json", dest="json_out", default=None,
                                metavar="PATH",
                                help="also write the run record as JSON")

    def add_sweep_verb(verb: str, help: str, experiment: str,
                       choices=None, bare_json: bool = True):
        """A sweep verb's parser with the flags all three take."""
        sub = commands.add_parser(verb, help=help)
        sub.add_argument("experiment", nargs="?", default=experiment,
                         choices=choices,
                         help="experiment named in the run record "
                              f"(default: {experiment})")
        sub.add_argument("--scale", default="quick",
                         choices=("quick", "full"))
        sub.add_argument("--jobs", type=int, default=None, help=jobs_help)
        json_help = "also write the run record as JSON"
        if bare_json:
            sub.add_argument("--json", dest="json_out", default=None,
                             metavar="PATH", nargs="?",
                             const=f"BENCH_{verb}.json",
                             help=f"{json_help} (bare flag: "
                                  f"BENCH_{verb}.json)")
        else:
            sub.add_argument("--json", dest="json_out", default=None,
                             metavar="PATH", help=json_help)
        add_snapshot_flags(sub)
        return sub

    chaos_parser = add_sweep_verb(
        "chaos", "sweep injected flash fault rates (RBER) and report "
                 "throughput/p99 degradation curves per preset",
        "fig9", sorted(EXPERIMENTS), bare_json=False)
    chaos_parser.add_argument("--rber-sweep", default=None,
                              metavar="P0,P1,...",
                              help="comma-separated RBER sweep points "
                                   "(default 0,8e-3; 0 = "
                                   "faults-disabled baseline)")

    writes_parser = add_sweep_verb(
        "writes", "sweep DRAM->flash admission policies and KV SET "
                  "ratios over the write-enabled presets; reports write "
                  "amplification and P/E lifetime per policy", "kv")
    writes_parser.add_argument("--write-ratio-sweep", default=None,
                               metavar="R0,R1,...",
                               help="comma-separated SET ratios in "
                                    "(0, 1] (default 0.5)")
    writes_parser.add_argument("--policies", default=None, type=_names,
                               metavar="P0,P1,...",
                               help="admission policies to sweep "
                                    "(subset of write-through,"
                                    "write-back,readiness; default all "
                                    "three)")
    writes_parser.add_argument("--presets", default=None, type=_names,
                               metavar="C0,C1,...",
                               help="write-enabled config presets to "
                                    "sweep (default astriflash-writes,"
                                    "flash-sync-writes)")
    writes_parser.add_argument("--seed", type=int, default=42)

    loadgen_parser = add_sweep_verb(
        "loadgen", "sweep offered load (QPS) per config preset and "
                   "report latency-vs-load knee curves with "
                   "sustained-QPS-under-SLO", "fig10",
        sorted(EXPERIMENTS))
    loadgen_parser.add_argument("--qps-sweep", nargs="?",
                                const=None, default=None,
                                metavar="LO:HI:N",
                                help="offered-load grid; endpoints with "
                                     "an 'x' suffix are fractions of the "
                                     "DRAM-only saturation throughput "
                                     "(default 0.3x:0.95x:5)")
    loadgen_parser.add_argument("--slo-us", type=float, default=None,
                                help="p99 response-latency SLO in us "
                                     "(default: 40x the DRAM-only mean "
                                     "service time)")
    loadgen_parser.add_argument("--arrival", default="poisson",
                                choices=("poisson", "mmpp", "diurnal"),
                                help="arrival process shape (aggregate "
                                     "rate; converted to per-core "
                                     "streams internally)")
    loadgen_parser.add_argument("--rber", type=float, default=0.0,
                                help="also inject flash faults at this "
                                     "RBER on flash-backed presets "
                                     "(composes with `repro chaos` "
                                     "semantics; default 0 = clean)")
    loadgen_parser.add_argument("--backlog-threshold", type=float,
                                default=0.05, metavar="FRAC",
                                help="censor cells whose unfinished-job "
                                     "backlog exceeds this fraction of "
                                     "offered requests (default 0.05)")
    loadgen_parser.add_argument("--refine-evals", type=int, default=4,
                                help="extra bisection simulations per "
                                     "preset to sharpen the knee "
                                     "(0 = grid-only; default 4)")
    loadgen_parser.add_argument("--seed", type=int, default=42)
    for sub in (chaos_parser, loadgen_parser):
        sub.add_argument("--workload", default=None,
                         choices=EVALUATED_WORKLOADS,
                         help="workload to sweep (default: tatp when the "
                              "scale includes it)")
        sub.add_argument("--fault-seed", type=int, default=0xF1A5,
                         help="fault-plan RNG seed (fixed seed => "
                              "identical curves)")

    cache_parser = commands.add_parser(
        "cache", help="manage the stored-results directory")
    cache_commands = cache_parser.add_subparsers(dest="cache_command",
                                                 required=True)
    clean_parser = cache_commands.add_parser(
        "clean", help="delete stored results (all of them, or "
                      "LRU-prune to a byte cap)")
    clean_parser.add_argument("--max-bytes", type=int, default=None,
                              metavar="N",
                              help="keep the most recently used entries "
                                   "up to N bytes instead of deleting "
                                   "everything")
    clean_parser.add_argument("--dir", dest="cache_dir", default=None,
                              metavar="PATH",
                              help="stored-results directory (default: "
                                   "$REPRO_CACHE_DIR or .repro_cache)")

    sim_parser = commands.add_parser("simulate", help="one ad-hoc run")
    sim_parser.add_argument("--config", default="astriflash",
                            choices=EVALUATED_CONFIG_NAMES)
    sim_parser.add_argument("--workload", default="tatp",
                            choices=EVALUATED_WORKLOADS)
    sim_parser.add_argument("--cores", type=int, default=2)
    sim_parser.add_argument("--dataset-pages", type=int, default=8192)
    sim_parser.add_argument("--zipf", type=float, default=1.7)
    sim_parser.add_argument("--measurement-us", type=float, default=3000.0)
    sim_parser.add_argument("--interarrival-us", type=float, default=None,
                            help="open-loop Poisson arrivals with this "
                                 "*aggregate* mean inter-arrival time "
                                 "(machine-wide; converted to per-core "
                                 "streams internally; default: closed "
                                 "loop)")
    sim_parser.add_argument("--seed", type=int, default=42)

    ledger_help = ("ledger file (default: $REPRO_RUNS_DIR/ledger.jsonl "
                   "or .repro_runs/ledger.jsonl)")

    history_parser = commands.add_parser(
        "history", help="list the run ledger (every measuring verb "
                        "appends one record per invocation)")
    history_parser.add_argument("--verb", default="",
                                help="filter by CLI verb")
    history_parser.add_argument("--experiment", default="",
                                help="filter by experiment")
    history_parser.add_argument("--preset", default="",
                                help="filter by config preset")
    history_parser.add_argument("--workload", default="",
                                help="filter by workload")
    history_parser.add_argument("--last", type=int, default=None,
                                metavar="N",
                                help="show only the newest N records")
    history_parser.add_argument("--ledger", default=None, metavar="PATH",
                                help=ledger_help)
    history_parser.add_argument("--json", dest="json_out",
                                action="store_true",
                                help="emit the records as JSON")

    diff_parser = commands.add_parser(
        "diff", help="per-metric deltas between two runs (ledger "
                     "index, record-id prefix, or record JSON path)")
    diff_parser.add_argument("baseline",
                             help="baseline run: ledger index (-1 = "
                                  "newest), record-id prefix, or JSON "
                                  "file")
    diff_parser.add_argument("current", help="current run (same forms)")
    diff_parser.add_argument("--threshold", type=float, default=None,
                             metavar="FRAC",
                             help="relative-change noise threshold "
                                  "(default 0.05)")
    diff_parser.add_argument("--all", dest="show_all",
                             action="store_true",
                             help="also list within-noise metrics")
    diff_parser.add_argument("--ledger", default=None, metavar="PATH",
                             help=ledger_help)
    diff_parser.add_argument("--json", dest="json_out",
                             action="store_true",
                             help="emit the diff as JSON")

    regress_parser = commands.add_parser(
        "regress", help="machine-readable pass/fail against a committed "
                        "baseline (exit 0 pass, 1 regression, 2 error)")
    regress_parser.add_argument("--baseline", required=True,
                                metavar="PATH",
                                help="baseline file: a verb's --json "
                                     "run record (its gate policies "
                                     "ride along)")
    regress_parser.add_argument("--current", default=None, metavar="PATH",
                                help="run to gate (default: the newest "
                                     "ledger record matching the "
                                     "baseline's verb)")
    regress_parser.add_argument("--threshold", type=float, default=None,
                                metavar="FRAC",
                                help="relative-change noise threshold "
                                     "(default 0.05)")
    regress_parser.add_argument("--ledger", default=None, metavar="PATH",
                                help=ledger_help)
    regress_parser.add_argument("--json", dest="json_out", default=None,
                                metavar="PATH",
                                help="also write the verdict as JSON")

    dash_parser = commands.add_parser(
        "dashboard", help="render the run ledger as a self-contained "
                          "static HTML page (inline SVG, no external "
                          "dependencies)")
    dash_parser.add_argument("--out", default="report.html",
                             help="output HTML path (default "
                                  "report.html)")
    dash_parser.add_argument("--ledger", default=None, metavar="PATH",
                             help=ledger_help)
    return parser


def _apply_run_flags(args: argparse.Namespace) -> None:
    """Check --jobs (or ``REPRO_JOBS``) and ``REPRO_CACHE_MAX_BYTES``
    before any work, and translate --snapshot-dir into the environment
    the harness (and its worker processes) reads."""
    if hasattr(args, "jobs"):
        from repro.snapshot import cache_max_bytes

        resolve_jobs(args.jobs)
        cache_max_bytes()
    if getattr(args, "snapshot_dir", None):
        os.environ["REPRO_CACHE_DIR"] = args.snapshot_dir


def _append_ledger(record) -> None:
    """Best-effort run-ledger append: the ledger is observability, so
    an IO failure (read-only checkout, full disk) warns and moves on
    instead of failing the verb that did the real work."""
    try:
        from repro.metrics import append_record

        append_record(record)
    except Exception as exc:  # noqa: BLE001 - deliberately broad
        print(f"ledger: append failed ({exc})", file=sys.stderr)


def _emit(result, json_out: Optional[str]) -> None:
    """The tail every measuring verb shares: print the typed result,
    write its RunRecord to ``--json PATH``, and append the same record
    (plus that artifact path) to the ledger."""
    from repro.metrics import write_record

    print(result.format_text())
    record = result.record()
    if json_out is not None:
        write_record(record, json_out)
        print(f"wrote {json_out}")
        record.artifacts = [json_out]
    _append_ledger(record)


def cmd_experiments() -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def cmd_workloads() -> int:
    for name in EVALUATED_WORKLOADS:
        print(name)
    return 0


def cmd_configs() -> int:
    for name in EVALUATED_CONFIG_NAMES:
        print(name)
    return 0


def cmd_run(experiment: str, scale: str, jobs: Optional[int]) -> int:
    result = run_experiment(experiment, scale=scale, jobs=jobs)
    print(result.format_table())
    return 0


def cmd_run_all(scale: str, jobs: Optional[int]) -> int:
    for name in EXPERIMENTS:
        print(run_experiment(name, scale=scale, jobs=jobs).format_table())
        print()
    return 0


def cmd_report(scale: str, out: str, jobs: Optional[int],
               telemetry: bool = False, writes: bool = False) -> int:
    import time

    from repro.harness.report import generate
    from repro.sim.engine import total_events_executed

    events_before = total_events_executed()
    wall_start = time.perf_counter()
    results = generate(
        EXPERIMENTS, scale=scale, jobs=jobs, out=out,
        header=(f"AstriFlash reproduction report (scale={scale}) — "
                "every paper table/figure regenerated"),
    )
    wall_seconds = time.perf_counter() - wall_start
    events = total_events_executed() - events_before
    print(f"wrote {out}")
    from repro.metrics import make_record, metrics_from_experiments

    metrics, fingerprint = metrics_from_experiments(results)
    _append_ledger(make_record(
        "report", experiment=",".join(EXPERIMENTS), scale=scale,
        metrics=metrics, fingerprint=fingerprint,
        wall_seconds=wall_seconds,
        events_per_second=(events / wall_seconds
                           if events and wall_seconds > 0 else 0.0),
        artifacts=[out],
    ))
    if telemetry:
        breakdown = _telemetry_breakdown(scale)
        print()
        print(breakdown)
        with open(out, "a", encoding="utf-8") as handle:
            handle.write("\nTail-latency attribution "
                         "(traced, sampled requests)\n")
            handle.write("-" * 58 + "\n")
            handle.write(breakdown + "\n")
    if writes:
        from repro.writes import run_writes

        panel = run_writes(scale=scale, jobs=jobs).format_text()
        print()
        print(panel)
        with open(out, "a", encoding="utf-8") as handle:
            handle.write("\nWrite path: WA and lifetime per "
                         "admission policy\n")
            handle.write("-" * 58 + "\n")
            handle.write(panel + "\n")
    return 0


def _telemetry_breakdown(scale: str) -> str:
    """Traced runs of the paper's headline designs -> Table-2-style
    per-percentile component breakdown."""
    from repro.harness.parallel import RunSpec
    from repro.obs import attribute, format_attribution, trace_specs

    specs = [
        RunSpec("astriflash", "tatp", scale),
        RunSpec("flash-sync", "tatp", scale),
        RunSpec("os-swap", "tatp", scale),
    ]
    tracer, _ = trace_specs(specs)
    return format_attribution(attribute(tracer.completed))


def cmd_trace_run(args: argparse.Namespace) -> int:
    from repro.obs import (
        Tracer,
        attribute,
        format_attribution,
        trace_experiment,
        validate_chrome_trace,
        write_chrome_trace,
        write_telemetry_csv,
    )

    if args.sample < 1:
        raise ReproError("--sample must be >= 1")
    if not 0.0 <= args.telemetry_interval_us < math.inf:
        raise ReproError("--telemetry-interval-us must be finite and "
                         f">= 0, got {args.telemetry_interval_us:g}")
    tracer = Tracer(
        sample_every=args.sample,
        telemetry_interval_ns=args.telemetry_interval_us * US,
    )
    tracer, result = trace_experiment(args.experiment, scale=args.scale,
                                      tracer=tracer)
    print(result.format_table())
    print()
    document = write_chrome_trace(tracer, args.out)
    summary = tracer.summary()
    print(f"trace: {args.out} ({len(document['traceEvents'])} events, "
          f"{summary['requests_traced']} of {summary['requests_seen']} "
          f"requests traced, {summary['dropped_events']} dropped)")
    if args.telemetry_out is not None:
        write_telemetry_csv(tracer.telemetry_rows, args.telemetry_out)
        print(f"telemetry: {args.telemetry_out} "
              f"({summary['telemetry_samples']} samples)")
    print()
    print(format_attribution(attribute(tracer.completed)))
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems[:10]:
            print(f"trace validation: {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_profile(experiment: str, scale: str, top: int,
                json_out: Optional[str]) -> int:
    from repro.perf import profile_experiment

    _emit(profile_experiment(experiment, scale=scale, top=top), json_out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``chaos``, ``writes`` and ``loadgen``: run the verb's declared
    sweep with its flags, print the table and emit the record.  A gate
    that declares a failure message exits 1 when it fails."""
    from repro.faults import chaos
    from repro.loadgen import sweep as loadgen
    from repro.writes import bench as writes

    run = {"chaos": chaos.run_chaos, "writes": writes.run_writes,
           "loadgen": loadgen.run_loadgen}[args.command]
    result = run(**{key: value for key, value in vars(args).items()
                    if key not in ("command", "json_out", "snapshot_dir")})
    _emit(result, args.json_out)
    gate = result.sweep.gate
    if gate.failure and not result.ok:
        print(f"{args.command}: {gate.failure}", file=sys.stderr)
        return 1
    return 0


def cmd_cache_clean(max_bytes: Optional[int],
                    cache_dir: Optional[str]) -> int:
    from pathlib import Path

    from repro.snapshot import clear_cache, default_snapshot_dir, prune_cache

    if max_bytes is not None and max_bytes < 0:
        raise ReproError(f"--max-bytes must be >= 0, got {max_bytes}")
    directory = Path(cache_dir) if cache_dir else default_snapshot_dir()
    if not directory.is_dir():
        print(f"cache: {directory} does not exist; nothing to clean")
        return 0
    if max_bytes is None:
        files, freed = clear_cache(directory)
        print(f"cache: removed {files} files ({freed:,} bytes) "
              f"from {directory}")
    else:
        files, freed = prune_cache(directory, max_bytes=max_bytes)
        print(f"cache: pruned {files} LRU files ({freed:,} bytes) from "
              f"{directory}; capped at {max_bytes:,} bytes")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = make_config(args.config, (
        ("num_cores", args.cores),
        ("scale.dataset_pages", args.dataset_pages),
        ("scale.measurement_ns", args.measurement_us * US),
    ))
    workload = make_workload(args.workload, args.dataset_pages,
                             seed=args.seed, zipf_s=args.zipf)
    arrivals = None
    if args.interarrival_us is not None:
        # --interarrival-us is the *aggregate* (machine-wide) mean gap;
        # the runner spawns one arrival stream per core, so each
        # stream's mean is cores times larger (the per-core convention
        # documented in repro.workloads.arrival).  Before this
        # conversion the CLI silently offered `cores`x the requested
        # load while fig10/table2 used the per-core convention.
        arrivals = PoissonArrivals(args.interarrival_us * US * args.cores,
                                   seed=args.seed + 1)
    runner = Runner(config, workload, arrivals=arrivals)
    result = runner.run()
    print(result.describe())
    try:
        from repro.metrics import machine_metrics, make_record
        metrics = result.metrics()
        metrics.merge(machine_metrics(
            runner.machine, preset=args.config, workload=args.workload))
        _append_ledger(make_record(
            "simulate", preset=args.config, workload=args.workload,
            seed=args.seed,
            metrics=metrics.as_dict(),
            fingerprint=runner.machine.state_fingerprint(),
            wall_seconds=result.wall_seconds,
            events_per_second=result.events_per_second,
        ))
    except Exception as exc:  # noqa: BLE001 - observability only
        print(f"ledger: append failed ({exc})", file=sys.stderr)
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from repro.metrics import filter_records, ledger_path, read_ledger

    path = ledger_path(args.ledger)
    records = filter_records(
        read_ledger(path), verb=args.verb, experiment=args.experiment,
        preset=args.preset, workload=args.workload, last=args.last,
    )
    if args.json_out:
        print(json_dumps([record.to_dict() for record in records]))
        return 0
    if not records:
        print(f"ledger: no matching records in {path}")
        return 0
    print(f"ledger: {path} ({len(records)} matching records)")
    header = (f"  {'id':>12}  {'timestamp':>20}  {'verb':<12}  "
              f"{'experiment':<12}  {'preset':<16}  {'workload':<10}  "
              f"{'events/s':>12}")
    print(header)
    for record in records:
        events = (f"{record.events_per_second:,.0f}"
                  if record.events_per_second else "-")
        print(f"  {record.record_id:>12}  {record.timestamp:>20}  "
              f"{record.verb:<12}  {record.experiment[:12]:<12}  "
              f"{record.preset[:16]:<16}  {record.workload:<10}  "
              f"{events:>12}")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.metrics import (
        DEFAULT_THRESHOLD,
        diff_records,
        ledger_path,
        read_ledger,
        select_record,
    )

    ledger = read_ledger(ledger_path(args.ledger))
    baseline = select_record(ledger, args.baseline)
    current = select_record(ledger, args.current)
    threshold = (args.threshold if args.threshold is not None
                 else DEFAULT_THRESHOLD)
    report = diff_records(baseline, current, threshold=threshold)
    if args.json_out:
        print(json_dumps(report.to_json_dict()))
    else:
        print(report.format_text(show_all=args.show_all))
    return 1 if report.regressions else 0


def cmd_regress(args: argparse.Namespace) -> int:
    from repro.metrics import DEFAULT_THRESHOLD, ledger_path, run_regress

    threshold = (args.threshold if args.threshold is not None
                 else DEFAULT_THRESHOLD)
    report = run_regress(
        args.baseline, current_path=args.current,
        ledger=ledger_path(args.ledger), threshold=threshold,
    )
    print(report.format_text())
    if args.json_out is not None:
        with open(args.json_out, "w") as handle:
            handle.write(json_dumps(report.to_json_dict()) + "\n")
        print(f"wrote {args.json_out}")
    return 0 if report.passed else 1


def cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.metrics import render_dashboard

    out = render_dashboard(args.out, ledger=args.ledger)
    print(f"wrote {out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run the verb.  Every :class:`ReproError` is
    reported here, once, with exit status 2 (see the module docstring).
    A reader that closes stdout early (``repro configs | head -1``)
    ends the verb quietly with 141, the status of a SIGPIPE death."""
    args = _build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
        return status
    except ReproError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point fd 1 at /dev/null so the exit-time flush of what is
        # still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "experiments":
        return cmd_experiments()
    if args.command == "workloads":
        return cmd_workloads()
    if args.command == "configs":
        return cmd_configs()
    _apply_run_flags(args)
    if args.command == "run":
        return cmd_run(args.experiment, args.scale, args.jobs)
    if args.command == "run-all":
        return cmd_run_all(args.scale, args.jobs)
    if args.command == "report":
        return cmd_report(args.scale, args.out, args.jobs, args.telemetry,
                          args.writes)
    if args.command in ("chaos", "writes", "loadgen"):
        return cmd_sweep(args)
    if args.command == "cache":
        return cmd_cache_clean(args.max_bytes, args.cache_dir)
    if args.command == "trace-run":
        return cmd_trace_run(args)
    if args.command == "profile":
        return cmd_profile(args.experiment, args.scale, args.top,
                           args.json_out)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "history":
        return cmd_history(args)
    if args.command == "diff":
        return cmd_diff(args)
    if args.command == "regress":
        return cmd_regress(args)
    if args.command == "dashboard":
        return cmd_dashboard(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
