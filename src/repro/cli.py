"""Command-line interface.

Mirrors the workflow of the paper's tools: collect a trace of a
scenario, distill it, inspect it, replay-validate a benchmark against
it, or export it for modern emulators.

    repro collect    --scenario porter -o porter.trace
    repro distill    porter.trace -o porter.json
    repro info       porter.json
    repro scenarios                          # registered scenarios
    repro validate   --scenario wean --benchmark ftp --trials 2
    repro characterize --scenario flagstaff --trials 4
    repro trace      wean --benchmark ftp -o wean.trace.json
    repro export     porter.json --format netem -o porter.sh
    repro compensation
    repro check      --scenario all          # invariant monitors
    repro check      --smoke --mutate-tick   # CI mutation smoke
    repro fuzz       --count 25 --seed 0     # generative invariant tier
    repro metrics    metrics.jsonl           # Prometheus exposition

Every ``--scenario`` accepts a registered name (``repro scenarios``
lists them) *or* a path to a TOML/JSON scenario spec file, so a
scenario defined purely as data runs the whole collect → distill →
modulate pipeline.  ``repro fuzz`` draws seeded random-but-valid
scenario specs (piecewise curves plus the mobility/RAN/LEO profile
families), runs the invariant monitors over each, and shrinks +
archives any violating spec as a TOML repro artifact — rerun it with
``repro check --scenario <artifact>``.  ``validate`` and ``check`` accept ``--cache-dir``:
a content-addressed artifact store that makes warm reruns skip every
stage whose inputs did not change.

Observability: ``repro trace`` runs one fully-instrumented trial;
``validate``/``characterize`` grow ``--metrics-out`` (per-trial JSONL)
and ``--trace-out`` (Chrome trace-event JSON, loadable in Perfetto or
chrome://tracing); ``info`` and ``analyze`` grow ``--json``.  A
``validate`` sweep is itself observable: ``--trace-out`` merges the
cross-process sweep timeline (one track per worker pid) into the
trace, ``--run-dir`` appends a structured run manifest to
``ledger.jsonl``, ``--progress`` reports live completion and ETA,
``--profile`` aggregates per-trial cProfile tables, and
``--metrics-format prom`` — or the standalone ``repro metrics``
subcommand — emits Prometheus text exposition.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .analysis import render_series, render_table
from .core import Distiller, ReplayTrace, load_trace, save_trace
from .core.compensation import measure_modulation_network
from .core.export import (
    to_mahimahi_commands,
    to_mahimahi_trace,
    to_netem_script,
)
from .obs import (
    DEFAULT_SPAN_LIMIT,
    MetricsRegistry,
    ObsConfig,
    RunLedger,
    SweepProgress,
    SweepTelemetry,
    aggregate_profiles,
    fold_records,
    merged_chrome_trace,
    read_jsonl,
    render_obs_summary,
    render_profile_table,
    sweep_ledger_record,
    sweep_registry,
    write_chrome_trace,
    write_jsonl,
)
from .runtime.session import (
    ExecutionConfig,
    RuntimeSession,
    command_ledger_record,
)
from .scenarios import (
    register_spec_file,
    registered_scenarios,
    resolve_scenario,
    scenario_names,
    spec_origin,
)
from .validation import (
    AndrewRunner,
    FtpRunner,
    WebRunner,
    characterize_scenario_parallel,
    collect_trace,
    compensation_vb,
    distill_scenario_trace,
    run_live_trial,
    run_modulated_trial,
    run_validation,
)

RUNNERS = {"ftp": FtpRunner, "web": WebRunner, "andrew": AndrewRunner}

SCENARIO_HELP = ("registered scenario name (see `repro scenarios`) "
                 "or path to a TOML/JSON scenario spec file")


def _resolve_scenario_arg(name: str):
    """Resolve a scenario CLI argument, exiting 2 with a clear message.

    Accepts registered names and spec-file paths; an unknown name or a
    missing file is a usage error, not a traceback.
    """
    try:
        return resolve_scenario(name)
    except (KeyError, FileNotFoundError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro: error: {message}", file=sys.stderr)
        raise SystemExit(2)
    except ValueError as exc:
        print(f"repro: error: invalid scenario spec {name!r}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def _execution_parent() -> argparse.ArgumentParser:
    """The shared execution flags of every bulk subcommand.

    ``validate``, ``characterize``, ``check`` and ``fuzz`` all fan
    work through :mod:`repro.runtime`; this parent parser gives them
    one spelling of the knobs (and one help text), and
    :class:`~repro.runtime.session.ExecutionConfig` reads them back
    off the parsed namespace.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument("--workers", type=int, default=None,
                       help="worker process count, at most one more "
                            "than the CPU count (default: one per CPU; "
                            "1 forces serial; results are byte-identical "
                            "for every worker count)")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed artifact cache: warm "
                            "reruns load unchanged stages instead of "
                            "recomputing them (results are identical "
                            "either way)")
    group.add_argument("--progress", action="store_true",
                       help="live progress on stderr (stdout stays "
                            "byte-identical); plain lines when stderr "
                            "is not a TTY")
    group.add_argument("--run-dir", default=None, metavar="DIR",
                       help="append this command's run manifest "
                            "(workers, backend, cache, wall clock, "
                            "output hash) to DIR/ledger.jsonl")
    group.add_argument("--hosts", default=None, metavar="SPEC",
                       help="distribute over a worker fleet: "
                            "'a:4,b:8' (host:workers, 'local' for "
                            "pseudo-hosts on this machine) or a path "
                            "to a TOML hosts file, in place of "
                            "--workers (results stay byte-identical "
                            "to serial)")
    return parent


def _session_executor(session: RuntimeSession):
    """The session's scheduler when the flags ask for parallelism,
    else ``None`` (the command's plain serial path)."""
    config = session.config
    if (config.workers or 1) > 1 or config.hosts:
        return session.scheduler()
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Trace-based mobile network emulation (SIGCOMM 1997)")
    execution = _execution_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="trace one scenario traversal")
    p.add_argument("--scenario", required=True, help=SCENARIO_HELP)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True,
                   help="trace file to write (binary, self-descriptive)")

    p = sub.add_parser("distill", help="collected trace -> replay trace")
    p.add_argument("trace", help="file written by `repro collect`")
    p.add_argument("-o", "--output", required=True,
                   help="replay trace JSON to write")
    p.add_argument("--window", type=float, default=5.0,
                   help="sliding window width in seconds (default 5)")
    p.add_argument("--step", type=float, default=1.0)

    p = sub.add_parser("info", help="summarize a replay trace")
    p.add_argument("replay", help="replay trace JSON")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit machine-readable JSON (round-trips through "
                        "ReplayTrace.from_json)")

    p = sub.add_parser(
        "scenarios",
        help="list registered scenarios (builtin and spec files)")
    p.add_argument("specs", nargs="*", metavar="SPEC",
                   help="extra TOML/JSON spec files to register and "
                        "include in the listing")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the listing as machine-readable JSON")

    p = sub.add_parser("validate", parents=[execution],
                       help="live-vs-modulated benchmark comparison")
    p.add_argument("--scenario", required=True, help=SCENARIO_HELP)
    p.add_argument("--benchmark", choices=sorted(RUNNERS), required=True)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=1,
                   help="Monte Carlo width: sweep this many consecutive "
                        "seeds (each with --trials trials) and pool "
                        "them into one summary; --seeds 1 (default) is "
                        "byte-identical to the original single-seed "
                        "sweep")
    p.add_argument("--baseline", action="store_true",
                   help="also run the raw-Ethernet reference row")
    p.add_argument("--ftp-bytes", type=int, default=None,
                   help="ftp benchmark only: transfer size in bytes "
                        "(default 10 MB, the paper's)")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write one metrics record per trial as JSONL")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write a Chrome trace-event JSON of every trial "
                        "(open in Perfetto or chrome://tracing)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the sweep as machine-readable JSON "
                        "(tables, cache and transport accounting)")
    p.add_argument("--metrics-format", choices=("jsonl", "prom"),
                   default="jsonl",
                   help="--metrics-out format: jsonl writes one record "
                        "per trial; prom writes one unified Prometheus "
                        "text-exposition snapshot of the whole sweep")
    p.add_argument("--profile", action="store_true",
                   help="cProfile each trial and print an aggregated "
                        "top-N table (simulated results are unchanged)")

    p = sub.add_parser(
        "metrics",
        help="render per-trial metrics records (from `validate "
             "--metrics-out`) as one Prometheus text-exposition "
             "snapshot")
    p.add_argument("metrics_jsonl",
                   help="JSONL file written by --metrics-out")
    p.add_argument("--prefix", default="repro",
                   help="metric name prefix (default: repro)")

    p = sub.add_parser("characterize", parents=[execution],
                       help="Figures 2-5 style scenario characterization")
    p.add_argument("--scenario", required=True, help=SCENARIO_HELP)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write one metrics record per traversal as JSONL")

    p = sub.add_parser(
        "trace",
        help="run one fully-instrumented trial (packet-lifecycle spans, "
             "metrics, modulation-fidelity audit)")
    p.add_argument("scenario", help=SCENARIO_HELP)
    p.add_argument("--benchmark", choices=sorted(RUNNERS), default="ftp")
    p.add_argument("--mode", choices=("modulated", "live"),
                   default="modulated",
                   help="modulated: collect+distill the scenario, then "
                        "trace the replayed benchmark; live: trace the "
                        "benchmark on the live WaveLAN world")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--ftp-bytes", type=int, default=512 * 1024,
                   help="ftp benchmark only: transfer size (default 512 KB "
                        "to keep single traced runs quick)")
    p.add_argument("--span-limit", type=int, default=DEFAULT_SPAN_LIMIT,
                   help="max stored span events (overruns are counted)")
    p.add_argument("-o", "--trace-out", default=None, metavar="FILE",
                   help="write the Chrome trace-event JSON here")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the trial's metrics record as JSONL")

    p = sub.add_parser("export", help="replay trace -> netem/mahimahi")
    p.add_argument("replay", help="replay trace JSON")
    p.add_argument("--format", choices=("netem", "mahimahi"),
                   required=True)
    p.add_argument("--dev", default="eth0", help="netem: interface name")
    p.add_argument("--loop", action="store_true",
                   help="netem: loop over the trace until interrupted")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("analyze", help="statistics of a collected trace")
    p.add_argument("trace", help="file written by `repro collect`")
    p.add_argument("--filter", dest="filter_expr", default=None,
                   help="BPF-style expression, e.g. 'icmp and out'")
    p.add_argument("--dump", action="store_true",
                   help="print matching packets, tcpdump style")
    p.add_argument("--limit", type=int, default=40,
                   help="max packets printed with --dump")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the statistics as machine-readable JSON")

    sub.add_parser("compensation",
                   help="measure the testbed's delay-compensation constant")

    p = sub.add_parser(
        "check", parents=[execution],
        help="run the invariant monitors over traced pipeline runs "
             "(packet conservation, tick alignment, FIFO ordering, ...)")
    p.add_argument("--scenario", default="all",
                   help="scenario to check: a name, a spec file path, "
                        "or 'all' for the paper's four (default)")
    p.add_argument("--smoke", action="store_true",
                   help="the fast CI configuration: wean only, small "
                        "transfer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--ftp-bytes", type=int, default=None,
                   help="live/modulated stage transfer size "
                        "(default 200 KB)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the reports as machine-readable JSON")
    p.add_argument("--golden", action="store_true",
                   help="also diff the golden-master corpus "
                        "(tests/golden) against freshly generated "
                        "artifacts")
    p.add_argument("--golden-rtol", type=float, default=0.0,
                   help="relative tolerance for --golden number "
                        "comparison (default 0: byte-identical)")
    p.add_argument("--regen-golden", action="store_true",
                   help="regenerate the golden-master corpus and exit "
                        "(only for intentional behaviour changes)")
    p.add_argument("--mutate-tick", action="store_true",
                   help="inject an off-by-one-tick modulator bug and "
                        "VERIFY the monitors catch it (exit 0 when "
                        "caught, 2 when missed)")

    from .check.fuzz import DEFAULT_SHRINK_BUDGET, FUZZ_FTP_BYTES
    from .scenarios.generate import GENERATOR_KINDS

    p = sub.add_parser(
        "fuzz", parents=[execution],
        help="generate seeded random-but-valid scenarios, run the "
             "invariant monitors over each, shrink + archive violators")
    p.add_argument("--count", type=int, default=25,
                   help="number of generated scenarios (default 25)")
    p.add_argument("--seed", type=int, default=0,
                   help="generator stream seed: the same (seed, count) "
                        "always yields the same corpus and output")
    p.add_argument("--kinds", nargs="+", choices=GENERATOR_KINDS,
                   default=None,
                   help="restrict generation to these scenario kinds "
                        "(default: all, weighted)")
    p.add_argument("--ftp-bytes", type=int, default=FUZZ_FTP_BYTES,
                   help=f"per-spec live/modulated transfer size "
                        f"(default {FUZZ_FTP_BYTES})")
    p.add_argument("--corpus-dir", default=None, metavar="DIR",
                   help="also write every generated spec as TOML here")
    p.add_argument("--artifact-dir", default=None, metavar="DIR",
                   help="archive violating specs here (shrunk "
                        "reproducer, original, violation report); "
                        "rerun one with `repro check --scenario "
                        "DIR/<name>.spec.toml`")
    p.add_argument("--no-shrink", action="store_true",
                   help="archive violating specs as-is instead of "
                        "shrinking them first")
    p.add_argument("--shrink-budget", type=int,
                   default=DEFAULT_SHRINK_BUDGET,
                   help="max pipeline re-checks spent shrinking one "
                        "violating spec")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the campaign result as machine-readable "
                        "JSON")
    return parser


# ----------------------------------------------------------------------
def _cmd_scenarios(args) -> int:
    for path in args.specs:
        try:
            register_spec_file(path)
        except (OSError, ValueError) as exc:
            print(f"repro: error: cannot load spec {path!r}: {exc}",
                  file=sys.stderr)
            return 2
    rows = []
    for entry in registered_scenarios():
        scenario = entry.make()
        spec = getattr(scenario, "spec", None)
        family = spec.family.kind if spec is not None \
            and spec.family is not None else None
        rows.append({
            "name": entry.name,
            "duration": scenario.duration,
            "checkpoints": len(scenario.checkpoints),
            "cross_laptops": scenario.cross_laptops,
            "has_motion": scenario.has_motion,
            "source": entry.source,
            "family": family,
            "origin": spec_origin(spec, entry.source),
        })
    if args.as_json:
        print(json.dumps(rows, indent=1))
        return 0
    header = (f"{'name':<12} {'duration':>8} {'checkpoints':>11} "
              f"{'cross':>5} {'motion':>6} {'family':>9} "
              f"{'origin':>9}  source")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['name']:<12} {row['duration']:>7.0f}s "
              f"{row['checkpoints']:>11} {row['cross_laptops']:>5} "
              f"{'yes' if row['has_motion'] else 'no':>6} "
              f"{row['family'] or '-':>9} {row['origin']:>9}  "
              f"{row['source']}")
    return 0


def _cmd_collect(args) -> int:
    scenario = _resolve_scenario_arg(args.scenario)
    records = collect_trace(scenario, args.seed, args.trial)
    count = save_trace(args.output, records,
                       description=f"{args.scenario} trial {args.trial} "
                                   f"seed {args.seed}")
    print(f"wrote {count} records to {args.output}")
    return 0


def _cmd_distill(args) -> int:
    records = load_trace(args.trace)
    distiller = Distiller(window_width=args.window, step=args.step)
    result = distiller.distill(records, name=args.trace)
    result.replay.save(args.output)
    replay = result.replay
    print(f"distilled {result.groups_used} groups "
          f"({result.groups_corrected} corrected, "
          f"{result.groups_skipped} skipped) into {len(replay)} tuples")
    print(f"wrote {args.output}")
    _print_replay_summary(replay)
    return 0


def _cmd_info(args) -> int:
    replay = ReplayTrace.load(args.replay)
    if args.as_json:
        from dataclasses import asdict

        print(json.dumps({
            "name": replay.name,
            "duration": replay.duration,
            "tuples": [asdict(t) for t in replay.tuples],
            # Extra keys are ignored by ReplayTrace.from_json, so this
            # document round-trips back into an identical replay trace.
            "summary": {
                "count": len(replay),
                "mean_latency": replay.mean_latency(),
                "mean_bandwidth_bps": replay.mean_bandwidth_bps(),
                "mean_loss": replay.mean_loss(),
            },
        }, indent=1))
        return 0
    print(f"replay trace {replay.name!r}: {len(replay)} tuples, "
          f"{replay.duration:.0f}s")
    _print_replay_summary(replay)
    # Coarse timeline: ten segments of the trace.
    segments = 10
    labels, lat_lo, lat_hi, loss_lo, loss_hi = [], [], [], [], []
    for k in range(segments):
        lo = replay.duration * k / segments
        hi = replay.duration * (k + 1) / segments
        tuples = [t for i, t in enumerate(replay)
                  if lo <= _tuple_start(replay, i) < hi]
        if not tuples:
            tuples = [replay.tuple_at(min(lo, replay.duration - 1e-9))]
        labels.append(f"{int(lo)}s")
        lat_lo.append(min(t.F for t in tuples) * 1e3)
        lat_hi.append(max(t.F for t in tuples) * 1e3)
        loss_lo.append(min(t.L for t in tuples) * 100)
        loss_hi.append(max(t.L for t in tuples) * 100)
    print()
    print(render_series("latency", labels, lat_lo, lat_hi, unit="ms"))
    print()
    print(render_series("loss", labels, loss_lo, loss_hi, unit="%"))
    return 0


def _tuple_start(replay: ReplayTrace, index: int) -> float:
    return sum(t.d for t in replay.tuples[:index])


def _print_replay_summary(replay: ReplayTrace) -> None:
    print(f"  latency   {replay.mean_latency() * 1e3:8.2f} ms (mean)")
    print(f"  bandwidth {replay.mean_bandwidth_bps() / 1e6:8.2f} Mb/s "
          f"(bottleneck)")
    print(f"  loss      {replay.mean_loss() * 100:8.2f} %")


def _record_label(record: Dict[str, Any]) -> str:
    """Short per-trial label for Chrome trace process grouping."""
    parts = [str(record.get("kind", "trial"))]
    for key in ("scenario", "benchmark", "replay"):
        value = record.get(key)
        if value:
            parts.append(str(value))
    parts.append(f"t{record.get('trial', 0)}")
    return ":".join(parts)


def _write_obs_outputs(records: List[Dict[str, Any]],
                       metrics_out: Optional[str],
                       trace_out: Optional[str],
                       timeline: Optional[SweepTelemetry] = None) -> None:
    """Write the metrics JSONL and/or the Chrome trace from records.

    With a ``timeline`` the trace file is the *merged* document: the
    sweep's cross-process stage spans (one track per worker pid) plus
    the per-trial packet-lifecycle groups above them.
    """
    if metrics_out:
        # Raw span events go to the Chrome trace, not the JSONL stream;
        # everything else in the record is kept verbatim.
        slim = [{k: v for k, v in record.items() if k != "spans"}
                for record in records]
        count = write_jsonl(metrics_out, slim)
        print(f"wrote {count} metrics records to {metrics_out}")
    if trace_out:
        groups = [(_record_label(record), record["spans"])
                  for record in records if record.get("spans")]
        if timeline is not None:
            document = merged_chrome_trace(timeline, groups)
            with open(trace_out, "w", encoding="utf-8") as f:
                json.dump(document, f)
            count = len(document["traceEvents"])
        else:
            count = write_chrome_trace(trace_out, groups)
        print(f"wrote {count} trace events to {trace_out} "
              f"(open in Perfetto or chrome://tracing)")


def _render_fallback_summary(transport: Dict[str, Any]) -> List[str]:
    """Human-readable lines describing every in-process fallback the
    sweep took (empty when it took none)."""
    fallbacks = transport.get("serial_fallbacks") or 0
    if not fallbacks and not transport.get("pool_broken"):
        return []
    lines = [f"transport fallbacks: {fallbacks} trial(s) recomputed "
             f"in-process"
             + (" [worker pool BROKE mid-sweep]"
                if transport.get("pool_broken") else "")]
    for reason in transport.get("fallback_reasons") or []:
        lines.append(f"  - {reason}")
    return lines


def _cmd_validate(args) -> int:
    import os as _os
    import time as _time

    scenario = _resolve_scenario_arg(args.scenario)
    if args.benchmark == "ftp" and args.ftp_bytes is not None:
        runner = RUNNERS[args.benchmark](nbytes=args.ftp_bytes)
    else:
        runner = RUNNERS[args.benchmark]()
    obs = None
    if args.metrics_out or args.trace_out or args.profile:
        obs = ObsConfig(metrics=True, trace=bool(args.trace_out),
                        spans=bool(args.trace_out),
                        profile=bool(args.profile))
    session = RuntimeSession(ExecutionConfig.from_args(args))
    cache = session.pipeline
    telemetry = None
    if args.trace_out or args.run_dir:
        telemetry = SweepTelemetry()
    progress = None
    if args.progress:
        progress = SweepProgress(
            stream=sys.stderr, label=f"{args.benchmark}/{scenario.name}")
    t0 = _time.perf_counter()
    cpu0 = sum(_os.times()[:4])
    with session:
        sweep = run_validation(scenario, runner, seed=args.seed,
                               trials=args.trials, seeds=args.seeds,
                               baseline=args.baseline,
                               executor=session.scheduler(), obs=obs,
                               cache=cache,
                               telemetry=telemetry, progress=progress)
    wall_s = _time.perf_counter() - t0
    cpu_s = sum(_os.times()[:4]) - cpu0
    if progress is not None:
        progress.finish()
    if sweep.fallback_reason:
        print(f"warning: worker pool fell back to in-process "
              f"execution: {sweep.fallback_reason}", file=sys.stderr)
    seeds_n = max(1, args.seeds)
    seeds_tag = f" x {seeds_n} seeds" if seeds_n > 1 else ""
    table = sweep.render(
        title=f"{args.benchmark} on {scenario.name} "
              f"({args.trials} trials{seeds_tag})")
    if args.as_json:
        doc = sweep.as_dict()
        doc["trials"] = args.trials
        doc["seed"] = args.seed
        if seeds_n > 1:
            doc["seeds"] = seeds_n
        print(json.dumps(doc, indent=2))
    else:
        print(table)
        if cache is not None:
            print(cache.render_summary())
        for line in _render_fallback_summary(sweep.transport):
            print(line)
        if telemetry is not None:
            util = telemetry.utilization().get("utilization")
            if util is not None:
                # Diagnostic, so stderr: stdout stays byte-identical
                # with and without telemetry.
                print(f"sweep timeline: {len(telemetry.spans)} spans, "
                      f"{len(telemetry.worker_pids())} worker(s), "
                      f"pool utilization {util:.0%}", file=sys.stderr)
    if args.profile:
        rows = aggregate_profiles(sweep.trial_metrics)
        print()
        print(render_profile_table(rows))
    if args.run_dir:
        ledger = RunLedger(args.run_dir)
        record = ledger.append(sweep_ledger_record(
            sweep, command="validate", scenario=scenario.name,
            seed=args.seed, trials=args.trials, wall_s=wall_s,
            cpu_s=cpu_s, table=table, telemetry=telemetry))
        print(f"appended run manifest to {ledger.path} "
              f"(schema {record['schema']})")
    if args.metrics_out and args.metrics_format == "prom":
        registry = sweep_registry(sweep, pipeline=cache,
                                  telemetry=telemetry)
        with open(args.metrics_out, "w", encoding="utf-8") as f:
            f.write(registry.render_prometheus())
        print(f"wrote Prometheus exposition to {args.metrics_out}")
        _write_obs_outputs(sweep.trial_metrics, None, args.trace_out,
                           timeline=telemetry)
    else:
        _write_obs_outputs(sweep.trial_metrics, args.metrics_out,
                           args.trace_out, timeline=telemetry)
    return 0


def _cmd_metrics(args) -> int:
    try:
        records = read_jsonl(args.metrics_jsonl)
    except OSError as exc:
        print(f"repro: error: cannot read {args.metrics_jsonl!r}: {exc}",
              file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    fold_records(registry, records)
    sys.stdout.write(registry.render_prometheus(prefix=args.prefix))
    return 0


def _cmd_characterize(args) -> int:
    scenario = _resolve_scenario_arg(args.scenario)
    obs = ObsConfig(metrics=True) if args.metrics_out else None
    trial_metrics: List[Dict[str, Any]] = []
    with RuntimeSession(ExecutionConfig.from_args(args)) as session:
        cache = session.pipeline
        character = characterize_scenario_parallel(
            scenario, seed=args.seed, trials=args.trials,
            executor=session.scheduler(), obs=obs,
            trial_metrics=trial_metrics)
        table = character.render()
        print(table)
        if cache is not None:
            # stderr, as for check and fuzz: stdout stays byte-identical
            # however warm the cache is.
            print(cache.render_summary(), file=sys.stderr)
        if args.run_dir:
            record = session.record(command_ledger_record(
                command="characterize", scenarios=[scenario.name],
                seed=args.seed, wall_s=session.wall_s(),
                scheduler=session.scheduler(),
                cache={"hits": cache.hits, "misses": cache.misses}
                if cache is not None else None,
                output=table, status="ok"))
            print(f"appended run manifest to {session.ledger().path} "
                  f"(schema {record['schema']})")
    _write_obs_outputs(trial_metrics, args.metrics_out, None)
    return 0


def _cmd_trace(args) -> int:
    scenario = _resolve_scenario_arg(args.scenario)
    if args.benchmark == "ftp":
        runner = RUNNERS["ftp"](nbytes=args.ftp_bytes, direction="send")
    else:
        runner = RUNNERS[args.benchmark]()
    variant = runner.variants()[0]
    obs = ObsConfig(metrics=True, trace=True, spans=True,
                    span_limit=args.span_limit)
    if args.mode == "live":
        sink = run_live_trial(scenario, variant, args.seed, args.trial,
                              obs=obs)
    else:
        records = collect_trace(scenario, args.seed, args.trial)
        dist = distill_scenario_trace(
            records, name=f"{scenario.name}-{args.trial}")
        sink = run_modulated_trial(dist.replay, variant, args.seed,
                                   args.trial, compensation_vb(), obs=obs)
    record = sink.pop("__obs__", None)
    if record is None:
        print("observability is globally disabled "
              "(repro.obs.set_enabled(False)); nothing to report")
        return 1
    metrics = ", ".join(f"{name}={value:.2f}s"
                        for name, value in sink.items())
    print(f"{args.benchmark} on {args.scenario} ({args.mode}): {metrics}")
    print()
    print(render_obs_summary(record))
    _write_obs_outputs([record], args.metrics_out, args.trace_out)
    return 0


def _cmd_export(args) -> int:
    replay = ReplayTrace.load(args.replay)
    if args.format == "netem":
        content = to_netem_script(replay, dev=args.dev, loop=args.loop)
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(content)
        print(f"wrote netem script to {args.output} "
              f"(run as: sh {args.output} <dev>)")
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(to_mahimahi_trace(replay))
        print(f"wrote mm-link trace to {args.output}")
        print("run inside:", to_mahimahi_commands(replay, args.output),
              end="")
    return 0


def _cmd_analyze(args) -> int:
    from .analysis import analyze_trace
    from .analysis.filter import dump_records, filter_records

    records = load_trace(args.trace)
    if args.filter_expr:
        matched = filter_records(records, args.filter_expr)
        if args.as_json:
            doc = {"filter": args.filter_expr, "matched": len(matched),
                   "statistics": (analyze_trace(matched).as_dict()
                                  if matched else None)}
            print(json.dumps(doc, indent=1))
            return 0
        print(f"{len(matched)} packets match {args.filter_expr!r}")
        if args.dump:
            print(dump_records(matched, limit=args.limit))
        elif matched:
            print(analyze_trace(matched).render())
        return 0
    if args.as_json:
        print(json.dumps(analyze_trace(records).as_dict(), indent=1))
        return 0
    if args.dump:
        from .core.traceformat import PacketRecord

        packets = [r for r in records if isinstance(r, PacketRecord)]
        print(dump_records(packets, limit=args.limit))
        return 0
    print(analyze_trace(records).render())
    return 0


def _cmd_compensation(args) -> int:
    measurement = measure_modulation_network()
    print(f"bottleneck per-byte cost Vb = {measurement.vb * 1e6:.3f} us/byte")
    print(f"  (bandwidth {measurement.bandwidth_bps / 1e6:.2f} Mb/s, "
          f"latency {measurement.latency * 1e3:.3f} ms)")
    print("pass this Vb as compensation_vb to install_modulation()")
    return 0


def _cmd_check(args) -> int:
    from .check import (check_all, compare, inject_tick_undershoot,
                        regenerate, smoke_check)
    from .check.runner import (DEFAULT_FTP_BYTES, SMOKE_FTP_BYTES,
                               SMOKE_SCENARIO)

    if args.mutate_tick:
        # The mutation smoke test: the monitors must FAIL under an
        # injected off-by-one-tick rounding bug, or they are not
        # actually guarding anything.
        with inject_tick_undershoot():
            report = smoke_check(seed=args.seed)
        if report.ok:
            print("MUTATION MISSED: off-by-one-tick bug raised no "
                  "violation")
            return 2
        caught = sorted({f"{v.monitor}.{v.invariant}"
                         for v in report.violations})
        print(f"mutation caught: {len(report.violations)} violation(s) "
              f"by {', '.join(caught)}")
        return 0

    with RuntimeSession(ExecutionConfig.from_args(args)) as session:
        cache = session.pipeline
        executor = _session_executor(session)

        if args.regen_golden:
            written = regenerate(cache=cache, executor=executor)
            for path in written:
                print(f"wrote {path}")
            if args.run_dir:
                session.record(command_ledger_record(
                    command="check", scenarios=[], seed=args.seed,
                    wall_s=session.wall_s(), scheduler=executor,
                    status="ok", extra={"regen_golden": True}))
            return 0

        # The smoke configuration is `check_all` over one scenario
        # with a smaller transfer, so both tiers share one code path
        # (and one executor, when parallel execution is requested).
        if args.smoke:
            names = [SMOKE_SCENARIO]
            ftp_bytes = SMOKE_FTP_BYTES
        else:
            ftp_bytes = (args.ftp_bytes if args.ftp_bytes is not None
                         else DEFAULT_FTP_BYTES)
            if args.scenario == "all":
                names = None
            else:
                names = [_resolve_scenario_arg(args.scenario)]
        reports = check_all(scenarios=names, seed=args.seed,
                            trial=args.trial, ftp_bytes=ftp_bytes,
                            cache=cache, executor=executor)
        failed = False
        if args.as_json:
            output = json.dumps([r.as_dict() for r in reports], indent=1)
            print(output)
            failed = any(not r.ok for r in reports)
        else:
            rendered = []
            for report in reports:
                rendered.append(report.render())
                print(rendered[-1])
                failed = failed or not report.ok
            output = "\n".join(rendered)
        if args.golden:
            scenarios = None if args.scenario == "all" else [args.scenario]
            diffs = compare(scenarios=scenarios, rtol=args.golden_rtol,
                            cache=cache, executor=executor)
            if diffs:
                failed = True
                for artifact, lines in sorted(diffs.items()):
                    for line in lines:
                        print(f"golden {artifact}: {line}")
            else:
                print("golden corpus: all artifacts match")
        if cache is not None:
            # Cache accounting depends on how warm the store is (and,
            # when parallel, on which process computed what), so it
            # goes to stderr: stdout stays byte-identical across
            # backends and reruns.
            print(cache.render_summary(), file=sys.stderr)
        if args.run_dir:
            record = session.record(command_ledger_record(
                command="check",
                scenarios=[r.scenario for r in reports],
                seed=args.seed, wall_s=session.wall_s(),
                scheduler=executor,
                cache={"hits": cache.hits, "misses": cache.misses}
                if cache is not None else None,
                output=output,
                status="failed" if failed else "ok"))
            print(f"appended run manifest to {session.ledger().path} "
                  f"(schema {record['schema']})")
        return 1 if failed else 0


def _cmd_fuzz(args) -> int:
    from .check.fuzz import run_fuzz

    with RuntimeSession(ExecutionConfig.from_args(args)) as session:
        cache = session.pipeline
        executor = _session_executor(session)
        progress = None
        if args.progress:
            def progress(done, total, name):
                if name:
                    print(f"fuzz {done + 1}/{total}: {name}",
                          file=sys.stderr)

        run = run_fuzz(args.count, seed=args.seed, kinds=args.kinds,
                       ftp_bytes=args.ftp_bytes,
                       corpus_dir=args.corpus_dir,
                       artifact_dir=args.artifact_dir, cache=cache,
                       shrink=not args.no_shrink,
                       shrink_budget=args.shrink_budget,
                       progress=progress, executor=executor)
        if args.as_json:
            output = json.dumps(run.as_dict(), indent=1)
        else:
            output = run.render()
        print(output)
        if cache is not None:
            # Cache accounting differs between cold and warm runs, so
            # it goes to stderr: stdout stays byte-identical across
            # reruns.
            print(cache.render_summary(), file=sys.stderr)
        if args.run_dir:
            record = session.record(command_ledger_record(
                command="fuzz",
                scenarios=[f.original.name for f in run.findings],
                seed=args.seed, wall_s=session.wall_s(),
                scheduler=executor,
                cache={"hits": cache.hits, "misses": cache.misses}
                if cache is not None else None,
                output=output,
                status="ok" if run.ok else "failed",
                extra={"count": run.count, "checked": run.checked,
                       "corpus_digest": run.corpus_digest,
                       "findings": len(run.findings)}))
            print(f"appended run manifest to {session.ledger().path} "
                  f"(schema {record['schema']})")
        return 0 if run.ok else 1


COMMANDS = {
    "scenarios": _cmd_scenarios,
    "collect": _cmd_collect,
    "distill": _cmd_distill,
    "info": _cmd_info,
    "validate": _cmd_validate,
    "metrics": _cmd_metrics,
    "characterize": _cmd_characterize,
    "trace": _cmd_trace,
    "export": _cmd_export,
    "analyze": _cmd_analyze,
    "compensation": _cmd_compensation,
    "check": _cmd_check,
    "fuzz": _cmd_fuzz,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except KeyboardInterrupt:
        # The scheduler has already dropped the queued jobs and
        # torn the backend down (JobFuture.result intercepts the
        # interrupt); 130 is the conventional SIGINT exit status.
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
