"""Command-line interface.

The workflows a campus researcher runs day to day, without writing a
script:

* ``repro run-day`` — simulate one instrumented campus day (with
  optional labeled attacks) and export the data store to a directory.
* ``repro ingest`` — the streaming path: capture batches flow through
  a bounded queue (accounted backpressure) into a tiered store whose
  cold segments persist under ``--spill``; ``--summary-only`` reopens
  an existing spill directory with verified checksums.
* ``repro inspect`` — summarize an exported store.
* ``repro train`` — featurize an exported store (using its curated
  labels) and train/evaluate a registry model.
* ``repro develop`` — run the full development loop on an exported
  store and emit the deployable artifacts (P4 source + rule list).
* ``repro query`` — run a planned query against an exported store:
  exact record fetches, sketch-backed approximate aggregates
  (``--count``/``--distinct``/``--top`` with ``--approx``), and the
  planner's EXPLAIN tree (``--explain``).
* ``repro verify`` — static verification of a compiled tool
  (``REPxxx`` diagnostics) or the repo-wide AST lint (``--lint``).
* ``repro chaos`` — run a scenario under a named fault plan and print
  the degradation report (which stages degraded, what recovered).
* ``repro obs`` — per-stage latency/throughput report from a recorded
  observability file (``--run``) or from one fully-observed seeded
  day (``--pipeline``); ``run-day``/``train``/``develop`` record one
  with ``--obs PATH``.
* ``repro profiles`` — list available campus profiles.

Examples
--------
::

    repro run-day --profile small --seed 7 --duration 300 \\
        --attack dns-amp --attack scan --out /tmp/day1
    repro train --store /tmp/day1 --model forest --positive ddos-dns-amp
    repro develop --store /tmp/day1 --positive ddos-dns-amp \\
        --out /tmp/tool
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ATTACKS = {
    "dns-amp": ("DnsAmplificationAttack", {"attack_gbps": 0.08}),
    "ntp-amp": ("NtpAmplificationAttack", {"attack_gbps": 0.01}),
    "scan": ("PortScanAttack", {"probes_per_s": 40.0}),
    "synflood": ("SynFloodAttack", {}),
    "bruteforce": ("SshBruteForceAttack", {"attempts_per_s": 4.0}),
    "exfil": ("DataExfiltration", {}),
}

#: CLI attack names that have a fluid-overlay counterpart.
FLUID_ATTACKS = {"dns-amp": "ddos", "scan": "scan", "exfil": "exfil"}


def _add_fluid_args(parser) -> None:
    """Shared fluid-engine scale knobs (``ingest --fluid``, ``simulate``)."""
    parser.add_argument("--users", type=int, default=10_000,
                        help="population size for the fluid engine "
                             "(cohort aggregation makes 10^6 routine)")
    parser.add_argument("--cohorts", type=int, default=32,
                        help="behavior cohorts the population "
                             "aggregates into")
    parser.add_argument("--tick", type=float, default=60.0,
                        help="fluid tick length in simulated seconds")
    parser.add_argument("--tap-sample", type=float, default=1.0,
                        dest="tap_sample",
                        help="probability a border flow is expanded "
                             "into tap packets (demand accounting "
                             "always covers the full population)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Campus-network platform for AI/ML networking "
                    "research (HotNets'19 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run-day", help="simulate and export one day")
    run.add_argument("--profile", default="small")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--duration", type=float, default=300.0,
                     help="day length in simulated seconds")
    run.add_argument("--attack", action="append", default=[],
                     choices=sorted(ATTACKS),
                     help="inject a labeled attack (repeatable)")
    run.add_argument("--scenario", default=None,
                     help="use a named scenario from the library "
                          "instead of --attack flags "
                          "(see `repro scenarios`)")
    run.add_argument("--privacy", default="prefix",
                     choices=["none", "prefix", "stripped", "aggregates"])
    run.add_argument("--shards", type=int, default=1,
                     help="data-store shard count (>1 partitions by "
                          "time window x flow hash)")
    run.add_argument("--out", required=True, help="export directory")
    run.add_argument("--obs", default=None, metavar="PATH",
                     help="record observability (metrics + spans) to "
                          "this JSON-lines file")

    ingest = sub.add_parser(
        "ingest",
        help="stream one simulated day through the tiered store "
             "(bounded queue -> memtable -> warm runs -> cold mmap)")
    ingest.add_argument("--profile", default="small")
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--duration", type=float, default=300.0,
                        help="day length in simulated seconds")
    ingest.add_argument("--attack", action="append", default=[],
                        choices=sorted(ATTACKS),
                        help="inject a labeled attack (repeatable)")
    ingest.add_argument("--scenario", default=None,
                        help="use a named scenario from the library "
                             "instead of --attack flags")
    ingest.add_argument("--privacy", default="prefix",
                        choices=["none", "prefix", "stripped",
                                 "aggregates"])
    ingest.add_argument("--shards", type=int, default=1,
                        help="tiered-store shard count (each shard "
                             "owns its own memtable and cold dir)")
    ingest.add_argument("--spill", default=None, metavar="DIR",
                        help="cold-tier directory (registry.json + "
                             "mmap segments); omit to keep every tier "
                             "in memory.  Re-running with the same "
                             "directory resumes the store from disk.")
    ingest.add_argument("--memtable", type=int, default=8_192,
                        help="hot-tier memtable size in records")
    ingest.add_argument("--queue", type=int, default=65_536,
                        help="ingest-queue capacity in records; full "
                             "queues refuse batches (accounted "
                             "backpressure, never silent loss)")
    ingest.add_argument("--flush-cold", action="store_true",
                        help="age every tier into cold mmap segments "
                             "before exit (store survives restarts)")
    ingest.add_argument("--summary-only", action="store_true",
                        help="skip simulation: reopen --spill "
                             "(verifying checksums) and print its "
                             "tier summary")
    ingest.add_argument("--json", action="store_true",
                        help="emit the tier summary as JSON")
    ingest.add_argument("--fluid", action="store_true",
                        help="generate the day with the fluid "
                             "population engine (tap-side columnar "
                             "synthesis) instead of the discrete "
                             "per-user simulator")
    _add_fluid_args(ingest)

    simulate = sub.add_parser(
        "simulate",
        help="fluid generation only: run the population engine and "
             "report rates (no capture, no store)")
    simulate.add_argument("--profile", default="small")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--duration", type=float, default=3600.0,
                          help="simulated seconds")
    simulate.add_argument("--attack", action="append", default=[],
                          choices=sorted(FLUID_ATTACKS),
                          help="superimpose a labeled event overlay "
                               "(repeatable)")
    simulate.add_argument("--json", action="store_true")
    _add_fluid_args(simulate)

    inspect = sub.add_parser("inspect", help="summarize an exported store")
    inspect.add_argument("--store", required=True)

    query = sub.add_parser(
        "query",
        help="run a planned query (or EXPLAIN it) on an exported store")
    query.add_argument("--store", required=True)
    query.add_argument("--collection", default="packets")
    query.add_argument("--where", action="append", default=[],
                       metavar="FIELD=VALUE",
                       help="exact-match filter, repeatable; integer "
                            "and float values are auto-coerced")
    query.add_argument("--since", type=float, default=None,
                       help="inclusive lower time bound (seconds)")
    query.add_argument("--until", type=float, default=None,
                       help="inclusive upper time bound (seconds)")
    query.add_argument("--limit", type=int, default=10,
                       help="max records printed (record mode)")
    query.add_argument("--count", action="store_true",
                       help="COUNT(*) of matches instead of records")
    query.add_argument("--distinct", default=None, metavar="FIELD",
                       help="count distinct values of FIELD")
    query.add_argument("--top", default=None, metavar="FIELD",
                       help="heavy hitters of FIELD")
    query.add_argument("--k", type=int, default=8,
                       help="how many heavy hitters (with --top)")
    query.add_argument("--approx", type=float, default=None,
                       metavar="REL",
                       help="let aggregates answer from sketches when "
                            "the error bound fits this relative budget "
                            "(e.g. 0.01); exact without it")
    query.add_argument("--no-stats", action="store_true",
                       help="skip building per-segment planner stats "
                            "(disables stats pruning and sketches)")
    query.add_argument("--explain", action="store_true",
                       help="print the plan without executing it")
    query.add_argument("--json", action="store_true",
                       help="emit results as JSON")

    train = sub.add_parser("train", help="train a model on a store")
    train.add_argument("--store", required=True)
    train.add_argument("--model", default="forest")
    train.add_argument("--positive", default=None,
                       help="binarize against this class")
    train.add_argument("--window", type=float, default=5.0)
    train.add_argument("--obs", default=None, metavar="PATH",
                       help="record observability (metrics + spans) to "
                            "this JSON-lines file")

    develop = sub.add_parser("develop",
                             help="full development loop on a store")
    develop.add_argument("--store", required=True)
    develop.add_argument("--positive", required=True)
    develop.add_argument("--teacher", default="forest")
    develop.add_argument("--max-depth", type=int, default=4)
    develop.add_argument("--out", required=True,
                         help="directory for P4 source and rule list")
    develop.add_argument("--obs", default=None, metavar="PATH",
                         help="record observability (metrics + spans) "
                              "to this JSON-lines file")

    verify = sub.add_parser(
        "verify",
        help="static verification of a compiled program, or the "
             "repo-wide AST lint")
    verify.add_argument("--store", default=None,
                        help="compile a tool from this exported store "
                             "and verify it")
    verify.add_argument("--positive", default=None,
                        help="class to binarize against (with --store)")
    verify.add_argument("--teacher", default="tree")
    verify.add_argument("--max-depth", type=int, default=4)
    verify.add_argument("--lint", action="store_true",
                        help="run the static-analysis suite (REP3xx "
                             "patterns, REP4xx privacy taint, REP5xx "
                             "parallel safety) instead of program "
                             "verification")
    verify.add_argument("--path", default=None,
                        help="lint root (default: the installed repro "
                             "package)")
    verify.add_argument("--update-baseline", action="store_true",
                        help="with --lint: record every current finding "
                             "in the committed baseline instead of "
                             "reporting (existing justifications are "
                             "preserved)")
    verify.add_argument("--json", action="store_true",
                        help="emit the diagnostic report as JSON")

    chaos = sub.add_parser(
        "chaos",
        help="run a scenario under a named fault plan and report "
             "degradation")
    chaos.add_argument("--plan", required=True,
                       help="fault plan: lossy-tap, slow-store, or "
                            "flaky-switch")
    chaos.add_argument("--profile", default="tiny")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--duration", type=float, default=90.0,
                       help="scenario length in simulated seconds")
    chaos.add_argument("--json", action="store_true",
                       help="emit the degradation report as JSON")

    federate = sub.add_parser(
        "federate",
        help="N-campus federated analytics behind per-site privacy "
             "gateways")
    fed_sub = federate.add_subparsers(dest="federate_command",
                                      required=True)

    fed_query = fed_sub.add_parser(
        "query",
        help="fan a DP-noised aggregate across all sites and merge "
             "with a composed error bound")
    fed_query.add_argument("--sites", type=int, default=3)
    fed_query.add_argument("--seed", type=int, default=0)
    fed_query.add_argument("--epsilon", type=float, default=0.2,
                           help="per-site epsilon charged for this "
                                "query")
    fed_query.add_argument("--budget", type=float, default=1.0,
                           help="per-site total DP budget")
    fed_query.add_argument("--duration", type=float, default=120.0,
                           help="per-site day length in simulated "
                                "seconds")
    fed_query.add_argument("--collection", default="packets")
    fed_query.add_argument("--kind", default="count",
                           choices=["count", "histogram",
                                    "heavy-hitters"])
    fed_query.add_argument("--field", default="src_ip",
                           help="field for histogram / heavy-hitters")
    fed_query.add_argument("--top", type=int, default=8,
                           help="k for heavy-hitters")
    fed_query.add_argument("--fault-plan", default=None,
                           help="chaos plan at every site (e.g. "
                                "flaky-site)")
    fed_query.add_argument("--kill-site", type=int, default=None,
                           metavar="I",
                           help="take site I dark at its first "
                                "boundary call")
    fed_query.add_argument("--json", action="store_true")
    fed_query.add_argument("--obs", default=None, metavar="PATH",
                           help="record observability to this "
                                "JSON-lines file")

    fed_e2e = fed_sub.add_parser(
        "e2e",
        help="assemble a cross-site dataset, develop one tool, "
             "road-test it at every campus")
    fed_e2e.add_argument("--sites", type=int, default=3)
    fed_e2e.add_argument("--seed", type=int, default=0)
    fed_e2e.add_argument("--epsilon", type=float, default=2.0,
                         help="per-site total DP budget")
    fed_e2e.add_argument("--duration", type=float, default=180.0,
                         help="per-site day length in simulated "
                              "seconds")
    fed_e2e.add_argument("--model", default="forest",
                         help="teacher model for the federated tool")
    fed_e2e.add_argument("--no-roadtest", action="store_true",
                         help="skip the per-site road-test stage")
    fed_e2e.add_argument("--fault-plan", default=None,
                         help="chaos plan at every training site")
    fed_e2e.add_argument("--json", action="store_true")
    fed_e2e.add_argument("--obs", default=None, metavar="PATH",
                         help="record observability to this "
                              "JSON-lines file")

    obs = sub.add_parser(
        "obs",
        help="per-stage latency/throughput report from recorded "
             "observability")
    obs.add_argument("--run", default=None, metavar="PATH",
                     help="render the report from this obs JSON-lines "
                          "file (as written by --obs / --out)")
    obs.add_argument("--pipeline", action="store_true",
                     help="run one fully-observed seeded day (both "
                          "loops) and report it")
    obs.add_argument("--profile", default="small")
    obs.add_argument("--seed", type=int, default=7)
    obs.add_argument("--duration", type=float, default=60.0,
                     help="scenario length in simulated seconds "
                          "(with --pipeline)")
    obs.add_argument("--shards", type=int, default=2,
                     help="data-store shards (with --pipeline)")
    obs.add_argument("--out", default=None, metavar="PATH",
                     help="also write the records as JSON-lines here "
                          "(with --pipeline)")
    obs.add_argument("--prom", action="store_true",
                     help="emit metrics in Prometheus exposition "
                          "format instead of the report")
    obs.add_argument("--json", action="store_true",
                     help="emit the report as JSON")

    report = sub.add_parser("report",
                            help="IT-style Markdown report for a store")
    report.add_argument("--store", required=True)

    sub.add_parser("profiles", help="list campus profiles")
    sub.add_parser("scenarios", help="list library scenarios")
    return parser


def _emit_report(report, as_json: bool) -> None:
    """Shared rendering for report-producing commands (chaos, obs).

    Every report object exposes ``render()`` (human text) and
    ``render_json()``; the flag picks which one reaches stdout.
    """
    print(report.render_json() if as_json else report.render())


def _obs_or_none(args):
    """Build an Observability when the command got ``--obs PATH``."""
    if getattr(args, "obs", None) is None:
        return None
    from repro.obs import Observability

    return Observability()


def _write_obs(obs, meta: dict, path: str) -> None:
    """Dump one run's observability records as JSON-lines."""
    from repro.obs.export import obs_records, write_jsonl

    write_jsonl(obs_records(obs, meta), path)
    print(f"wrote observability records to {path}")


def _scenario_from_args(args):
    import repro.events as events

    if getattr(args, "scenario", None):
        return events.make_scenario(args.scenario,
                                    duration_s=args.duration)
    scenario = events.Scenario("cli-day", duration_s=args.duration)
    n = max(len(args.attack), 1)
    for i, name in enumerate(args.attack):
        cls_name, kwargs = ATTACKS[name]
        generator_cls = getattr(events, cls_name)
        start = args.duration * (i + 0.5) / (n + 0.5)
        duration = min(args.duration * 0.15, 60.0)
        scenario.add(generator_cls, start, duration, **kwargs)
    return scenario


def cmd_run_day(args) -> int:
    """Simulate one campus day and export its data store."""
    from repro.core import CampusPlatform, PlatformConfig
    from repro.datastore import export_store
    from repro.privacy import PrivacyLevel

    level = {p.value: p for p in PrivacyLevel}[args.privacy]
    obs = _obs_or_none(args)
    platform = CampusPlatform(PlatformConfig(
        campus_profile=args.profile, seed=args.seed, privacy_level=level,
        store_shards=args.shards, obs_enabled=obs is not None), obs=obs)
    scenario = _scenario_from_args(args)
    result = platform.collect(scenario, seed=args.seed)
    export_store(platform.store, args.out)
    if obs is not None:
        _write_obs(obs, {"command": "run-day", "profile": args.profile,
                         "seed": args.seed,
                         "packets_captured": result.packets_captured},
                   args.obs)
    print(f"captured {result.packets_captured} packets "
          f"({result.capture_loss_rate:.1%} loss), "
          f"{result.flows_stored} flows, {result.logs_stored} logs")
    if args.shards > 1:
        shard_counts = [part["records"]
                        for part in platform.store.shard_summary()]
        print(f"shards: {shard_counts}")
    print(f"exported store to {args.out}")
    return 0


def _reopen_tiered(spill: str):
    """Reopen a spill directory written by ``repro ingest``.

    A sharded run leaves ``shard-<i>`` subdirectories under the root;
    a single-store run leaves ``registry.json`` at the root.  Either
    way reopening verifies every cold segment's checksums.
    """
    from repro.datastore.tiers import TieredDataStore

    root = Path(spill)
    return TieredDataStore(spill_dir=root,
                           n_shards=len(list(root.glob("shard-*"))) or 1)


def _emit_tier_summary(summary: dict, as_json: bool,
                       extra: Optional[dict] = None) -> None:
    if as_json:
        payload = dict(summary)
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2, default=str))
        return
    for tier in ("hot", "warm", "cold"):
        row = summary[tier]
        print(f"{tier:5s} {row['segments']:4d} segment(s) "
              f"{row['records']:8d} record(s) {row['bytes']:12d} bytes")
    print(f"compaction debt: {summary['compaction_debt']} op(s)")


def _fluid_engine_from_args(args):
    """Build a fluid engine + ground truth + overlays from CLI args."""
    from repro.events import GroundTruth, add_fluid_event
    from repro.netsim.campus import make_fluid_campus

    engine = make_fluid_campus(
        args.profile, n_users=args.users, seed=args.seed,
        n_cohorts=args.cohorts, tick_seconds=args.tick,
        tap_sample=args.tap_sample)
    ground_truth = GroundTruth()
    attacks = [a for a in args.attack if a in FLUID_ATTACKS]
    skipped = [a for a in args.attack if a not in FLUID_ATTACKS]
    if skipped:
        print(f"ingest: no fluid overlay for {', '.join(skipped)}; "
              f"skipped", file=sys.stderr)
    n = max(len(attacks), 1)
    for i, name in enumerate(attacks):
        start = engine.config.start_time \
            + args.duration * (i + 0.5) / (n + 0.5)
        duration = min(args.duration * 0.15, 60.0)
        add_fluid_event(engine, ground_truth, FLUID_ATTACKS[name],
                        start, duration, seed=args.seed + i)
    return engine, ground_truth


def _cmd_ingest_fluid(args) -> int:
    """The million-user path: fluid tap batches stream straight into
    the tiered store as columns (capture -> bounded queue -> memtable),
    no per-packet record objects until the store wraps them."""
    if args.shards > 1:
        print("ingest: --fluid does not support --shards > 1",
              file=sys.stderr)
        return 2
    from repro.capture.engine import CaptureEngine
    from repro.capture.metadata import MetadataExtractor
    from repro.datastore.tiers import StreamingIngestor, TieredDataStore, \
        TierPolicy

    store = TieredDataStore(
        metadata_extractor=MetadataExtractor(),
        policy=TierPolicy(memtable_records=args.memtable),
        spill_dir=args.spill)
    if args.privacy != "none":
        from repro.privacy import PrivacyLevel, PrivacyPolicy, \
            make_ingest_transform

        level = {p.value: p for p in PrivacyLevel}[args.privacy]
        policy = PrivacyPolicy.preset(level)
        store.add_ingest_transform(make_ingest_transform(
            policy, lambda ip: ip.startswith("10.")))
    capture = CaptureEngine()
    # Not auto-subscribed: a fluid tick batch can dwarf the queue, so
    # the deliverer slices it to queue-sized chunks and pumps between
    # slices — the queue stays bounded without wholesale rejections,
    # and genuine stalls still surface as accounted backpressure.
    ingestor = StreamingIngestor(store, queue_records=args.queue)
    ingestor.engine = capture
    engine, _ = _fluid_engine_from_args(args)
    chunk = max(args.queue, 1)

    def deliver(cols) -> None:
        captured = capture.ingest_columns(cols)
        n = len(captured)
        for lo in range(0, n, chunk):
            ingestor(captured.slice(lo, min(lo + chunk, n)))
            ingestor.pump()

    engine.add_packet_observer(deliver)
    summary_run = engine.run(args.duration)
    ingestor.drain()
    if args.flush_cold:
        store.flush_to_cold()
        store.compactor.run()
    summary = store.tier_summary()
    extra = {
        "users": args.users,
        "flows": summary_run.total_flows,
        "captured": capture.stats.packets_captured,
        "backpressure_dropped":
            capture.stats.packets_backpressure_dropped,
        "queue_accepted": ingestor.queue.accepted_records,
        "queue_rejected": ingestor.queue.rejected_records,
    }
    if args.json:
        _emit_tier_summary(summary, True, extra)
    else:
        print(f"fluid day: {args.users} users, "
              f"{summary_run.total_flows} border flows, "
              f"{capture.stats.packets_captured} packets captured "
              f"({capture.stats.packets_backpressure_dropped} refused "
              f"by the ingest queue)")
        _emit_tier_summary(summary, False)
        if args.spill:
            print(f"cold tier persisted under {args.spill}")
    return 0


def cmd_simulate(args) -> int:
    """Fluid generation only: run the engine, report rates."""
    engine, ground_truth = _fluid_engine_from_args(args)
    packets = 0
    batches = 0

    def count(cols) -> None:
        nonlocal packets, batches
        packets += len(cols)
        batches += 1

    engine.add_packet_observer(count)
    summary = engine.run(args.duration)
    rate = packets / args.duration if args.duration else 0.0
    if args.json:
        print(json.dumps({
            "users": args.users,
            "cohorts": engine.cohorts.n_cohorts,
            "duration_s": args.duration,
            "border_flows": summary.total_flows,
            "tap_flows": summary.total_tap_flows,
            "overlay_flows": summary.overlay_flows,
            "tap_packets": summary.total_packets,
            "bytes_drained": summary.total_bytes,
            "packets_per_sim_second": rate,
            "events": [w.label for w in ground_truth.windows],
        }, indent=2))
    else:
        print(f"{args.users} users -> {engine.cohorts.n_cohorts} cohorts, "
              f"{args.duration:.0f}s simulated")
        print(f"border flows: {summary.total_flows}  "
              f"tap flows: {summary.total_tap_flows}  "
              f"overlay flows: {summary.overlay_flows}  "
              f"tap packets: {summary.total_packets} "
              f"({rate:.0f} pkt/sim-s in {batches} batches)")
        print(f"bytes drained through the uplink model: "
              f"{summary.total_bytes:.3e}")
        for window in ground_truth.windows:
            print(f"event {window.label}: "
                  f"t=[{window.start_time:.0f}, {window.end_time:.0f}]")
    return 0


def cmd_ingest(args) -> int:
    """Stream a simulated day into the tiered store; report the tiers.

    Exit code 0 on success, 2 on malformed arguments (e.g.
    ``--summary-only`` without ``--spill``).
    """
    if getattr(args, "fluid", False) and not args.summary_only:
        return _cmd_ingest_fluid(args)
    if args.summary_only:
        if not args.spill:
            print("ingest: --summary-only needs --spill DIR",
                  file=sys.stderr)
            return 2
        store = _reopen_tiered(args.spill)
        _emit_tier_summary(store.tier_summary(), args.json)
        return 0
    if args.flush_cold and not args.spill:
        print("ingest: --flush-cold needs --spill DIR", file=sys.stderr)
        return 2

    from repro.core import CampusPlatform, PlatformConfig
    from repro.privacy import PrivacyLevel

    level = {p.value: p for p in PrivacyLevel}[args.privacy]
    platform = CampusPlatform(PlatformConfig(
        campus_profile=args.profile, seed=args.seed, privacy_level=level,
        store_shards=args.shards, streaming=True,
        streaming_queue_records=args.queue,
        segment_capacity=args.memtable,
        streaming_spill_dir=args.spill))
    scenario = _scenario_from_args(args)
    result = platform.collect(scenario, seed=args.seed)
    if args.flush_cold:
        platform.store.flush_to_cold()
        platform.store.compactor.run()
    summary = platform.store.tier_summary()
    stats = platform.capture.stats
    queue = platform.ingestor.queue
    extra = {
        "captured": result.packets_captured,
        "backpressure_dropped": stats.packets_backpressure_dropped,
        "queue_accepted": queue.accepted_records,
        "queue_rejected": queue.rejected_records,
    }
    if args.json:
        _emit_tier_summary(summary, True, extra)
    else:
        print(f"captured {result.packets_captured} packets "
              f"({result.capture_loss_rate:.1%} loss, "
              f"{stats.packets_backpressure_dropped} refused by the "
              f"ingest queue)")
        _emit_tier_summary(summary, False)
        if args.spill:
            print(f"cold tier persisted under {args.spill}")
    return 0


def cmd_inspect(args) -> int:
    """Print an exported store's summary as JSON."""
    from repro.datastore import import_store

    store = import_store(args.store)
    print(json.dumps(store.summary(), indent=2, default=str))
    return 0


def _dataset_from_store(store_dir: str, window_s: float, obs=None):
    from repro.datastore import import_store
    from repro.learning.features import FeatureConfig, \
        SourceWindowFeaturizer

    store = import_store(store_dir)
    if obs is not None:
        store.bind_obs(obs)
    featurizer = SourceWindowFeaturizer(FeatureConfig(window_s=window_s))
    if obs is None:
        return featurizer.from_store(store)
    with obs.span("devloop.featurize") as span:
        dataset = featurizer.from_store(store)
        span.set(rows=len(dataset))
    return dataset


def _parse_where(items: List[str]) -> dict:
    """``FIELD=VALUE`` pairs -> a Query.where dict, coercing numbers."""
    where = {}
    for item in items:
        fld, sep, raw = item.partition("=")
        if not sep or not fld:
            raise ValueError(item)
        value: object = raw
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                pass
        where[fld] = value
    return where


def _emit_answer(mode: str, answer, as_json: bool) -> None:
    """Render an AggregateAnswer (plus its plan's prune summary)."""
    plan = answer.plan
    if as_json:
        print(json.dumps({
            "mode": mode, "value": answer.value, "bound": answer.bound,
            "source": answer.source, "segments_scanned": plan.scanned,
            "segments_pruned": plan.pruned,
        }, indent=2, default=str))
        return
    if mode == "top":
        for value, count in answer.value:
            print(f"{count:>10d}  {value}")
        print(f"(source: {answer.source}, bound ±{answer.bound})")
    else:
        print(f"{mode}: {answer.value} ±{answer.bound} "
              f"(source: {answer.source})")
    pruned = sum(plan.pruned.values())
    print(f"segments: {plan.scanned} scanned, {pruned} pruned")


def cmd_query(args) -> int:
    """Planned query against an exported store.

    ``--explain`` prints the plan without executing.  Exit code 0 on a
    rendered answer, 2 on malformed arguments.
    """
    from repro.datastore import Query, import_store, within

    try:
        where = _parse_where(args.where)
    except ValueError as exc:
        print(f"query: malformed --where {exc.args[0]!r} "
              f"(want FIELD=VALUE)", file=sys.stderr)
        return 2
    modes = [m for m, on in [("count", args.count),
                             ("distinct", args.distinct),
                             ("top", args.top)] if on]
    if len(modes) > 1:
        print("query: --count, --distinct and --top are mutually "
              "exclusive", file=sys.stderr)
        return 2
    mode = modes[0] if modes else "records"

    time_range = None
    if args.since is not None or args.until is not None:
        time_range = (args.since, args.until)
    query = Query(
        collection=args.collection, time_range=time_range, where=where,
        limit=args.limit if mode == "records" else None,
        approx=within(args.approx) if args.approx is not None else None)

    store = import_store(args.store)
    if not args.no_stats:
        store.build_stats()

    if args.explain:
        print(store.explain(query))
        return 0
    if mode == "count":
        _emit_answer("count", store.count_matching(query), args.json)
    elif mode == "distinct":
        _emit_answer("distinct", store.distinct_count(query, args.distinct),
                     args.json)
    elif mode == "top":
        _emit_answer("top", store.heavy_hitters(query, args.top, k=args.k),
                     args.json)
    else:
        import dataclasses

        from repro.datastore.schema import SCHEMAS

        time_of = SCHEMAS[args.collection].time_of
        records = store.query(query)
        if args.json:
            print(json.dumps(
                [{"rid": s.rid, "time": time_of(s.record),
                  "tags": s.tags, "label": s.label,
                  "record": dataclasses.asdict(s.record)}
                 for s in records],
                indent=2, default=str))
        else:
            for stored in records:
                print(f"rid={stored.rid} t={time_of(stored.record):.3f} "
                      f"{stored.record}")
            print(f"({len(records)} record(s))")
    return 0


def cmd_train(args) -> int:
    """Featurize an exported store and train/evaluate a model."""
    from repro.learning import train_and_evaluate, train_test_split

    obs = _obs_or_none(args)
    dataset = _dataset_from_store(args.store, args.window, obs=obs)
    print(f"dataset: {len(dataset)} windows, "
          f"classes {dataset.class_counts()}")
    if args.positive:
        dataset = dataset.binarize(args.positive)
    if len(dataset) < 10:
        print("not enough windows to train", file=sys.stderr)
        return 1
    train, test = train_test_split(dataset, test_fraction=0.3, seed=0)
    if obs is None:
        result = train_and_evaluate(args.model, train, test)
    else:
        with obs.span("devloop.train", model=args.model,
                      rows=len(train)):
            result = train_and_evaluate(args.model, train, test)
    print(result)
    if obs is not None:
        _write_obs(obs, {"command": "train", "model": args.model,
                         "rows": len(dataset)}, args.obs)
    return 0


def cmd_develop(args) -> int:
    """Run the development loop and emit deployable artifacts."""
    from repro.core import DevelopmentLoop

    obs = _obs_or_none(args)
    dataset = _dataset_from_store(args.store, 5.0, obs=obs)
    if args.positive not in dataset.class_names:
        known = ", ".join(dataset.class_names)
        print(f"class {args.positive!r} not in store (has: {known})",
              file=sys.stderr)
        return 1
    dataset = dataset.binarize(args.positive)
    loop = DevelopmentLoop(teacher_name=args.teacher,
                           student_max_depth=args.max_depth, obs=obs)
    tool, report = loop.develop(dataset, tool_name="cli-tool", seed=0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tool.p4").write_text(tool.p4_source)
    (out / "rules.txt").write_text(tool.rules.render() + "\n")
    print(f"teacher: {report.teacher_result.metrics}")
    print(f"student fidelity: {report.holdout_fidelity.label_fidelity:.3f} "
          f"({report.distillation.n_leaves} leaves)")
    print(f"switch fit: {report.resource_fit.fits} "
          f"(TCAM {report.resource_fit.tcam_fraction:.1%})")
    print(f"wrote {out / 'tool.p4'} and {out / 'rules.txt'}")
    if obs is not None:
        _write_obs(obs, {"command": "develop", "teacher": args.teacher,
                         "rows": len(dataset)}, args.obs)
    return 0


def cmd_verify(args) -> int:
    """Static verification: compiled-program checks or the AST lint.

    Exit code 0 when no error-level diagnostics were found, 1
    otherwise — the contract CI and pre-deploy scripts rely on.
    """
    from repro.verify import ProgramVerificationError, lint_package, \
        lint_path, update_baseline

    if args.update_baseline and not args.lint:
        print("verify: --update-baseline requires --lint",
              file=sys.stderr)
        return 2
    if args.lint:
        if args.path:
            root = Path(args.path)
            if not root.is_dir():
                print(f"verify: lint path {args.path!r} is not a "
                      f"directory", file=sys.stderr)
                return 2
        else:
            root = None
        if args.update_baseline:
            count = update_baseline(root)
            print(f"verify: baseline updated ({count} entries)")
            return 0
        report = lint_path(root) if root is not None else lint_package()
    else:
        if not args.store or not args.positive:
            print("verify: either --lint or both --store and --positive "
                  "are required", file=sys.stderr)
            return 2
        from repro.core import DevelopmentLoop

        dataset = _dataset_from_store(args.store, 5.0)
        if args.positive not in dataset.class_names:
            known = ", ".join(dataset.class_names)
            print(f"class {args.positive!r} not in store (has: {known})",
                  file=sys.stderr)
            return 1
        dataset = dataset.binarize(args.positive)
        loop = DevelopmentLoop(teacher_name=args.teacher,
                               student_max_depth=args.max_depth,
                               strict_verify=False)
        _, devreport = loop.develop(dataset, tool_name="verify-tool",
                                    seed=0)
        report = devreport.verification

    _emit_report(report, args.json)
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    """Run a scenario under a fault plan; print the degradation report.

    Exit code 0 when the pipeline still produced a report (possibly
    degraded), 1 when it could not complete, 2 on an unknown plan.
    """
    from repro.chaos import FAULT_PLANS
    from repro.chaos.scenario import run_chaos_scenario

    if args.plan not in FAULT_PLANS:
        known = ", ".join(sorted(FAULT_PLANS))
        print(f"chaos: unknown fault plan {args.plan!r}; one of {known}",
              file=sys.stderr)
        return 2
    report = run_chaos_scenario(args.plan, profile=args.profile,
                                seed=args.seed, duration_s=args.duration)
    _emit_report(report, args.json)
    return 0 if report.completed else 1


_FED_ATTACK_ROTATION = ("dns-amp", "scan", "synflood")


def _fed_site_plan(args, site_id: int):
    """Resolve the chaos plan one federated site runs under."""
    from repro.chaos import FAULT_PLANS, make_fault_plan
    from repro.chaos.faults import FaultKind, FaultPlan, FaultSpec

    if getattr(args, "kill_site", None) is not None \
            and args.kill_site == site_id:
        return FaultPlan(name="kill-site", seed=args.seed, specs=(
            FaultSpec(FaultKind.SITE_OUTAGE, rate=1.0),))
    if args.fault_plan is None:
        return None
    if args.fault_plan not in FAULT_PLANS:
        known = ", ".join(sorted(FAULT_PLANS))
        raise KeyError(f"unknown fault plan {args.fault_plan!r}; "
                       f"one of {known}")
    return make_fault_plan(args.fault_plan, seed=args.seed)


def cmd_federate_query(args) -> int:
    """One federated aggregate across N simulated campuses.

    Exit code 0 for a merged answer (possibly degraded/partial), 1
    when quorum was lost, 2 on bad arguments.
    """
    import json as json_module

    from repro.datastore import Query
    from repro.federation import (CampusSite, FederationConfig,
                                  FederationCoordinator, QuorumLost)

    obs = _obs_or_none(args)
    config = FederationConfig(n_sites=args.sites, seed=args.seed,
                              epsilon_total=args.budget,
                              duration_s=args.duration)
    try:
        sites = [
            CampusSite(spec, config,
                       attacks=(_FED_ATTACK_ROTATION[
                           i % len(_FED_ATTACK_ROTATION)],),
                       fault_plan=_fed_site_plan(args, i), obs=obs)
            for i, spec in enumerate(config.site_specs())
        ]
    except KeyError as exc:
        print(f"federate: {exc}", file=sys.stderr)
        return 2
    coordinator = FederationCoordinator(sites, config, obs=obs)
    try:
        for site in sites:
            site.run_day()
        query = Query(collection=args.collection)
        if args.kind == "count":
            answer = coordinator.query_count(query, epsilon=args.epsilon)
            merged = {"value": answer.value, "bound": answer.bound}
        elif args.kind == "histogram":
            answer = coordinator.query_histogram(query, args.field,
                                                 epsilon=args.epsilon)
            merged = {"bins": [[v, c] for v, c in answer.bins]}
        else:
            answer = coordinator.query_heavy_hitters(
                query, args.field, k=args.top, epsilon=args.epsilon)
            merged = {"bins": [[v, c] for v, c in answer.bins]}
    except QuorumLost as exc:
        print(f"federate: {exc}", file=sys.stderr)
        return 1
    summary = {
        "kind": args.kind,
        "collection": args.collection,
        "confidence": answer.confidence,
        "n_sites": answer.n_sites,
        "n_answered": answer.n_answered,
        "quorum": config.quorum,
        "degraded": answer.degraded,
        "unavailable": [list(pair) for pair in answer.unavailable],
        "budget": coordinator.budget_summary(),
        "degradations": [
            f"{d.stage}/{d.mode}: {d.reason}"
            for d in coordinator.ledger.entries],
        **merged,
    }
    if args.json:
        print(json_module.dumps(summary, indent=2, default=str))
    else:
        if args.kind == "count":
            print(f"federated count({args.collection}) = "
                  f"{answer.value:.1f} ± {answer.bound:.1f} "
                  f"at {answer.confidence:.0%} confidence")
        else:
            print(f"federated {args.kind}({args.collection}."
                  f"{args.field}) at {answer.confidence:.0%} "
                  f"confidence (per-value ± "
                  f"{answer.per_value_bound:.1f}):")
            for value, count in answer.bins:
                print(f"  {value!s:24s} {count:12.1f}")
        state = "degraded" if answer.degraded else "complete"
        print(f"sites: {answer.n_answered}/{answer.n_sites} answered "
              f"(quorum {config.quorum}) — {state}")
        for name, reason in answer.unavailable:
            print(f"  unavailable: {name} ({reason})")
        for entry in coordinator.budget_summary():
            print(f"  budget {entry['site']}: {entry['spent']:.2f} "
                  f"spent / {entry['total_epsilon']:.2f} total "
                  f"({entry['refused']} refused)")
    if obs is not None:
        _write_obs(obs, {"command": "federate-query",
                         "sites": args.sites, "seed": args.seed},
                   args.obs)
    return 0


def cmd_federate_e2e(args) -> int:
    """Full federated development run: assemble→develop→road-test.

    Exit code 0 when the cross-site model beats every single-site
    model on the held-out campus, 1 otherwise (or on lost quorum), 2
    on bad arguments.
    """
    import json as json_module

    from repro.federation import (FederatedExperiment, FederationConfig,
                                  QuorumLost)

    obs = _obs_or_none(args)
    config = FederationConfig(n_sites=args.sites, seed=args.seed,
                              epsilon_total=args.epsilon,
                              duration_s=args.duration)
    try:
        plan = _fed_site_plan(args, -1) if args.fault_plan else None
    except KeyError as exc:
        print(f"federate: {exc}", file=sys.stderr)
        return 2
    experiment = FederatedExperiment(config, model_name=args.model,
                                     fault_plan=plan, obs=obs)
    try:
        report = experiment.run(roadtest=not args.no_roadtest)
    except QuorumLost as exc:
        print(f"federate: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2,
                                default=str))
    else:
        print(f"federated model (macro-F1 on {report.holdout_site}): "
              f"{report.federated_f1:.3f}")
        for site, score in sorted(report.single_site_f1.items()):
            print(f"  single-site {site}: {score:.3f}")
        verdict = "beats" if report.federation_wins else \
            "does NOT beat"
        print(f"federation {verdict} the best single campus "
              f"({report.best_single_f1:.3f})")
        if report.assembly is not None:
            print(f"assembled {report.assembly.rows} sanitized rows "
                  f"from {report.assembly.n_answered}/"
                  f"{report.assembly.n_sites} sites "
                  f"(suppressed: {report.assembly.suppressed_per_site})")
        for roadtest in report.roadtests:
            outcome = "deployed" if roadtest.deployed else \
                f"rolled back at {roadtest.rolled_back_at}"
            print(f"  road-test {roadtest.site}: {outcome} "
                  f"(precision {roadtest.precision:.2f}, "
                  f"recall {roadtest.recall:.2f})")
        if report.roadtests:
            print(f"road-test F1 divergence across sites: "
                  f"{report.roadtest_divergence:.3f}")
        for line in report.degradations:
            print(f"  degraded: {line}")
    if obs is not None:
        _write_obs(obs, {"command": "federate-e2e",
                         "sites": args.sites, "seed": args.seed},
                   args.obs)
    return 0 if report.federation_wins else 1


def cmd_federate(args) -> int:
    """Dispatch ``repro federate <query|e2e>``."""
    if args.federate_command == "query":
        return cmd_federate_query(args)
    return cmd_federate_e2e(args)


def cmd_obs(args) -> int:
    """Per-stage latency/throughput report from recorded observability.

    Exit code 0 on a rendered report, 1 when neither ``--run`` nor
    ``--pipeline`` was requested, 2 on malformed or missing input.
    """
    from repro.obs.export import ObsFormatError, obs_records, \
        read_jsonl, registry_from_records, render_prometheus, write_jsonl
    from repro.obs.report import ObsReport

    if args.run:
        try:
            records = read_jsonl(args.run)
        except ObsFormatError as exc:
            print(f"obs: malformed records in {args.run!r}: {exc}",
                  file=sys.stderr)
            return 2
    elif args.pipeline:
        from repro.obs.pipeline import run_observed_pipeline

        obs, meta = run_observed_pipeline(
            profile=args.profile, duration_s=args.duration,
            seed=args.seed, shards=args.shards)
        records = obs_records(obs, meta)
        if args.out:
            write_jsonl(records, args.out)
            print(f"wrote observability records to {args.out}",
                  file=sys.stderr)
    else:
        print("obs: pass --run PATH (recorded file) or --pipeline "
              "(run one observed day)", file=sys.stderr)
        return 1
    if args.prom:
        print(render_prometheus(registry_from_records(records)), end="")
        return 0
    _emit_report(ObsReport.from_records(records), args.json)
    return 0


def cmd_report(args) -> int:
    """Render the IT-style Markdown report for a store."""
    from repro.analysis import generate_report
    from repro.datastore import import_store

    store = import_store(args.store)
    print(generate_report(store).render())
    return 0


def cmd_profiles(args) -> int:
    """List available campus profiles."""
    from repro.netsim.campus import CAMPUS_PROFILES

    for name, profile in sorted(CAMPUS_PROFILES.items()):
        print(f"{name:12s} {profile.description}")
    return 0


def cmd_scenarios(args) -> int:
    """List canned scenario-library entries."""
    from repro.events.library import SCENARIO_LIBRARY

    for name, factory in sorted(SCENARIO_LIBRARY.items()):
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"{name:12s} {doc}")
    return 0


_COMMANDS = {
    "run-day": cmd_run_day,
    "ingest": cmd_ingest,
    "simulate": cmd_simulate,
    "inspect": cmd_inspect,
    "query": cmd_query,
    "train": cmd_train,
    "develop": cmd_develop,
    "verify": cmd_verify,
    "chaos": cmd_chaos,
    "federate": cmd_federate,
    "obs": cmd_obs,
    "report": cmd_report,
    "profiles": cmd_profiles,
    "scenarios": cmd_scenarios,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
