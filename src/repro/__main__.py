"""Command-line interface: ``python -m repro <command>``.

Commands
--------
evaluate      run the Section IV campaign, print Fig. 2/3, Table I and
              the gap analysis (``--scenario NAME`` or ``--spec FILE``
              picks the world; default klagenfurt)
scenarios     list registered scenarios, or dump one as JSON
sweep         run a parameter sweep / multi-seed fleet over scenario
              specs (``--set path=v1,v2,...`` per axis, ``--seeds``,
              ``--backend``, ``--jobs``, ``--cache``, ``--out``;
              ``--resume`` finishes an interrupted fleet directory;
              ``--backend remote --server URL`` executes on a fleet
              service's workers)
serve         run the fleet service: an HTTP control plane (scenario
              registry, fleet submission, NDJSON progress streams,
              compare reports, worker lease/result plane) over one
              shared result cache, with periodic cache GC
worker        lease runs from a fleet service and evaluate them via
              the compiled/batch path, posting records back
cache         inspect (``cache stats``) or garbage-collect
              (``cache gc --max-bytes --max-age``) a shared cache
              directory, both result and compiled tiers
compare       align two or more fleet directories (or result caches)
              by run content identity and print per-variant metric
              deltas (``--baseline``, ``--csv``, ``--json``;
              ``--fail-on METRIC:PCT`` gates CI with a nonzero exit)
lint          statically check the determinism contracts (REP001..
              REP006: ambient randomness, wall-clock reads, unordered
              iteration, SIMD transcendentals, frozen-spec mutation,
              executor payloads) and the thread-safety contracts
              (REP101..REP106: guarded attributes, blocking under
              locks, shared mutable class state, thread daemon flags,
              lock ordering, executor-boundary cache mutation) against
              ``[tool.repro-lint]`` and the committed baseline; exit 1
              on any new finding (``--select``/``--ignore`` filter by
              code or family, ``--explain REPxxx`` documents one rule)
peering       run the Section V-A local-peering what-if (Klagenfurt
              only: ``--scenario``/``--spec`` are rejected)
upf           run the Section V-B UPF placement comparison
cpf           run the Section V-C control-plane comparison
requirements  print the Section III requirements matrix
upgrade       run the Section VI 6G upgrade arms (Klagenfurt only, as
              ``peering``)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__

# Each command imports what it uses, so a cold start pays only for the
# command it runs.


def _print_error(exc: Exception) -> None:
    """Report bad user input as one ``error:`` line on stderr."""
    # A KeyError's str() quotes its message; print the message itself.
    message = exc.args[0] if isinstance(exc, KeyError) else exc
    print(f"error: {message}", file=sys.stderr)


def _resolve_spec(args: argparse.Namespace):
    """The selected spec, or a clean CLI error for bad user input."""
    from . import scenarios

    try:
        if args.spec:
            return scenarios.load_spec(args.spec)
        return scenarios.get(args.scenario)
    except (KeyError, OSError, TypeError, ValueError) as exc:
        _print_error(exc)
        return None


def _klagenfurt_only(args: argparse.Namespace) -> bool:
    """Whether no other world was selected; reports the error if one
    was.  The what-ifs name Klagenfurt's nodes and factory flags."""
    if args.scenario == "klagenfurt" and not args.spec:
        return True
    _print_error(ValueError(f"{args.command} studies Klagenfurt only; "
                            f"it takes no --scenario or --spec"))
    return False


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .core import InfrastructureEvaluation

    scenario = _resolve_spec(args)
    if scenario is None:
        return 2
    try:
        # A spec that loads can still fail to build: an unknown gateway,
        # an unreachable target, a detour loop end off the trace.
        result = InfrastructureEvaluation(seed=args.seed,
                                          scenario=scenario).run()
        detour_km = result.figure4_km()
    except (LookupError, ValueError) as exc:
        _print_error(exc)
        return 2
    print(result.figure2(), end="\n\n")
    print(result.figure3(), end="\n\n")
    print(result.table1(), end="\n\n")
    print(f"Fig. 4 detour: {detour_km:.0f} km\n")
    print(result.gap.summary())
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from . import scenarios
    from .core import render_comparison_table

    if args.scenario != "klagenfurt" or args.spec or args.json:
        # Dump one spec as JSON (default scenario name only with --json).
        spec = _resolve_spec(args)
        if spec is None:
            return 2
        print(spec.to_json())
        return 0
    rows = []
    for name in scenarios.names():
        spec = scenarios.get(name)
        rows.append([name, f"{spec.grid.cols}x{spec.grid.rows}",
                     len(spec.radio.sites), len(spec.systems),
                     len(spec.nodes), spec.description])
    print(render_comparison_table(
        ["scenario", "grid", "sites", "ASes", "nodes", "description"],
        rows, title="Registered scenarios"))
    print("\nrun one:  python -m repro evaluate --scenario NAME")
    print("export:   python -m repro scenarios --scenario NAME --json")
    return 0


def _parse_value(text: str):
    """A ``--set`` value: JSON scalar if it parses, bare string if not."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_seeds(text: str) -> tuple[int, ...]:
    """``"42"``, ``"42,43,44"`` or the range ``"42:46"`` (end exclusive)."""
    text = text.strip()
    if ":" in text:
        start_s, _, stop_s = text.partition(":")
        start, stop = int(start_s), int(stop_s)
        if stop <= start:
            raise ValueError(f"empty seed range {text!r}")
        return tuple(range(start, stop))
    return tuple(int(part) for part in text.split(","))


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import scenarios
    from .fleet import (FleetStore, SweepAxis, SweepSpec, fleet_summary,
                        make_executor, print_progress, run_sweep)

    backend = args.backend
    errors: tuple[type[Exception], ...] = (KeyError, OSError, TypeError,
                                           ValueError)
    if backend == "remote":
        from .service import ServiceError, ServiceUnavailable

        # The one backend with connection state: build it here so the
        # URL travels with it (run_sweep only threads jobs through).
        if not args.server:
            print("error: --backend remote needs --server URL",
                  file=sys.stderr)
            return 2
        backend = make_executor("remote", jobs=args.jobs,
                                server=args.server)
        errors += (ServiceError, ServiceUnavailable)
    cache = args.cache or None
    progress_fn = print_progress if args.progress else None
    try:
        if args.resume:
            if not args.out:
                raise ValueError(
                    "--resume needs --out DIR (the fleet to finish)")
            print(f"resuming {args.out}/ (jobs={args.jobs})")
            result = FleetStore(args.out).resume(
                jobs=args.jobs, executor=backend, cache=cache,
                progress=progress_fn)
            print(f"re-ran {len(result) - result.cached_count} missing "
                  f"runs, reused {result.cached_count}")
        else:
            if args.spec:
                bases = [scenarios.load_spec(args.spec)]
            else:
                bases = [scenarios.get(name.strip())
                         for name in args.scenario.split(",")]
            axes = []
            for setting in args.set or []:
                path, sep, values = setting.partition("=")
                if not sep or not values:
                    raise ValueError(
                        f"--set wants path=v1,v2,..., got {setting!r}")
                axes.append(SweepAxis(
                    path=path.strip(),
                    values=tuple(_parse_value(v)
                                 for v in values.split(","))))
            sweep = SweepSpec(
                bases=tuple(bases), axes=tuple(axes),
                seeds=_parse_seeds(args.seeds),
                mode="zip" if args.zip else "cartesian",
                density=args.density)
            print(f"expanding {sweep.variant_count} variants x "
                  f"{len(sweep.seeds)} seeds = {sweep.run_count} runs "
                  f"(backend={args.backend}, jobs={args.jobs})")
            result = run_sweep(sweep, jobs=args.jobs, executor=backend,
                               cache=cache, out=args.out or None,
                               progress=progress_fn)
    except errors as exc:
        _print_error(exc)
        return 2
    print()
    print(fleet_summary(result))
    stats = result.exec_stats
    parts = []
    if "builds_performed" in stats:
        parts.append(f"{stats['builds_performed']} builds performed, "
                     f"{stats['builds_reused']} reused")
    if "result_cache_hits" in stats:
        parts.append(f"{stats['result_cache_misses']} evals computed, "
                     f"{stats['result_cache_hits']} served from cache")
    if parts:
        print("build/eval: " + "; ".join(parts))
    if result.cached_count:
        print(f"cache/resume: {result.cached_count}/{len(result)} "
              f"records reused without recompute")
    if args.out:
        print(f"\nmanifest + per-run records + summary.csv in {args.out}/")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .fleet import compare_paths, comparison_summary, parse_fail_on

    if len(args.paths) < 2:
        print("error: compare needs at least two fleet or cache "
              "directories", file=sys.stderr)
        return 2
    try:
        gates = [parse_fail_on(gate) for gate in args.fail_on or []]
        comparison = compare_paths(args.paths,
                                   baseline=args.baseline or None)
    except (FileNotFoundError, KeyError, OSError, TypeError,
            ValueError) as exc:
        _print_error(exc)
        return 2
    if args.json:
        print(comparison.to_json())
    else:
        print(comparison_summary(comparison))
    # Status lines go to stderr so --json/--csv consumers get a clean
    # machine-readable stdout.
    if args.csv:
        print(f"delta rows written to {comparison.to_csv(args.csv)}",
              file=sys.stderr)
    if gates:
        failures = comparison.failures(gates)
        if failures:
            print(f"FAIL: {len(failures)} gate violation(s)",
                  file=sys.stderr)
            for message in failures:
                print(f"  {message}", file=sys.stderr)
            return 1
        print("all gates passed", file=sys.stderr)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import run_lint

    return run_lint(
        args.paths,
        output_format=args.format,
        write_baseline=args.write_baseline,
        no_baseline=args.no_baseline,
        list_rules=args.list_rules,
        select=tuple(args.select),
        ignore=tuple(args.ignore),
        explain=args.explain,
    )


def _parse_bytes(text: str) -> int:
    """A byte budget: plain int or K/M/G-suffixed (``"64M"``)."""
    text = text.strip()
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    suffix = text[-1:].upper()
    if suffix in scale:
        return int(float(text[:-1]) * scale[suffix])
    return int(text)


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import ReproService

    root = args.state or args.root
    if not 0 <= args.port <= 65535:
        print(f"error: --port must be in 0..65535, got {args.port}",
              file=sys.stderr)
        return 2
    try:
        max_bytes = _parse_bytes(args.max_bytes) \
            if args.max_bytes else None
        service = ReproService(
            root,
            host=args.host, port=args.port,
            cache_dir=args.cache or None,
            lease_ttl_s=args.lease_ttl,
            journal_fsync=bool(args.state),
            max_fleets=args.max_fleets,
            max_pending=args.max_pending,
            lease_rate_per_s=args.lease_rate,
            gc_max_bytes=max_bytes,
            gc_max_age_s=args.max_age,
            gc_interval_s=args.gc_interval)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"fleet service on {service.url}  (root {root}/, "
          f"cache {service.cache_dir}/)")
    recovery = service.recovery
    if recovery["fleets"]:
        print(f"journal recovery: {recovery['fleets']} fleet(s), "
              f"{recovery['records']} record(s) restored, "
              f"{recovery['requeued']} run(s) re-queued")
    print(service.last_gc.summary())
    print("submit:  POST /fleets   workers: python -m repro worker "
          f"--server {service.url}")

    def _drain_and_exit(signum: int, frame: object) -> None:
        # Graceful degradation: stop granting leases, let checked-out
        # work ack, sync the journal, exit 0.  Runs on a helper thread
        # because service.stop() joins threads the signal interrupted.
        def _shutdown() -> None:
            print("SIGTERM: draining (no new leases; waiting for "
                  "in-flight results)...")
            service.drain()
            service.httpd.shutdown()
        threading.Thread(target=_shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain_and_exit)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from .service import ServiceUnavailable, run_worker

    if not args.server:
        print("error: worker needs --server URL", file=sys.stderr)
        return 2
    try:
        completed = run_worker(
            args.server,
            worker_id=args.worker_id,
            poll_s=args.poll,
            max_idle_s=args.max_idle,
            max_runs=args.max_runs,
            max_retries=args.max_retries,
            cache_dir=args.cache or None,
            log=print)
    except KeyboardInterrupt:
        return 0
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # A malformed --server URL surfaces from the client as a bare
        # ValueError; fail with a message, not a traceback.
        print(f"error: invalid server URL {args.server!r}: {exc}",
              file=sys.stderr)
        return 2
    print(f"worker done: {completed} runs evaluated")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .fleet import cache_usage, run_gc

    if len(args.paths) != 1 or args.paths[0] not in ("stats", "gc"):
        print("error: usage is 'cache stats' or 'cache gc', with "
              "--cache DIR naming the cache directory",
              file=sys.stderr)
        return 2
    action = args.paths[0]
    directory = args.cache or "result-cache"
    try:
        if action == "stats":
            usage = cache_usage(directory)
            print(json.dumps(usage.to_dict(), indent=2, sort_keys=True)
                  if args.json else usage.summary())
        else:
            max_bytes = _parse_bytes(args.max_bytes) \
                if args.max_bytes else None
            report = run_gc(directory, max_bytes=max_bytes,
                            max_age_s=args.max_age)
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True)
                  if args.json else report.summary())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_peering(args: argparse.Namespace) -> int:
    from . import units
    from .core import LocalPeeringExperiment
    from .scenarios import build, klagenfurt

    if not _klagenfurt_only(args):
        return 2
    outcome = LocalPeeringExperiment(
        build(klagenfurt(), seed=args.seed)).run()
    print(f"AS path {outcome.before_as_path} -> {outcome.after_as_path}")
    print(f"route   {outcome.before_path_km:.0f} km -> "
          f"{outcome.after_path_km:.1f} km")
    print(f"RTT     {units.to_ms(outcome.before_rtt_s):.1f} ms -> "
          f"{units.to_ms(outcome.after_rtt_s):.2f} ms "
          f"({outcome.rtt_reduction_factor:.0f}x)")
    return 0


def cmd_upf(args: argparse.Namespace) -> int:
    from . import units
    from .core import UpfPlacementStudy, render_comparison_table

    study = UpfPlacementStudy()
    rows = [[name, units.to_ms(rtt)] for name, rtt in
            study.compare().items()]
    print(render_comparison_table(
        ["deployment", "service RTT (ms)"], rows,
        title="UPF placement (URLLC profile)"))
    print(f"edge reduction vs 62 ms: "
          f"{100 * study.reduction_vs_measured(units.ms(62.0)):.0f}%")
    return 0


def cmd_cpf(args: argparse.Namespace) -> int:
    from . import units
    from .core import CpfEnhancementStudy, render_comparison_table

    comparisons = CpfEnhancementStudy().compare_all()
    rows = [[c.procedure, units.to_ms(c.centralised_s),
             units.to_ms(c.ric_consolidated_s),
             100 * c.improvement_fraction] for c in comparisons]
    print(render_comparison_table(
        ["procedure", "centralised (ms)", "RIC-consolidated (ms)",
         "improvement (%)"], rows,
        title="Control-plane enhancement"))
    return 0


def cmd_requirements(args: argparse.Namespace) -> int:
    from .apps import all_profiles
    from .core import (FIVE_G_CAPABILITY, SIX_G_CAPABILITY,
                       RequirementsAnalysis, render_comparison_table)

    rows = []
    for capability in (FIVE_G_CAPABILITY, SIX_G_CAPABILITY):
        for verdict in RequirementsAnalysis(capability).judge_all(
                all_profiles()):
            rows.append([verdict.generation, verdict.application,
                         "ok" if verdict.satisfied else "FAIL",
                         verdict.latency_headroom])
    print(render_comparison_table(
        ["generation", "application", "verdict", "latency headroom"],
        rows, title="Requirements analysis (Section III)"))
    return 0


def cmd_upgrade(args: argparse.Namespace) -> int:
    from . import units
    from .core import SixGUpgradeStudy, render_comparison_table

    if not _klagenfurt_only(args):
        return 2
    reports = SixGUpgradeStudy(seed=args.seed,
                               mean_positions_per_cell=2.0).run()
    rows = []
    for name, report in reports.items():
        rows.append([name, units.to_ms(report.mobile_mean_s),
                     "yes" if SixGUpgradeStudy.meets_requirement(report)
                     else "no"])
    print(render_comparison_table(
        ["deployment arm", "campaign mean RTL (ms)", "meets 20 ms"],
        rows, title="6G upgrade study"))
    return 0


COMMANDS = {
    "evaluate": cmd_evaluate,
    "scenarios": cmd_scenarios,
    "sweep": cmd_sweep,
    "serve": cmd_serve,
    "worker": cmd_worker,
    "cache": cmd_cache,
    "compare": cmd_compare,
    "lint": cmd_lint,
    "peering": cmd_peering,
    "upf": cmd_upf,
    "cpf": cmd_cpf,
    "requirements": cmd_requirements,
    "upgrade": cmd_upgrade,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of '6G Infrastructures for Edge AI'")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("command", choices=sorted(COMMANDS),
                        help="which experiment to run")
    parser.add_argument("paths", nargs="*", metavar="DIR",
                        help="with compare: two or more fleet "
                             "directories or result caches (first is "
                             "the baseline unless --baseline is "
                             "given); with lint: files/directories to "
                             "check (default: the configured paths); "
                             "with cache: the action, stats or gc")
    parser.add_argument("--seed", type=int, default=42,
                        help="scenario seed (default 42)")
    parser.add_argument("--scenario", default="klagenfurt",
                        help="registered scenario name (default "
                             "klagenfurt); see the scenarios command")
    parser.add_argument("--spec", default="",
                        help="path to a ScenarioSpec JSON file "
                             "(overrides --scenario)")
    parser.add_argument("--json", action="store_true",
                        help="with scenarios: dump the selected spec "
                             "as JSON; with compare: print the full "
                             "comparison as JSON instead of the table")
    parser.add_argument("--set", action="append", metavar="PATH=V1,V2",
                        help="with sweep: one axis of dotted-path "
                             "override values (repeatable)")
    parser.add_argument("--seeds", default="42",
                        help="with sweep: seed list 'a,b,c' or range "
                             "'a:b' (end exclusive; default 42)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="with sweep: processes the batch backend "
                             "spreads build-key groups over, this one "
                             "included (default 1 = in-process)")
    parser.add_argument("--backend", default="batch",
                        choices=["batch", "serial", "remote"],
                        help="with sweep: execution backend (default "
                             "batch; serial is the one-run-at-a-time "
                             "oracle; remote needs --server)")
    parser.add_argument("--cache", default="", metavar="DIR",
                        help="with sweep/serve/worker: "
                             "content-addressed cache directory; with "
                             "cache: the directory to inspect/collect "
                             "(default result-cache)")
    parser.add_argument("--server", default="", metavar="URL",
                        help="with sweep --backend remote and worker: "
                             "fleet service base URL")
    parser.add_argument("--root", default="fleet-service",
                        metavar="DIR",
                        help="with serve: service state directory for "
                             "fleet outputs (default fleet-service)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="with serve: bind address (default "
                             "127.0.0.1)")
    parser.add_argument("--port", type=int, default=8642,
                        help="with serve: TCP port, 0 = ephemeral "
                             "(default 8642)")
    parser.add_argument("--lease-ttl", type=float, default=60.0,
                        dest="lease_ttl", metavar="SECONDS",
                        help="with serve: worker lease timeout before "
                             "a run is re-queued (default 60)")
    parser.add_argument("--state", default="", metavar="DIR",
                        help="with serve: durable-state mode — use DIR "
                             "as the service root and fsync every "
                             "journal append; a restarted server "
                             "replays the journal and resumes its "
                             "fleets")
    parser.add_argument("--max-fleets", type=int, default=None,
                        dest="max_fleets", metavar="N",
                        help="with serve: refuse new submissions (429) "
                             "while N fleets are already in flight")
    parser.add_argument("--max-pending", type=int, default=None,
                        dest="max_pending", metavar="N",
                        help="with serve: bound the submission queue — "
                             "429 when queued runs would exceed N")
    parser.add_argument("--lease-rate", type=float, default=None,
                        dest="lease_rate", metavar="PER_S",
                        help="with serve: per-worker lease grant rate "
                             "cap, in grants per second")
    parser.add_argument("--max-bytes", default="",
                        dest="max_bytes", metavar="N[K|M|G]",
                        help="with serve/cache gc: evict "
                             "least-recently-used cache entries until "
                             "the combined tiers fit this budget")
    parser.add_argument("--max-age", type=float, default=None,
                        dest="max_age", metavar="SECONDS",
                        help="with serve/cache gc: drop cache entries "
                             "older than this")
    parser.add_argument("--gc-interval", type=float, default=300.0,
                        dest="gc_interval", metavar="SECONDS",
                        help="with serve: seconds between periodic GC "
                             "passes (default 300)")
    parser.add_argument("--worker-id", default="", dest="worker_id",
                        help="with worker: stable identity reported "
                             "to the service (default worker-<pid>)")
    parser.add_argument("--poll", type=float, default=5.0,
                        help="with worker: how long one idle lease "
                             "request waits at the server for work, in "
                             "seconds (a long poll; default 5)")
    parser.add_argument("--max-idle", type=float, default=None,
                        dest="max_idle", metavar="SECONDS",
                        help="with worker: exit after this long "
                             "without work (default: run forever)")
    parser.add_argument("--max-runs", type=int, default=None,
                        dest="max_runs", metavar="N",
                        help="with worker: exit after N completed "
                             "runs (default: unlimited)")
    parser.add_argument("--max-retries", type=int, default=5,
                        dest="max_retries", metavar="N",
                        help="with worker: connection attempts (with "
                             "exponential backoff) per request before "
                             "giving up (default 5)")
    parser.add_argument("--resume", action="store_true",
                        help="with sweep: finish the fleet in --out, "
                             "re-running only missing records")
    parser.add_argument("--progress", action="store_true",
                        help="with sweep: print one done/total line "
                             "per finished run (default quiet)")
    parser.add_argument("--out", default="",
                        help="with sweep: directory for manifest + "
                             "per-run records + CSV")
    parser.add_argument("--density", type=float, default=6.0,
                        help="with sweep: mean drive-test positions "
                             "per cell (default 6)")
    parser.add_argument("--zip", action="store_true",
                        help="with sweep: walk axes in lockstep "
                             "instead of the cartesian product")
    parser.add_argument("--baseline", default="", metavar="DIR",
                        help="with compare: which of the given paths "
                             "is the reference (default: the first)")
    parser.add_argument("--fail-on", action="append", dest="fail_on",
                        metavar="METRIC:PCT",
                        help="with compare: exit 1 if METRIC moves "
                             "more than PCT%% on any common variant, "
                             "or if the variant grids drifted "
                             "(repeatable; metrics: mobile_mean_ms, "
                             "mobile_wired_factor, exceedance_percent, "
                             "detour_km)")
    parser.add_argument("--csv", default="", metavar="FILE",
                        help="with compare: also write the delta rows "
                             "as CSV")
    parser.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="with lint: report format (default text)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="with lint: accept the current findings "
                             "as the committed baseline")
    parser.add_argument("--no-baseline", action="store_true",
                        help="with lint: report every finding, "
                             "ignoring the baseline file")
    parser.add_argument("--list-rules", action="store_true",
                        help="with lint: print the REP rule catalog "
                             "and exit")
    parser.add_argument("--select", action="append", default=[],
                        metavar="RULE",
                        help="with lint: only run these rule codes or "
                             "categories (determinism|concurrency); "
                             "repeatable")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="RULE",
                        help="with lint: skip these rule codes or "
                             "categories; repeatable")
    parser.add_argument("--explain", default=None, metavar="REPxxx",
                        help="with lint: print one rule's contract "
                             "and fix guidance, then exit")
    args = parser.parse_args(argv)
    if args.paths and args.command not in ("compare", "lint", "cache"):
        # The DIR positionals exist for compare and lint alone;
        # swallowing them elsewhere would turn a typo into a
        # silently-defaulted run.
        parser.error(f"unrecognized arguments for {args.command}: "
                     f"{' '.join(args.paths)}")
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
