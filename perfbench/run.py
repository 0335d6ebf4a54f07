"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: ``cli-evaluate``,
``sweep-sampling``, ``sweep-builds``, ``service-fleet`` (see
``perfbench/README.md``).  The command sets up (several times, for a
median ``setup_s``), runs the workload's closed loop for ``--seconds``,
checks the outputs, and prints a report whose last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` the loop runs half untraced and half with spans
around every layer, and the metrics are the per-layer ones plus the
tracing overhead.  The exit code is non-zero when any output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from typing import Any, Callable

import workloads
from workloads import HERE, ROOT, Op, child_env

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Operations per untraced run at least, so the tail percentile has ten
#: samples beyond it.
MIN_OPS = 11
#: Operations per half of a traced run at least.
TRACED_MIN_OPS = 5
#: Fresh interpreters per import measurement.
IMPORT_REPEATS = 3


def closed_loop(workload: Any, first_index: int, seconds: float,
                min_ops: int, before_op: Callable[[int], None]
                ) -> list[Op]:
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ops) < min_ops:
        index = first_index + len(ops)
        before_op(index)
        ops.append(workload.op(index))
    return ops


def timed_runs(argv: list[str], repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                       check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


def import_probe() -> dict[str, float]:
    """``import repro.__main__`` in fresh interpreters, less a bare
    interpreter, plus the ``-X importtime`` breakdown (medians)."""
    bare = statistics.median(timed_runs(["-c", "pass"], IMPORT_REPEATS))
    full = statistics.median(timed_runs(
        ["-c", "import repro.__main__"], IMPORT_REPEATS))
    parts: dict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        report = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import repro.__main__"], cwd=ROOT, env=child_env(),
            check=True, capture_output=True, text=True).stderr
        cumulative = {"numpy": 0.0, "networkx": 0.0}
        repro_self = 0.0
        for line in report.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            if name in cumulative:
                cumulative[name] = int(fields[1]) / 1e3
            if name == "repro" or name.startswith("repro."):
                repro_self += int(fields[0]) / 1e3
        parts["numpy"].append(cumulative["numpy"])
        parts["networkx"].append(cumulative["networkx"])
        parts["repro_self"].append(repro_self)
    return {"import.repro_main_ms": (full - bare) * 1e3,
            "import.numpy_ms": statistics.median(parts["numpy"]),
            "import.networkx_ms": statistics.median(parts["networkx"]),
            "import.repro_self_ms": statistics.median(parts["repro_self"])}


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop.  Shared hosts drift by
    tens of percent within a minute; printed beside every result so a
    reader can tell a slow host from a slow program."""
    times = []
    for _ in range(9):
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and its waited children."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def end_to_end(ops: list[Op], failed: set[int], setup_s: float,
               rss_mb: float) -> tuple[dict[str, float], dict[str, Any]]:
    latencies = sorted(op.latency_s for op in ops)
    count = len(latencies)
    # The highest percentile with ten samples beyond it.
    tail_index = count - 11
    verified = sum(op.runs for index, op in enumerate(ops)
                   if index not in failed)
    metrics = {
        "setup_s": setup_s,
        "runs_per_s": verified / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": latencies[tail_index] * 1e3,
        "first_record_p50_ms": statistics.median(
            op.first_s for op in ops) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    notes = {"latency_tail_percentile": 100.0 * (tail_index + 1) / count,
             "latency_samples": count,
             "failed_ratio": len(failed) / count}
    return metrics, notes


def per_layer(profile: Any, ops: list[Op], plain: list[Op],
              imports: dict[str, float]) -> dict[str, float]:
    """Per-operation layer numbers from the traced half of a run."""
    count = len(ops)
    runs = sum(op.runs for op in ops)
    stat = defaultdict(float)
    for op in ops:
        for key, value in op.stats.items():
            stat[key] += value
    stat["slots_s"] = sum(op.stats.get("wall_s", 0.0)
                          * op.stats.get("jobs", 1) for op in ops)
    counters = profile.counters

    def calls(name: str) -> float:
        return profile.calls[name] / count

    def busy_ms(name: str) -> float:
        return profile.busy_s[name] * 1e3 / count

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fresh = runs - stat["cached"]
    service = "cache_hits" in stat
    # A journal compaction shrinks the file: leave those fleets out.
    grown = [op for op in ops if op.stats.get("journal_bytes", -1) >= 0]
    return {
        **imports,
        "scenarios.build.calls": calls("scenarios.build"),
        "scenarios.build.busy_ms": busy_ms("scenarios.build"),
        "scenarios.spec_json.busy_ms": busy_ms("scenarios.spec_json"),
        "scenarios.build_key.busy_ms": busy_ms("scenarios.build_key"),
        "kernel.precompute.calls": calls("kernel.precompute"),
        "kernel.precompute.busy_ms": busy_ms("kernel.precompute"),
        "kernel.sample.calls": calls("kernel.sample"),
        "kernel.sample.busy_ms": busy_ms("kernel.sample"),
        "kernel.sample.ms_per_run": ratio(
            profile.busy_s["kernel.sample"] * 1e3,
            profile.calls["kernel.sample"]),
        "kernel.block_reuse_ratio": ratio(counters["kernel.cells_reused"],
                                          counters["kernel.cells_needed"]),
        "core.compile.calls": calls("core.compile"),
        "core.compile.busy_ms": busy_ms("core.compile"),
        "core.evaluate.self_ms": profile.self_s["core.evaluate"] * 1e3
        / count,
        "core.evaluation.run_ms": busy_ms("core.evaluation.run"),
        "fleet.compiled.builds": counters["fleet.compiled.builds"] / count,
        "fleet.compiled.hits": counters["fleet.compiled.hits"] / count,
        "fleet.compiled.get_ms": busy_ms("fleet.compiled.get"),
        "fleet.executor.busy_ms": stat["busy_s"] * 1e3 / count,
        "fleet.executor.utilisation": ratio(stat["busy_s"],
                                            stat["slots_s"]),
        "fleet.executor.overhead_ms_per_run": ratio(
            (stat["slots_s"] - stat["busy_s"]) * 1e3, runs)
        if stat["slots_s"] else 0.0,
        "fleet.expand_ms": busy_ms("fleet.expand"),
        "fleet.store.write_ms": busy_ms("fleet.store.write"),
        "fleet.store.bytes_per_run": ratio(counters["fleet.store.bytes"],
                                           counters["fleet.store.records"]),
        "fleet.cache.hits": stat["cache_hits"] / count,
        "fleet.cache.misses": stat["cache_misses"] / count,
        "fleet.cache.hit_ratio": ratio(
            stat["cache_hits"], stat["cache_hits"] + stat["cache_misses"]),
        "service.submit_ms": busy_ms("service.submit"),
        "service.submit_bytes": counters["service.submit_bytes"] / count,
        "service.poll.calls": calls("service.poll"),
        "service.poll.idle_ms": counters["service.poll.idle_s"] * 1e3
        / count,
        "service.worker.eval_ms_per_run": ratio(stat["eval_s"] * 1e3, fresh)
        if service else 0.0,
        "service.overhead_ms_per_run": ratio(
            (stat["wall_s"] - stat["eval_s"]) * 1e3, runs)
        if service else 0.0,
        "service.journal.bytes_per_run": ratio(
            sum(op.stats["journal_bytes"] for op in grown),
            sum(op.runs for op in grown)),
        "service.journal.entries_per_run": ratio(stat["journal_entries"],
                                                 runs),
        "service.requeues": stat["requeues"] / count,
        # The untraced baseline leaves out the golden operations, which
        # every run starts with and which cost more than the rest.
        "trace.overhead_ms": (
            statistics.median(op.latency_s for op in ops)
            - statistics.median(op.latency_s for op
                                in plain[len(workloads.CITIES):])) * 1e3,
    }


def machine() -> dict[str, Any]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "networkx": version("networkx"),
            "platform": platform.platform()}


def measure(name: str, seed: int, seconds: float, trace: bool,
            scratch: Path) -> tuple[dict[str, Any], int]:
    host_before = host_loop_ms()
    workload = workloads.WORKLOADS[name](seed, scratch)
    # Untimed: byte-compile the package and warm the page cache, so no
    # run pays a first-checkout cost the next one does not.
    timed_runs(["-c", "import repro.__main__"], 1)

    def untraced(index: int) -> None:
        pass

    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
        setup_s = statistics.median(setups)
        if not trace:
            plain = closed_loop(workload, 0, seconds, MIN_OPS, untraced)
        else:
            import tracing

            plain = closed_loop(workload, 0, seconds / 2, TRACED_MIN_OPS,
                                untraced)
            spans = scratch / "spans"
            spans.mkdir()
            os.environ[tracing.SPANS_ENV] = str(spans)
            tracing.install()
            workload.start_tracing(HERE / "launcher.py")
            tracing.TRACER.drain()

            def label(index: int) -> None:
                tracing.TRACER.run_id = f"op{index}"

            traced = closed_loop(workload, len(plain), seconds / 2,
                                 TRACED_MIN_OPS, label)
    finally:
        workload.close()
    rss_mb = peak_rss_mb()
    host = [host_before, host_loop_ms()]
    if trace:
        # Before the checks, whose oracle runs would add spans.
        profile = tracing.Profile()
        profile.add(tracing.TRACER.drain())
        tracing.collect(spans, profile)
        metrics = per_layer(profile, traced, plain, import_probe())
    ops = plain + traced if trace else plain
    problems = workload.verify(ops, random.Random(seed))
    report: dict[str, Any] = {"workload": name, "seed": seed,
                              "seconds": seconds, "trace": int(trace),
                              "machine": machine(),
                              "host_loop_ms": host,
                              "setup_s_samples": setups,
                              "problems": {str(k): v for k, v
                                           in sorted(problems.items())}}
    if not trace:
        metrics, notes = end_to_end(ops, set(problems), setup_s, rss_mb)
        report.update(notes)
    report["metrics"] = metrics
    return report, len(ops)


def unit(metric: str) -> str:
    """The unit a metric name ends in; plain counts otherwise."""
    last = metric.rsplit(".", 1)[-1]
    if metric == "setup_s":
        return "s"
    if metric == "runs_per_s":
        return "1/s"
    if metric == "peak_rss_mb":
        return "MB"
    if last.endswith("_ms") or last.startswith("ms_") or "_ms_" in last:
        return "ms"
    if "bytes" in last:
        return "bytes"
    if last.endswith("ratio") or last == "utilisation":
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "repro" / "__main__.py").is_file():
        print(f"error: no program source under {workloads.SRC}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.setup_probe:
        # What a fresh process does before its first fleet.
        workloads.WORKLOADS[args.workload](args.seed, Path())
        return 0

    scratch_root = ROOT / ".perfbench_tmp"
    scratch = scratch_root / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        report, attempted = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    failed = len(report["problems"])
    # The failure ratio is shown with the metrics but left out of the
    # result line: it is zero on every good run.
    shown = dict(report["metrics"])
    if "failed_ratio" in report:
        shown["failed_ratio"] = report.pop("failed_ratio")
    for key, value in report.items():
        if key != "metrics":
            print(f"{key}: {json.dumps(value)}")
    for metric, value in shown.items():
        print(f"  {metric:40s} {value:14.4f} {unit(metric)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit(metric)}
                    for metric, value in report["metrics"].items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
