"""The four workloads: inputs from the workload seed, one closed-loop
operation, and the correctness checks on what the operations returned.

Every workload is a closed loop with one client: the next operation
starts when the previous one has finished.  An operation is one cold
``python -m repro evaluate`` (``cli-evaluate``) or one whole fleet from
its ``run_sweep`` call to its last record (the other three).  Inputs are
a pure function of ``(workload seed, operation index)``; the program
only ever sees the generated specs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``EvaluationSummary.canonical_json()`` SHA-256 at seed 42, density 6
#: — the constants of ``tests/test_golden_digests.py``.
GOLDEN_SHA256 = {
    "klagenfurt":
        "fadf1e06761655ceaa4d88bbdcf49344f7687cb3041cb1a51b514305b7c92add",
    "skopje":
        "226d7020331b6453943c5603a875045d285d9e451a753bc78665e8f7a68a52df",
}
CITIES = ("klagenfurt", "skopje")
GOLDEN_SEED = 42
#: Scenario seeds the sweep fleets cycle through.  The cost of a run
#: depends on its scenario seed (the drive route's sample count), so
#: every benchmark run takes the same mixture of them; the workload
#: seed picks the order and every other input.
SCENARIO_SEEDS = (43, 44, 45, 46, 47, 48, 49, 50)
#: Shadowing deviations (dB) the build-layer axes draw from.
SIGMAS = (3.0, 3.5, 4.5, 5.0, 5.5, 6.5, 7.0, 7.5)
#: Records per benchmark run re-computed by the serial oracle.
ORACLE_SAMPLE = 6
#: Worker processes of ``sweep-builds`` (the reference machine has two
#: cores).
JOBS = 2


def child_env() -> dict[str, str]:
    """Environment of every program subprocess: the checkout's ``src``
    on the path, bytecode caching as a user gets it, unbuffered output
    so the server's URL line arrives at once."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def op_rng(seed: int, index: int) -> random.Random:
    """The generator behind operation ``index`` of a seeded run."""
    return random.Random(seed * 1_000_003 + index)


def city(index: int) -> str:
    """The base of operation ``index``: each city once first (both
    golden runs are inputs), then the paper's city.  One city for all
    later operations keeps their costs alike, so a median does not
    fall between two cities' latencies."""
    return CITIES[index] if index < len(CITIES) else CITIES[0]


def scenario_seed(seed: int, slot: int) -> int:
    """Slot ``slot`` of a seeded rotation of :data:`SCENARIO_SEEDS`."""
    offset = seed % len(SCENARIO_SEEDS)
    return SCENARIO_SEEDS[(offset + slot) % len(SCENARIO_SEEDS)]


def distinct(draw: Any, count: int, start: tuple[Any, ...] = ()
             ) -> tuple[Any, ...]:
    """``start`` extended with fresh ``draw()`` values to ``count``."""
    values = list(start)
    while len(values) < count:
        value = draw()
        if value not in values:
            values.append(value)
    return tuple(values)


def interruption_draw(rng: random.Random) -> float:
    return round(rng.uniform(0.02, 0.2), 3)


def sampling_axes(base: Any, rng: random.Random, seeded_cells: list[str]
                  ) -> tuple[Any, ...]:
    """Four sampling-layer axes, 4 x 2 x 4 x 2 = 64 variants.  Each
    axis starts at the base's own value, so variant 0 is the unmodified
    scenario, and every other value differs from it, so each fleet
    shares blocks in the same pattern."""
    from repro.fleet import SweepAxis

    camp = base.campaign
    anchors = [list(pair) for pair in camp.extra_load_anchors]
    cell = rng.choice(seeded_cells)
    moved = [pair for pair in anchors if pair[0] != cell]
    moved.append([cell, round(rng.uniform(0.05, 0.3), 3)])
    return (
        SweepAxis("campaign.handover_interruption_s", distinct(
            lambda: interruption_draw(rng), 4,
            (camp.handover_interruption_s,))),
        SweepAxis("campaign.max_cell_load",
                  (camp.max_cell_load, rng.choice([0.85, 0.88, 0.9]))),
        SweepAxis("campaign.peers.0.air_load", distinct(
            lambda: round(rng.uniform(0.3, 0.85), 2), 4,
            (camp.peers[0].air_load,))),
        SweepAxis("campaign.extra_load_anchors", (anchors, moved)),
    )


@dataclass
class Op:
    """One finished operation as the client saw it."""

    latency_s: float
    first_s: float           #: until the first record (or stdout byte)
    runs: int                #: runs (evaluations) it completed
    payload: Any = None      #: what the correctness checks read
    #: per-fleet execution numbers for the per-layer metrics
    stats: dict[str, float] = field(default_factory=dict)


# -- sweeps ---------------------------------------------------------------

class SweepWorkload:
    """In-process fleets through ``run_sweep``; subclasses make the sweeps."""

    jobs = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        from repro import scenarios

        self.seed = seed
        self.scratch = scratch
        self.bases = {name: scenarios.get(name) for name in CITIES}
        self.executor: Any = None
        self.sweeps: list[Any] = []
        self.prepare()

    def prepare(self) -> None:
        """Generate what the first fleet needs from the seed."""
        self.sweep(0)

    def setup(self) -> None:
        """A fresh interpreter that imports the fleet layer and prepares
        the first fleet (``run.py --setup-probe``): the work a process
        does before its first ``run_sweep``."""
        subprocess.run([sys.executable, str(HERE / "run.py"),
                        "--workload", self.name, "--seed", str(self.seed),
                        "--setup-probe"], cwd=ROOT, env=child_env(),
                       check=True)

    def sweep(self, index: int) -> Any:
        raise NotImplementedError

    def start_tracing(self, launcher: Path) -> None:
        """Nothing to restart: pool children fork from this process
        with the wrappers installed."""

    def op(self, index: int) -> Op:
        from repro.fleet import run_sweep

        sweep = self.sweep(index)
        out = self.scratch / f"fleet-{index}"
        first: list[float] = []
        started = time.perf_counter()

        def progress(done: int, total: int, record: Any) -> None:
            if not first:
                first.append(time.perf_counter())

        result = run_sweep(sweep, jobs=self.jobs, executor=self.executor,
                           out=str(out), progress=progress)
        latency = time.perf_counter() - started
        shutil.rmtree(out, ignore_errors=True)
        self.sweeps.append(sweep)
        # Keep what the checks read, not every record: the golden
        # fleets whole, one seeded record of any other.
        records = dict(enumerate(result.records))
        if index >= len(CITIES):
            position = random.Random(self.seed * 7919 + index).randrange(
                sweep.run_count)
            records = {position: records.get(position)}
        return Op(latency, first[0] - started, len(result.records),
                  payload=records, stats=self.fleet_stats(result, latency))

    @staticmethod
    def fleet_stats(result: Any, latency: float) -> dict[str, float]:
        busy = sum(result.run_wall_s)
        return {"busy_s": busy, "wall_s": latency, "jobs": result.jobs,
                "cached": result.cached_count,
                "eval_s": sum(wall for wall, cached
                              in zip(result.run_wall_s, result.cached)
                              if not cached)}

    def verify(self, ops: list[Op], rng: random.Random) -> dict[int, str]:
        """Failed operations, by index: a fleet short of records, a
        golden run off its digest, or a seeded sample of records that
        differ, byte for byte, from the ``serial`` backend oracle."""
        from repro.fleet import SerialExecutor

        problems: dict[int, str] = {
            index: f"{op.runs} records for {self.sweeps[index].run_count}"
            for index, op in enumerate(ops)
            if op.runs != self.sweeps[index].run_count}
        golden = 0
        for index in range(min(len(CITIES), len(ops))):
            for run, record in zip(self.sweeps[index].expand(),
                                   ops[index].payload.values()):
                if (run.seed != GOLDEN_SEED
                        or run.scenario != self.bases[run.scenario.name]):
                    continue
                golden += 1
                digest = hashlib.sha256(
                    record.summary.canonical_json().encode()).hexdigest()
                if digest != GOLDEN_SHA256[run.scenario.name]:
                    problems[index] = (f"golden digest of "
                                       f"{run.scenario.name} is {digest}")
        if golden < len(CITIES):
            problems[0] = f"inputs hold {golden} golden runs"
        oracle = SerialExecutor()
        for index in sorted(rng.sample(range(len(ops)),
                                       min(ORACLE_SAMPLE, len(ops)))):
            runs = self.sweeps[index].expand()
            position = max(ops[index].payload) if index < len(CITIES) \
                else next(iter(ops[index].payload))
            expected, = oracle.map([runs[position]])
            got = ops[index].payload[position]
            if got is None or got.to_json() != expected.record.to_json():
                problems[index] = (f"record {position} differs from the "
                                   f"serial oracle")
        return problems

    def close(self) -> None:
        pass


class SweepSampling(SweepWorkload):
    """One base and one seed per fleet, 32 sampling-only variants: one
    build per fleet, then the sampling kernel, block-cache reuse,
    per-cell statistics and the store (``run_sweep`` defaults: the
    ``batch`` backend in-process)."""

    name = "sweep-sampling"

    def prepare(self) -> None:
        from repro.scenarios import build

        # Cells with a seeded extra-load draw (the same for every seed).
        self.seeded = {name: sorted(cell.label for cell in build(
            spec, seed=GOLDEN_SEED).extra_load_draws)
            for name, spec in self.bases.items()}
        super().prepare()

    def sweep(self, index: int) -> Any:
        from repro.fleet import SweepSpec

        name = city(index)
        seed = GOLDEN_SEED if index < len(CITIES) \
            else scenario_seed(self.seed, index)
        return SweepSpec(bases=(self.bases[name],),
                         axes=sampling_axes(self.bases[name],
                                            op_rng(self.seed, index),
                                            self.seeded[name]),
                         seeds=(seed,))


class SweepBuilds(SweepWorkload):
    """Both cities x two seeds x one build-layer axis x a 4-value
    sampling axis: 8 build keys of 4 runs, on the process pool that
    ``--jobs 2`` gives (one pool per fleet)."""

    name = "sweep-builds"
    jobs = JOBS

    def sweep(self, index: int) -> Any:
        from repro.fleet import SweepAxis, SweepSpec

        rng = op_rng(self.seed, index)
        if index == 0:
            # Each city's own defaults, so both golden runs are inputs.
            sigmas = tuple(self.bases[name].radio.shadowing_sigma_db
                           for name in CITIES)
            interruptions = tuple(self.bases[name].campaign
                                  .handover_interruption_s
                                  for name in CITIES)
            seeds = (GOLDEN_SEED, scenario_seed(self.seed, 1))
        else:
            sigmas = interruptions = ()
            seeds = (scenario_seed(self.seed, 2 * index),
                     scenario_seed(self.seed, 2 * index + 1))
        return SweepSpec(
            bases=tuple(self.bases[name] for name in CITIES),
            axes=(SweepAxis("radio.shadowing_sigma_db", distinct(
                      lambda: rng.choice(SIGMAS), 2, sigmas)),
                  SweepAxis("campaign.handover_interruption_s", distinct(
                      lambda: interruption_draw(rng), 4, interruptions))),
            seeds=seeds)


# -- service --------------------------------------------------------------

class Service:
    """``repro serve --port 0`` plus one ``repro worker``, as subprocesses."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        directory.mkdir(parents=True)
        self.server = self._spawn(
            ["-m", "repro", "serve", "--port", "0",
             "--root", str(directory / "root")], "server.log")
        self.worker: Optional[subprocess.Popen[bytes]] = None
        try:
            self.url = self._url()
            self.start_worker()
        except BaseException:
            _stop(self.server)
            raise

    def _spawn(self, args: list[str], log: str) -> subprocess.Popen[bytes]:
        with (self.directory / log).open("ab") as handle:
            return subprocess.Popen([sys.executable] + args, cwd=ROOT,
                                    env=child_env(), stdout=handle,
                                    stderr=subprocess.STDOUT)

    def _url(self) -> str:
        log = self.directory / "server.log"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for line in log.read_text().splitlines():
                if line.startswith("fleet service on "):
                    return line.split()[3]
            if self.server.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"server did not start: {log.read_text()!r}")

    def start_worker(self, launcher: Optional[Path] = None) -> None:
        """A plain worker, or one run through the tracing launcher."""
        args = ([str(launcher)] if launcher else ["-m", "repro"])
        self.worker = self._spawn(args + ["worker", "--server", self.url],
                                  "worker.log")

    def stop_worker(self) -> None:
        if self.worker is not None:
            _stop(self.worker)
            self.worker = None

    def health(self) -> dict[str, Any]:
        with urllib.request.urlopen(self.url + "/healthz",
                                    timeout=30) as response:
            return json.loads(response.read())

    def wait_ready(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if self.health().get("ready"):
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.005)

    def close(self) -> None:
        self.stop_worker()
        _stop(self.server)


def _stop(process: "subprocess.Popen[bytes]") -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


class ServiceFleet(SweepWorkload):
    """32-run fleets over 2 build keys through the ``remote`` backend.

    Every fleet runs the same 16 sampling variants of one city at the
    paper's seed under two shadowing deviations (the build layer): one
    an earlier fleet of that city already ran, so its 16 runs come back
    from the shared result cache, and one new, so its 16 runs are
    leased, evaluated, posted, journaled and cached."""

    name = "service-fleet"

    def prepare(self) -> None:
        self.service: Optional[Service] = None
        self.sigmas = {name: [self.bases[name].radio.shadowing_sigma_db]
                       for name in CITIES}
        self.variants = {name: self._variants(self.bases[name],
                                              op_rng(self.seed, -1))
                         for name in CITIES}
        self.warm_ups = 0

    def setup(self) -> None:
        """A fresh server and worker, up to a ready ``/healthz`` and the
        worker attached (one warm-up run leased, evaluated, posted)."""
        from repro.fleet import make_executor

        if self.service is not None:
            self.service.close()
        self.service = Service(self.scratch / f"service-{self.warm_ups}")
        self.service.wait_ready()
        self.executor = make_executor("remote", server=self.service.url)
        self.warm_up()

    def start_tracing(self, launcher: Path) -> None:
        """Swap the worker for one run through the tracing launcher."""
        assert self.service is not None
        self.service.stop_worker()
        self.service.start_worker(launcher)
        self.warm_up()

    def warm_up(self) -> None:
        """One single-run fleet through the worker, not an operation."""
        from repro.fleet import SweepSpec, run_sweep

        self.warm_ups += 1
        run_sweep(SweepSpec(bases=(self.bases[CITIES[0]],),
                            seeds=(GOLDEN_SEED + self.warm_ups,)),
                  executor=self.executor)

    @staticmethod
    def _variants(base: Any, rng: random.Random) -> list[tuple[Any, ...]]:
        """16 sampling variants (interruption, load cap, peer load),
        the first the base's own."""
        camp = base.campaign
        return [(interruption, cap, air)
                for interruption in distinct(
                    lambda: interruption_draw(rng), 4,
                    (camp.handover_interruption_s,))
                for cap in (camp.max_cell_load, 0.88)
                for air in (camp.peers[0].air_load,
                            round(rng.uniform(0.3, 0.85), 2))]

    def sweep(self, index: int) -> Any:
        from repro.fleet import SweepAxis, SweepSpec

        rng = op_rng(self.seed, index)
        name = city(index)
        sigmas = self.sigmas[name]
        old = rng.choice(sigmas)
        new = distinct(lambda: round(rng.uniform(3.0, 8.0), 3),
                       len(sigmas) + 1, tuple(sigmas))[-1]
        sigmas.append(new)
        variants = self.variants[name]
        columns = list(zip(*variants * 2))
        return SweepSpec(
            bases=(self.bases[name],), mode="zip", seeds=(GOLDEN_SEED,),
            axes=(SweepAxis("radio.shadowing_sigma_db",
                            (old,) * len(variants) + (new,) * len(variants)),
                  SweepAxis("campaign.handover_interruption_s", columns[0]),
                  SweepAxis("campaign.max_cell_load", columns[1]),
                  SweepAxis("campaign.peers.0.air_load", columns[2])))

    def op(self, index: int) -> Op:
        assert self.service is not None
        before = self.service.health()
        op = super().op(index)
        after = self.service.health()
        op.stats.update({
            "cache_hits": after["cache"]["hits"] - before["cache"]["hits"],
            "cache_misses": (after["cache"]["misses"]
                             - before["cache"]["misses"]),
            "journal_bytes": (after["journal"]["bytes"]
                              - before["journal"]["bytes"]),
            "journal_entries": (after["journal"]["entries"]
                                - before["journal"]["entries"]),
            "requeues": (after["queue"]["requeues"]
                         - before["queue"]["requeues"]),
        })
        return op

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


# -- cold CLI -------------------------------------------------------------

class CliEvaluate:
    """Back-to-back cold ``python -m repro evaluate`` subprocesses."""

    name = "cli-evaluate"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.inputs: list[tuple[str, int]] = []
        self.launcher: Optional[Path] = None
        self.env = child_env()

    def setup(self) -> None:
        """A cold CLI that parses its arguments and exits: the fixed
        start-up cost every operation pays before it evaluates."""
        subprocess.run([sys.executable, "-m", "repro", "--version"],
                       cwd=ROOT, env=self.env, check=True,
                       stdout=subprocess.DEVNULL)

    def start_tracing(self, launcher: Path) -> None:
        """Run every later call through the tracing launcher, with the
        spans directory now in the environment."""
        self.launcher = launcher
        self.env = child_env()

    def input(self, index: int) -> tuple[str, int]:
        if index < len(CITIES):
            return CITIES[index], GOLDEN_SEED
        return city(index), scenario_seed(self.seed, index)

    def op(self, index: int) -> Op:
        scenario, seed = self.input(index)
        program = ["-m", "repro"]
        env = self.env
        if self.launcher:
            import tracing

            program = [str(self.launcher)]
            env = {**env, tracing.RUN_ID_ENV: f"op{index}"}
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable] + program + ["evaluate", "--scenario",
                                          scenario, "--seed", str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE)
        assert process.stdout is not None
        head = process.stdout.read(1)
        first = time.perf_counter()
        out = head + process.stdout.read()
        process.stdout.close()
        code = process.wait()
        latency = time.perf_counter() - started
        self.inputs.append((scenario, seed))
        return Op(latency, first - started, 1,
                  payload=(code, out.decode()))

    def verify(self, ops: list[Op], rng: random.Random) -> dict[int, str]:
        """Failed calls, by index: a non-zero exit or no output, a
        golden city whose in-process summary is off its digest, or a
        sampled call whose stdout differs from the same pipeline
        rendered in-process."""
        import repro.__main__ as cli
        from repro.core.evaluation import InfrastructureEvaluation

        problems = {index: f"exit {op.payload[0]}"
                    for index, op in enumerate(ops)
                    if op.payload[0] != 0 or not op.payload[1]}
        for index, name in enumerate(CITIES[:len(ops)]):
            digest = hashlib.sha256(InfrastructureEvaluation(
                seed=GOLDEN_SEED, scenario=name).run().summary()
                .canonical_json().encode()).hexdigest()
            if digest != GOLDEN_SHA256[name]:
                problems[index] = f"golden digest of {name} is {digest}"
        sample = set(range(min(len(CITIES), len(ops))))
        sample |= set(rng.sample(range(len(ops)),
                                 min(ORACLE_SAMPLE, len(ops))))
        for index in sorted(sample):
            scenario, seed = self.inputs[index]
            rendered = io.StringIO()
            with redirect_stdout(rendered):
                cli.main(["evaluate", "--scenario", scenario,
                          "--seed", str(seed)])
            if rendered.getvalue() != ops[index].payload[1]:
                problems[index] = (f"stdout of evaluate --scenario "
                                   f"{scenario} --seed {seed} differs from "
                                   f"the in-process render")
        return problems

    def close(self) -> None:
        pass


WORKLOADS = {
    "cli-evaluate": CliEvaluate,
    "sweep-sampling": SweepSampling,
    "sweep-builds": SweepBuilds,
    "service-fleet": ServiceFleet,
}
