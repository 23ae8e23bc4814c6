"""Wall-clock benchmark of the Check-N-Run simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_ckpt --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --calibrate --seed 7 --seconds 8
    python3 perfbench/run.py --self-test

One run derives several inputs from ``--seed`` and runs them back to
back for ``--seconds`` of wall time, each input in its own child
process (each input of a fleet workload is a fresh fleet;
``restore_chain`` restores from three trained fleets), then runs the
first input once more. Every repeat's simulated report must equal the
one the first repeat of the same input produced. It prints a table of
every metric by name and unit,
an environment line, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with no layer spans
  installed (only completion stamps of work items). A work item is a
  trained batch (fleet workloads), a ``restore_latest`` call
  (``restore_chain``) or a lookup (``serve_lookup``):
  ``throughput_per_s`` counts them per wall second, and
  ``step_p50_ms``/``step_p95_ms`` are percentiles of the wall time
  between consecutive completions (for ``restore_chain``, of each
  call). ``sim_*`` metrics are simulated outcomes fixed by the seed;
* ``--trace 1``: the per-layer metrics. One untraced repeat runs
  first as the reference; then every layer's public functions are
  wrapped in spans and the workload repeats traced. Per-layer values
  are per repeat (mean over traced repeats).

``--calibrate`` checks that the benchmark sees a change in one layer:
it runs ``fleet_ckpt`` and ``restore_chain`` as fresh processes without
a delay and with ``--delay train_step`` (a busy-wait in
``DLRM.train_step``) and ``--delay restore`` (one in
``CheckpointRestorer.restore_with_fallback_steps``), and checks that
each delay moves ``run_wall_s`` of only the workload that runs it.

The exit code is 0 when every output check passed, 1 when one failed
and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced repeats per run, at least (more while ``--seconds`` lasts).
MIN_REPEATS = 3
#: Traced repeats per run, at least.
MIN_TRACED_REPEATS = 2
#: Longest a child process running one input may take.
PART_TIMEOUT_S = 120
#: Set-ups a workload that reuses its set-up cycles over.
SETUPS = 3
#: ``setup_s`` samples per input, when each repeat sets up anew, and
#: the least wall time of one: a sample is the mean of as many
#: back-to-back set-ups of the input as fill it. Fleet and serving
#: set-ups take 20-50 ms, and on a shared 2-CPU host single set-ups ran
#: 1.5 times slower for stretches of 0.2-1 s at a time, so medians of
#: single set-ups jumped between a fast and a slow mode.
SETUP_SAMPLES = 2
SETUP_SAMPLE_S = 0.4
#: Least share of a traced repeat's wall time that the layers below
#: the workload's entry points must explain.
MIN_COVERAGE = 0.95

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Calibration: per delay target, the busy-wait per call and the one
#: workload whose ``run_wall_s`` it must move; the relative change that
#: counts as moved, and the most any other workload may change (the
#: ``run_wall_s`` bound: back-to-back runs of the same code on a
#: 2-CPU box differed by up to 20%).
CALIBRATION = {
    "train_step": (0.003, "fleet_ckpt"),
    "restore": (0.020, "restore_chain"),
}
MOVED = 0.40
UNCHANGED = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_wall_s": "s",
    "throughput_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "peak_rss_mib": "MiB",
    "sim_put_mib": "MiB",
    "sim_peak_stored_mib": "MiB",
}

PER_LAYER_UNITS = {
    "distributed.trainer.self_s": "s",
    "model.dlrm.self_s": "s",
    "data.reader.self_s": "s",
    "core.tracker.self_s": "s",
    "core.snapshot.self_s": "s",
    "core.controller.self_s": "s",
    "core.writer.self_s": "s",
    "quant.wait_s": "s",
    "quant.busy_s": "s",
    "quant.dequant_s": "s",
    "serialize.encode_s": "s",
    "serialize.decode_s": "s",
    "core.restore.self_s": "s",
    "core.restore.plan_s": "s",
    "storage.engine.put_s": "s",
    "storage.engine.get_s": "s",
    "storage.engine.parts": "count",
    "storage.engine.retries": "count",
    "storage.bandwidth.pick_s": "s",
    "storage.bandwidth.calls": "count",
    "fleet.scheduler.self_s": "s",
    "fleet.report_s": "s",
    "replication.self_s": "s",
    "serving.server.lookup_s": "s",
    "serving.server.flip_s": "s",
    "serving.publisher.poll_s": "s",
    "serving.fleet.self_s": "s",
    "serving.fleet.next_event_s": "s",
    "serving.fleet.finish_lookup_s": "s",
    "serving.rowcache.hit_rate": "ratio",
    "fleet.useful_batch_frac": "ratio",
    "fleet.preempted_writes": "count",
    "fleet.scratch_restarts": "count",
    "core.writer.landed_frac": "ratio",
    "sim_ttr_s": "s",
    "sim_wasted_batches": "count",
    "sim_lookup_p99_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

#: Per-layer span self times: metric -> (span name, thread filter).
SPAN_METRICS = {
    "distributed.trainer.self_s": ("distributed.trainer", "all"),
    "model.dlrm.self_s": ("model.dlrm", "all"),
    "data.reader.self_s": ("data.reader", "all"),
    "core.tracker.self_s": ("core.tracker", "all"),
    "core.snapshot.self_s": ("core.snapshot", "all"),
    "core.controller.self_s": ("core.controller", "all"),
    "core.writer.self_s": ("core.writer", "all"),
    "quant.wait_s": ("quant.wait", "main"),
    "quant.busy_s": ("quant.busy", "other"),
    "quant.dequant_s": ("quant.dequant", "all"),
    "serialize.encode_s": ("serialize.encode", "all"),
    "serialize.decode_s": ("serialize.decode", "all"),
    "core.restore.self_s": ("core.restore", "all"),
    "core.restore.plan_s": ("core.restore.plan", "all"),
    "storage.engine.put_s": ("storage.engine.put", "all"),
    "storage.engine.get_s": ("storage.engine.get", "all"),
    "storage.bandwidth.pick_s": ("storage.bandwidth.pick", "all"),
    "fleet.scheduler.self_s": ("fleet.scheduler", "all"),
    "fleet.report_s": ("fleet.report", "all"),
    "replication.self_s": ("replication", "all"),
    "serving.server.lookup_s": ("serving.server.lookup", "all"),
    "serving.server.flip_s": ("serving.server.flip", "all"),
    "serving.publisher.poll_s": ("serving.publisher.poll", "all"),
    "serving.fleet.self_s": ("serving.fleet", "all"),
    "serving.fleet.next_event_s": ("serving.fleet.next_event", "all"),
    "serving.fleet.finish_lookup_s": ("serving.fleet.finish_lookup", "all"),
}


def input_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th input (distinct inputs per repeat
    average the run over several fleets; index 0 is repeated)."""
    return seed * 1000 + index


def digest_key(digest) -> str:
    """Hash of a simulated report's compared fields (a dataclass's
    ``compare=False`` wall-clock fields are left out), so reports can be
    compared across processes."""
    if dataclasses.is_dataclass(digest):
        digest = tuple(
            (f.name, getattr(digest, f.name))
            for f in dataclasses.fields(digest)
            if f.compare
        )
    return hashlib.sha256(repr(digest).encode()).hexdigest()


class Run:
    """Repeats of one workload with their set-up times and checks."""

    def __init__(self, workload, seed: int, probe=None) -> None:
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.setup_times: list[float] = []
        self.outcomes: list = []
        self.mismatches: list[str] = []
        self._first_digest: dict[int, str] = {}

    @property
    def reuses_setup(self) -> bool:
        return getattr(self.workload, "reuses_setup", False)

    def setup(self, index: int, timed: bool = True):
        """Set up input ``index`` and return its state; ``timed`` makes
        the set-up a ``setup_s`` sample."""
        # Collect what earlier repeats left in reference cycles outside
        # the timed region, so no set-up or repeat pays for another's.
        gc.collect()
        began = time.perf_counter()
        state = self.workload.setup(input_seed(self.seed, index))
        if timed:
            self.setup_times.append(time.perf_counter() - began)
        gc.collect()
        return state

    def sample_setups(self, index: int) -> None:
        """Take :data:`SETUP_SAMPLES` ``setup_s`` samples of input
        ``index``, each the mean of the set-ups that fill
        :data:`SETUP_SAMPLE_S`, discarding every state."""
        seed = input_seed(self.seed, index)
        for _ in range(SETUP_SAMPLES):
            gc.collect()
            began = time.perf_counter()
            count = 0
            while count == 0 or time.perf_counter() - began < SETUP_SAMPLE_S:
                self.workload.setup(seed)
                count += 1
            self.setup_times.append((time.perf_counter() - began) / count)
        gc.collect()

    def _check(self, outcome) -> None:
        """The report of input ``outcome.input`` must equal the one its
        first repeat produced."""
        expected = self._first_digest.setdefault(outcome.input, outcome.digest)
        if outcome.digest != expected:
            self.mismatches.append(
                f"input {outcome.input}, repeat {len(self.outcomes)}: "
                "simulated report differs from the first repeat of that input"
            )
        self.outcomes.append(outcome)

    def repeat(self, index: int, state):
        """Run input ``index`` once in this process and check it."""
        outcome = self.workload.run(state, self.probe)
        outcome.input = index
        outcome.digest = digest_key(outcome.digest)
        self._check(outcome)
        return outcome

    def absorb(self, part: dict) -> None:
        """Merge the results a child process printed (see
        :func:`run_part`), checking its reports against earlier ones."""
        self.setup_times += part["setup_times"]
        self.mismatches += part["mismatches"]
        for item in part["outcomes"]:
            self._check(types.SimpleNamespace(**item))

    @property
    def failed_checks(self) -> list[str]:
        return self.mismatches + [
            v for outcome in self.outcomes for v in outcome.violations
        ]

    def attempted_failed(self) -> tuple[int, int]:
        attempted = sum(o.ops for o in self.outcomes)
        failed = sum(o.ops_failed for o in self.outcomes)
        return attempted, failed + len(self.failed_checks)


def end_to_end(run: Run) -> dict[str, float]:
    outcomes = run.outcomes
    latencies = [x for o in outcomes for x in o.latencies]
    # Simulated outcomes are fixed per input: average over inputs.
    sims = list({o.input: o.sim for o in outcomes}.values())
    # Cut points at every 5%: index 9 is the median, index 18 the p95.
    cuts = statistics.quantiles(latencies, n=20, method="inclusive")
    return {
        "setup_s": statistics.median(run.setup_times),
        "run_wall_s": statistics.fmean(o.wall_s for o in outcomes),
        "throughput_per_s": sum(o.work for o in outcomes)
        / sum(o.wall_s for o in outcomes),
        "step_p50_ms": cuts[9] * 1e3,
        "step_p95_ms": cuts[18] * 1e3,
        # Largest resident set of this process or of a child it ran.
        "peak_rss_mib": max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        / 1024.0,
        "sim_put_mib": statistics.fmean(s["sim_put_mib"] for s in sims),
        "sim_peak_stored_mib": statistics.fmean(
            s["sim_peak_stored_mib"] for s in sims
        ),
    }


def layer_sample(recorder, outcome) -> dict[str, float]:
    """Per-layer metrics of one traced repeat; a layer or outcome the
    workload does not have reads 0."""
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for metric, (span, thread) in SPAN_METRICS.items():
        values[metric] = recorder.self_time(span, thread)
    for counter in ("storage.engine.parts", "storage.bandwidth.calls"):
        values[counter] = float(recorder.counts.get(counter, 0))
    values.update(outcome.ratios)
    values.update(
        (name, value)
        for name, value in outcome.sim.items()
        if name in PER_LAYER_UNITS
    )
    values["trace.coverage"] = recorder.main_explained_s / outcome.wall_s
    return values


def measure_untraced(name: str, seed: int, seconds: float, delay: str):
    """End-to-end metrics over distinct inputs run back to back for
    ``seconds`` (at least :data:`MIN_REPEATS`), then input 0 once more;
    a workload that reuses its set-up runs :data:`SETUPS` inputs for
    ``seconds / SETUPS`` each.

    Each input runs in a fresh child process (:func:`run_part`). On a
    2-CPU box restore passes ran up to 15% faster or slower from one
    process to the next, so a run averages over several processes.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    run = Run(workload, seed)

    def part(index: int, part_seconds: float = 0.0):
        command = [
            sys.executable, str(Path(__file__)), "--part", str(index),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(part_seconds), "--delay", delay,
        ]
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=PART_TIMEOUT_S
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"input {index} failed:\n{done.stdout}{done.stderr}"
            )
        run.absorb(json.loads(done.stdout.strip().splitlines()[-1]))

    if run.reuses_setup:
        for index in range(SETUPS):
            part(index, seconds / SETUPS)
    else:
        deadline = time.perf_counter() + seconds
        index = 0
        while index < MIN_REPEATS or time.perf_counter() < deadline:
            part(index)
            index += 1
        part(0)
    return run, end_to_end(run)


def run_part(args) -> int:
    """``--part``: run one input in this process (a reused set-up for
    ``--seconds``, at least twice) and print its outcomes and set-up
    samples as one JSON line."""
    from layers import WorkProbe, install_delay, install_work_hooks
    from spans import Patcher
    from workloads import WORKLOADS

    probe = WorkProbe()
    with Patcher() as patcher:
        install_work_hooks(patcher, probe)
        if args.delay != "none":
            install_delay(patcher, args.delay, CALIBRATION[args.delay][0])
        run = Run(WORKLOADS[args.workload], args.seed, probe)
        # A set-up that is reused is the only one a run has, so it is
        # a sample. Otherwise the first set-up in a fresh process is
        # left out: it pays the process's one-time costs and ran 20-30%
        # slower than later set-ups, which are sampled after the repeat.
        state = run.setup(args.part, timed=run.reuses_setup)
        run.repeat(args.part, state)
        deadline = time.perf_counter() + args.seconds
        while run.reuses_setup and (
            len(run.outcomes) < 2 or time.perf_counter() < deadline
        ):
            run.repeat(args.part, state)
        state = None
        if not run.reuses_setup:
            run.sample_setups(args.part)
    outcomes = [
        {
            field: getattr(o, field)
            for field in (
                "input", "digest", "wall_s", "work", "latencies", "ops",
                "ops_failed", "violations", "sim",
            )
        }
        for o in run.outcomes
    ]
    print(
        json.dumps(
            {
                "setup_times": run.setup_times,
                "mismatches": run.mismatches,
                "outcomes": outcomes,
            }
        )
    )
    return 0


def measure_traced(name: str, seed: int, seconds: float):
    """Per-layer metrics: input 0 untraced once, then traced repeats of
    the same input, each checked against the untraced report."""
    from layers import WorkProbe, install_layer_spans, install_work_hooks
    from spans import Patcher, SpanRecorder
    from workloads import WORKLOADS

    probe = WorkProbe()
    recorder = SpanRecorder()
    with Patcher() as patcher:
        install_work_hooks(patcher, probe)
        run = Run(WORKLOADS[name], seed, probe)
        state = run.setup(0)
        reference = run.repeat(0, state)
        install_layer_spans(patcher, recorder)
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_TRACED_REPEATS or (
            time.perf_counter() < deadline
        ):
            if not run.reuses_setup:
                state = None  # release the previous fleet first
                state = run.setup(0)
            recorder.reset()
            outcome = run.repeat(0, state)
            samples.append(layer_sample(recorder, outcome))
            if samples[-1]["trace.coverage"] < MIN_COVERAGE:
                run.mismatches.append(
                    f"traced repeat {len(samples)}: layers explain only "
                    f"{samples[-1]['trace.coverage']:.3f} of its wall time"
                )
    metrics = {
        metric: statistics.fmean(sample[metric] for sample in samples)
        for metric in samples[0]
    }
    traced_walls = [o.wall_s for o in run.outcomes[1:]]
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - reference.wall_s
    )
    return run, {metric: metrics[metric] for metric in PER_LAYER_UNITS}


def git_sha() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "delay": args.delay,
    }


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6f} {units[name]}")


def check_declaration() -> None:
    """Fail if BENCHMARK.json's workloads and metrics differ from the
    ones this benchmark runs and prints."""
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (
        ("end_to_end", END_TO_END_UNITS),
        ("per_layer", PER_LAYER_UNITS),
    ):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != units:
            raise AssertionError(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from run.py")


def calibrate(args) -> int:
    """Run each calibration workload without and with each delay, every
    condition in a fresh process, and check which ones moved."""
    names = sorted({workload for _, workload in CALIBRATION.values()})
    walls: dict[tuple[str, str], float] = {}
    for name in names:
        for target in ("none", *CALIBRATION):
            command = [
                sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0", "--delay", target,
            ]
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=900
            )
            if done.returncode != 0:
                print(f"error: {name} with delay {target} failed:\n"
                      f"{done.stdout}{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            walls[(target, name)] = result["metrics"]["run_wall_s"]["value"]
    ok = True
    print("calibration: relative change of run_wall_s per injected delay")
    for target, (seconds, moved) in CALIBRATION.items():
        for name in names:
            change = walls[(target, name)] / walls[("none", name)] - 1.0
            expect = "moves" if name == moved else "unchanged"
            good = change >= MOVED if name == moved else abs(change) <= UNCHANGED
            ok = ok and good
            print(
                f"  {target:<11} +{seconds * 1e3:.0f} ms/call  {name:<14} "
                f"{change:+8.3f} expected {expect:<9} "
                f"{'ok' if good else 'FAILED'}"
            )
    print(json.dumps({"calibration_ok": ok}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fleet_ckpt")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--delay", choices=("none", *CALIBRATION), default="none"
    )
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 2
    # One BLAS thread: the small matmuls of the simulated models gain
    # nothing from BLAS threads, and on a 2-CPU box those threads fight
    # the program's own quantization pool, which made wall times vary
    # from run to run by much more. Set before numpy is imported.
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))

    if args.part is not None:
        return run_part(args)

    from selftest import run_selftest

    run_selftest()
    if args.self_test:
        check_declaration()
        print("span recorder self-test passed; BENCHMARK.json matches")
        return 0
    if args.calibrate:
        return calibrate(args)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        run, metrics = measure_traced(args.workload, args.seed, args.seconds)
        units = PER_LAYER_UNITS
    else:
        try:
            run, metrics = measure_untraced(
                args.workload, args.seed, args.seconds, args.delay
            )
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        units = END_TO_END_UNITS
    attempted, failed = run.attempted_failed()
    print_table(
        f"{args.workload} seed={args.seed} repeats={len(run.outcomes)} "
        f"work={sum(o.work for o in run.outcomes)} {workload.work_unit} "
        f"samples={sum(len(o.latencies) for o in run.outcomes)} "
        f"ops={attempted} failed={failed}",
        metrics,
        units,
    )
    for check in run.failed_checks:
        print(f"  check failed: {check}")
    print(json.dumps({"environment": environment(args)}))
    correct = not run.failed_checks
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
