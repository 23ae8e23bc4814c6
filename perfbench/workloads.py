"""The four benchmark workloads, each built from the run's seed.

Every workload has a fixed composition (job shapes, quantizers,
policies, priority tiers, cache sizes, rates) and takes only its
*inputs* from the seed: per-job data and model seeds, failure and
arrival times, start offsets and the placement of jobs in racks. With
the composition fixed, the amount of work in a run does not depend on
the seed, so runs with different seeds can be compared.

A workload runs as repeats. Each repeat returns an :class:`Outcome`
whose ``digest`` is the simulated result; the benchmark requires it to
be identical across the repeats of one seed and between traced and
untraced repeats.
"""

from __future__ import annotations

import dataclasses
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.config import FleetConfig
from repro.experiments import small_config
from repro.fleet import (
    TIER_EXPERIMENTAL,
    TIER_PROD,
    build_fleet,
    run_fleet,
    sample_fleet_specs,
    storm_time_to_recover,
)
from repro.fleet import experiment as fleet_experiment
from repro.serving import ServingConfig, ServingFleet

from layers import WorkProbe

MiB = 2**20

#: Policy mix of the default fleet (weights 0.5 / 0.25 / 0.25) as a
#: fixed cycle over job slots.
POLICY_CYCLE = ("intermittent", "one_shot", "intermittent", "consecutive")


@dataclass
class Outcome:
    """One repeat of a workload."""

    #: The simulated report (replaced by its hash once checked).
    digest: object
    wall_s: float
    work: int
    #: Wall seconds per work item: the gap between consecutive
    #: completions (for restores, each ``restore_latest`` call).
    latencies: list[float]
    ops: int
    ops_failed: int
    #: Output checks that failed in this repeat (empty when correct).
    violations: list[str] = field(default_factory=list)
    #: Simulated outcomes (``sim_*`` metrics) that apply to the workload.
    sim: dict[str, float] = field(default_factory=dict)
    #: Per-layer counts and ratios that apply to the workload.
    ratios: dict[str, float] = field(default_factory=dict)
    #: Index of the run's input this repeat ran.
    input: int = -1


def fleet_specs(config: FleetConfig):
    """Seeded per-job inputs over a fixed fleet composition.

    Job shapes, policies, quantizers and tiers cycle through the
    default choice tuples by composition slot, so every seed runs the
    same multiset of jobs. The seed draws, through the program's own
    sampler, each job's model, data and failure seeds and start
    offset, plus a permutation that places the slots in racks.
    """
    drawn = sample_fleet_specs(config)
    n = len(drawn)
    order = np.random.default_rng(config.seed ^ 0xC0DE).permutation(n)
    num_prod = int(round(config.priority_mix * n))
    prod = {int(i * n / num_prod) for i in range(num_prod)}
    specs = []
    for spec, slot in zip(drawn, order.tolist()):
        quant = slot % len(config.quantizer_choices)
        specs.append(
            dataclasses.replace(
                spec,
                num_tables=config.num_tables_choices[
                    slot % len(config.num_tables_choices)
                ],
                rows_per_table=config.rows_per_table_choices[
                    (slot // 3) % len(config.rows_per_table_choices)
                ],
                # Bigger tables checkpoint less often, so every job's
                # write fits its interval and lands before a storm.
                interval_batches=config.interval_batches_choices[
                    (slot // 3) % len(config.interval_batches_choices)
                ],
                policy=POLICY_CYCLE[slot % len(POLICY_CYCLE)],
                quantizer=config.quantizer_choices[quant],
                bit_width=config.bit_width_choices[quant],
                tier=TIER_PROD if slot in prod else TIER_EXPERIMENTAL,
            )
        )
    return specs


class FleetWorkload:
    """A shared-store training fleet, run to completion per repeat."""

    work_unit = "trained batches"

    def __init__(self, name: str, **overrides) -> None:
        self.name = name
        self.overrides = overrides

    def config(self, seed: int) -> FleetConfig:
        return FleetConfig(
            num_jobs=16,
            intervals_per_job=6,
            seed=seed,
            priority_mix=0.25,
            storm_domain="rack",
            # Intervals twice the default length: with the default
            # 8-16 batches the shared link falls behind, a job can end
            # its run before any checkpoint of it lands, and the storm
            # then restarts it from scratch instead of restoring it.
            interval_batches_choices=(16, 24, 32),
            # Prod preempts experimental writes only behind a backlog of
            # a second or more. At the 0.1 s default most experimental
            # writes are aborted and re-quantized, and how many depends
            # so much on the seed that run wall time varied by +-15%,
            # and one of six seeded fleets had a scratch restart. At
            # 1.0 s, 0-4 writes per fleet are still preempted and
            # re-staged (``fleet.preempted_writes``).
            preempt_wait_s=1.0,
            **self.overrides,
        )

    def setup(self, seed: int):
        config = self.config(seed)
        return build_fleet(config, fleet_specs(config))

    def run(self, state, probe: WorkProbe) -> Outcome:
        scheduler, store = state
        probe.reset()
        start = time.perf_counter()
        scheduler.run()
        # Through the module, so a traced run sees the wrapped function.
        report = fleet_experiment.summarize_fleet(scheduler, store)
        wall = time.perf_counter() - start
        jobs = report.jobs
        trained = sum(j.batches_trained for j in jobs)
        useful = sum(j.useful_batches for j in jobs)
        failed = sum(j.failed_writes + j.scratch_restarts for j in jobs)
        landed = sum(j.checkpoints_written for j in jobs)
        violations = []
        if any(j.intervals < scheduler.config.intervals_per_job for j in jobs):
            violations.append("a job stopped short of its intervals")
        if report.storm is None:
            violations.append("the rack storm did not fire")
        if scheduler.config.replicate_k and report.repl_deltas_sent == 0:
            violations.append("no deltas were replicated")
        if len(probe.batch_stamps) != trained:
            violations.append("batch stamps do not match batches trained")
        retries = sum(store.engine.retries_by_op.values())
        return Outcome(
            digest=report,
            wall_s=wall,
            work=trained,
            latencies=_gaps(start, probe.batch_stamps),
            ops=probe.writes_begun,
            ops_failed=failed,
            violations=violations,
            sim={
                "sim_put_mib": report.total_put_bytes_physical / MiB,
                "sim_peak_stored_mib": report.peak_physical_bytes / MiB,
                "sim_ttr_s": storm_time_to_recover(report),
                "sim_wasted_batches": float(trained - useful),
            },
            ratios={
                "fleet.useful_batch_frac": useful / trained,
                "core.writer.landed_frac": landed / max(1, probe.writes_begun),
                "storage.engine.retries": float(retries),
                "fleet.preempted_writes": float(
                    sum(j.preempted_writes for j in jobs)
                ),
                "fleet.scratch_restarts": float(
                    sum(j.scratch_restarts for j in jobs)
                ),
            },
        )


class RestoreChainWorkload:
    """Repeated ``restore_latest`` over a trained fleet's stores.

    Set-up trains an 8-job fleet with failures off and ``keep_last=6``
    so each store holds full + increment chains under all four
    quantizers. A repeat restores every job once, in job order.
    """

    name = "restore_chain"
    work_unit = "restore_latest calls"
    reuses_setup = True

    def config(self, seed: int) -> FleetConfig:
        return FleetConfig(
            num_jobs=8,
            intervals_per_job=6,
            seed=seed,
            inject_failures=False,
            keep_last=6,
        )

    def setup(self, seed: int):
        config = self.config(seed)
        scheduler, report = run_fleet(config, fleet_specs(config))
        quantizers = {job.spec.quantizer for job in scheduler.jobs}
        if quantizers != {"adaptive", "asymmetric", "float16", "none"}:
            raise RuntimeError(f"restore fleet quantizers: {quantizers}")
        return scheduler, report

    def run(self, state, probe: WorkProbe) -> Outcome:
        scheduler, fleet_report = state
        engine = scheduler.store.engine
        retries_before = sum(engine.retries_by_op.values())
        digest = []
        latencies = []
        violations = []
        failed = 0
        for job in scheduler.jobs:
            began = time.perf_counter()
            try:
                report = job.controller.restore_latest()
            except Exception as exc:  # a failed operation; the run goes on
                failed += 1
                digest.append((job.job_id, "raised", repr(exc)))
                continue
            finally:
                latencies.append(time.perf_counter() - began)
            if report.fallback_depth != 0:
                violations.append(
                    f"{job.job_id}: fallback_depth {report.fallback_depth}"
                )
            digest.append(
                (
                    job.job_id,
                    report.checkpoint_id,
                    tuple(report.chain_ids),
                    report.bytes_read,
                    report.chunks_read,
                    report.rows_restored,
                    report.fallback_depth,
                    _model_digest(job.model),
                )
            )
        if not any(
            len(entry) > 3 and len(entry[2]) > 1 for entry in digest
        ):
            violations.append("no restore read an increment chain")
        retries = sum(engine.retries_by_op.values()) - retries_before
        return Outcome(
            digest=tuple(digest),
            wall_s=sum(latencies),
            work=len(latencies),
            latencies=latencies,
            ops=len(latencies),
            ops_failed=failed,
            violations=violations,
            sim={
                "sim_put_mib": fleet_report.total_put_bytes_physical / MiB,
                "sim_peak_stored_mib": fleet_report.peak_physical_bytes / MiB,
            },
            ratios={"storage.engine.retries": float(retries)},
        )


def _gaps(start: float, stamps: list[float]) -> list[float]:
    return np.diff(np.asarray([start] + stamps)).tolist()


def _model_digest(model) -> int:
    """CRC of a restored model's embedding tables and accumulators."""
    crc = 0
    for table_id in range(model.num_tables):
        crc = zlib.crc32(model.table_weight(table_id), crc)
        crc = zlib.crc32(model.table_accumulator(table_id), crc)
    return crc


class ServeLookupWorkload:
    """Training, publishing and a 3-server inference fleet on one link.

    Lookups arrive as an open loop in simulated time (Poisson at a
    fixed qps); the co-simulation itself runs as fast as it can.
    """

    name = "serve_lookup"
    work_unit = "lookups"

    def setup(self, seed: int):
        config = small_config(
            policy="consecutive",
            interval_batches=25,
            num_tables=2,
            rows_per_table=2048,
            batch_size=64,
        )
        config = dataclasses.replace(
            config,
            model=dataclasses.replace(config.model, seed=seed),
            data=dataclasses.replace(config.data, seed=seed ^ 0xDA7A),
            checkpoint=dataclasses.replace(config.checkpoint, chunk_rows=256),
        )
        serving = ServingConfig(
            num_servers=3,
            cache_rows=256,
            qps=16.0,
            num_queries=2500,
            train_intervals=6,
            hot_rows_per_table=48,
            seed=seed ^ 0x5E7E,
        )
        return ServingFleet(config, serving)

    def run(self, state, probe: WorkProbe) -> Outcome:
        fleet = state
        probe.reset()
        start = time.perf_counter()
        report = fleet.run()
        wall = time.perf_counter() - start
        violations = []
        if report.torn_lookups:
            violations.append(f"{report.torn_lookups} torn lookups")
        if report.requests != fleet.serving.num_queries:
            violations.append(
                f"{report.requests} of {fleet.serving.num_queries} served"
            )
        if len(probe.lookup_stamps) != report.requests:
            violations.append("lookup stamps do not match requests")
        stats = fleet.store.stats()
        return Outcome(
            digest=report,
            wall_s=wall,
            work=report.requests,
            latencies=_gaps(start, probe.lookup_stamps),
            ops=report.requests,
            ops_failed=report.torn_lookups,
            violations=violations,
            sim={
                "sim_put_mib": report.train_write_bytes / MiB,
                "sim_peak_stored_mib": stats.peak_physical_bytes / MiB,
                "sim_lookup_p99_ms": report.lookup_p99_s * 1e3,
            },
            ratios={
                "storage.engine.retries": float(
                    sum(fleet.store.engine.retries_by_op.values())
                ),
                "serving.rowcache.hit_rate": report.hit_rate,
            },
        )


WORKLOADS = {
    "fleet_ckpt": FleetWorkload("fleet_ckpt"),
    "restore_chain": RestoreChainWorkload(),
    "serve_lookup": ServeLookupWorkload(),
    "fleet_replicated": FleetWorkload(
        "fleet_replicated", replicate_k=2, baseline_flush_intervals=3
    ),
}
