"""B5 — peer replication vs interval checkpointing under one trace.

Not a paper figure, but Fig 15-style evidence for the replication
tier: the same seeded fleet — identical specs, identical independent
failure trace, the same armed rack storm — runs once with plain
interval checkpointing (``replicate_k=0``, every interval lands on
the store) and once with peer replication (``replicate_k=2``, the
store only sees retention-boundary baselines). The table reports, per
variant:

* **wasted batches** — training lost to crash rewind. A peer restore
  resumes at the crashed step (at most the one mid-send batch is
  lost); a store restore rewinds to the last landed checkpoint.
* **storm/store GET bytes** — restore-storm read traffic on the
  shared link. Peer reads travel the peer link instead, so the
  replicated fleet's GET series collapses.
* **store PUT bytes** — the write-side rent replication pays for
  that: only baseline flushes, but every flush is a full.

Gates: the replicated run must strictly reduce both wasted work and
storm read bytes against the same trace, and must actually have
recovered from peers (no silent no-op).

``B05_JOBS`` scales the fleet (default 8; CI runs reduced scale).
"""

from __future__ import annotations

import os

from repro.config import FailureConfig, FleetConfig
from repro.fleet import run_fleet

TITLE = "B5 - peer replication vs interval checkpointing (one trace)"


def trace_config(jobs: int, replicate_k: int) -> FleetConfig:
    """One shared crash-heavy storm trace; only the tier K varies."""
    return FleetConfig(
        num_jobs=jobs,
        intervals_per_job=6,
        seed=0xB05,
        replicate_k=replicate_k,
        quantizer_choices=("none",),
        bit_width_choices=(4,),
        priority_mix=0.5,
        storm_domain="rack",
        rack_size=2,
        inject_failures=True,
        max_failures_per_job=2,
        failures=FailureConfig(
            mean_time_to_failure_s=60.0, min_failure_s=5.0
        ),
    )


def _reduction(label: str, before: float, after: float, change: str) -> str:
    """``label: 3.0x (change)``; a ratio against a replicated value of
    0 is not a number, so then only the before -> after change shows."""
    if after == 0:
        return f"{label}: {change}"
    return f"{label}: {before / after:.1f}x ({change})"


def test_replication_wasted_work_and_storm_reads(report):
    jobs = int(os.environ.get("B05_JOBS", "8"))
    rows = []
    outcomes = {}
    for k in (0, 2):
        _, run = run_fleet(trace_config(jobs, k))
        wasted = sum(j.wasted_batches for j in run.jobs)
        outcomes[k] = (run, wasted)
        rows.append(
            f"{('interval ckpt' if k == 0 else f'replicate k={k}'):>14s}"
            f" {run.failures:>5d} {run.restores:>5d}"
            f" {run.repl_peer_restores:>5d}"
            f" {run.repl_store_fallbacks:>6d}"
            f" {wasted:>7d}"
            f" {run.total_get_bytes / 2**20:>10.2f}"
            f" {run.total_put_bytes_physical / 2**20:>10.2f}"
        )
    base, base_wasted = outcomes[0]
    repl, repl_wasted = outcomes[2]

    report.row(
        f"{jobs} jobs x 6 intervals, rack storm (rack_size=2) + "
        "seeded independent failures; identical trace both runs"
    )
    report.table(
        "       variant  fail  rest  peer  fallbk  wasted"
        "    get_MiB    put_MiB",
        rows,
    )
    report.row("")

    # Both variants saw the same storm and real crash pressure.
    assert base.storm is not None and repl.storm is not None
    assert base.restores > 0
    assert repl.repl_peer_restores > 0

    report.row(
        _reduction(
            "wasted-work reduction",
            base_wasted,
            repl_wasted,
            f"{base_wasted} -> {repl_wasted} batches",
        )
    )
    report.row(
        _reduction(
            "storm read-byte reduction",
            base.total_get_bytes,
            repl.total_get_bytes,
            f"{base.total_get_bytes / 2**20:.2f} -> "
            f"{repl.total_get_bytes / 2**20:.2f} MiB",
        )
    )
    assert repl_wasted < base_wasted, (
        f"replication did not reduce wasted work: "
        f"{base_wasted} -> {repl_wasted}"
    )
    assert repl.total_get_bytes < base.total_get_bytes, (
        f"replication did not reduce storm reads: "
        f"{base.total_get_bytes} -> {repl.total_get_bytes}"
    )
