"""The part-granular transfer engine: staging, retries, admission.

Covers the :class:`~repro.storage.engine.TransferEngine` surface the
write path migrated onto:

* staged PUTs submit individual multipart parts, timing-identical to
  the immediate-drain ``put()`` when uninterrupted;
* aborting a staged write mid-part leaves no visible object, no
  orphaned parts, and credits the stream's quota back;
* the retry/backoff loop re-issues seeded transient failures, charges
  the wasted latency in simulated time, and populates
  ``OpReceipt.retries`` — deterministically under the failure seed;
* the worker pool runs tasks concurrently and hands back their
  results (or exceptions);
* the admission controller's three modes (none / static cap /
  backlog-driven dynamic) and the projected-queue-delay signal.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import BackendConfig, StorageConfig
from repro.distributed.clock import SimClock
from repro.errors import (
    ObjectExistsError,
    RetriesExhaustedError,
    StorageError,
    TransientStorageError,
)
from repro.storage import (
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    AdmissionController,
    BandwidthArbiter,
    ObjectStore,
    RemoteObjectBackend,
    projected_queue_delay_s,
    s3like_costs,
)
from repro.storage.bandwidth import TIER_EXPERIMENTAL, TIER_PROD


def remote_store(
    part_size=1000,
    fanout=2,
    failure_probs=None,
    failure_seed=7,
    arbiter=None,
    max_retries=5,
    replication=1,
):
    """1000 B/s writes, 2000 B/s reads, 0.1 s PUT / 0.05 s GET latency."""
    config = StorageConfig(
        write_bandwidth=1000.0,
        read_bandwidth=2000.0,
        replication_factor=replication,
        latency_s=0.0,
        max_retries=max_retries,
        retry_backoff_s=0.02,
    )
    backend = RemoteObjectBackend(
        s3like_costs(
            1000.0,
            2000.0,
            put_latency_s=0.1,
            get_latency_s=0.05,
            list_latency_s=0.02,
            delete_latency_s=0.01,
            head_latency_s=0.005,
        ),
        part_size_bytes=part_size,
        fanout=fanout,
        failure_probs=failure_probs,
        failure_seed=failure_seed,
    )
    return ObjectStore(config, SimClock(), backend=backend, arbiter=arbiter)


class TestStagedPut:
    def test_single_shot_staging_matches_put(self):
        """A staged single-shot write drains to the exact receipt an
        immediate put() produces on an identical store."""
        direct = remote_store(part_size=None).put(
            "k", bytes(500), earliest=2.0
        )
        store = remote_store(part_size=None)
        staged = store.stage_put("k", bytes(500), earliest=2.0)
        assert staged.num_parts == 1
        assert staged.next_ready_s == pytest.approx(2.0)
        receipt = staged.submit_next()
        assert receipt is not None and staged.done
        assert receipt == direct

    def test_multipart_staging_matches_put(self):
        payload = bytes(range(256)) * 16  # 4096 B -> 5 parts of <=1000
        direct = remote_store().put("k", payload)
        store = remote_store()
        staged = store.stage_put("k", payload)
        assert staged.num_parts == 5
        submissions = 0
        receipt = None
        while receipt is None:
            assert staged.next_part_number == submissions + 1
            receipt = staged.submit_next()
            submissions += 1
        assert submissions == 5
        assert receipt == direct
        assert receipt.parts == 5
        assert store.get("k") == payload
        assert store.object_size("k") == len(payload)

    def test_queued_bytes_drain_part_by_part(self):
        store = remote_store(replication=2)
        staged = store.stage_put("k", bytes(3000))
        engine = store.engine
        assert engine.queued_put_bytes() == 6000
        staged.submit_next()
        assert engine.queued_put_bytes() == 4000
        staged.submit_next()
        assert engine.queued_put_bytes() == 2000
        assert staged.submit_next() is not None
        assert engine.queued_put_bytes() == 0
        assert engine.staged_puts() == []

    def test_overwrite_rules_checked_at_stage_time(self):
        store = remote_store()
        store.put("k", bytes(10))
        with pytest.raises(ObjectExistsError):
            store.stage_put("k", bytes(10))
        staged = store.stage_put("k", bytes(2500), overwrite=True)
        while staged.submit_next() is None:
            pass
        assert store.object_size("k") == 2500

    def test_abort_mid_upload_leaves_nothing_visible(self):
        arbiter = BandwidthArbiter()
        arbiter.register("job", quota_bytes=100_000)
        store = remote_store(arbiter=arbiter)
        staged = store.stage_put("job/k", bytes(4000), stream="job")
        assert arbiter.stream("job").charged_bytes == 4000
        staged.submit_next()
        staged.submit_next()  # two parts on the link, upload open
        assert store.backend.pending_uploads()
        staged.abort()
        assert staged.aborted
        # No visible object, no orphaned parts, quota credited back.
        assert not store.backend.exists("job/k")
        assert store.backend.pending_uploads() == []
        assert store.backend.multipart_aborted == 1
        assert arbiter.stream("job").charged_bytes == 0
        assert store.engine.queued_put_bytes() == 0
        with pytest.raises(StorageError):
            store.object_size("job/k")
        # Submitting after abort is an error; aborting twice is not.
        staged.abort()
        with pytest.raises(StorageError, match="aborted"):
            staged.submit_next()

    def test_concurrent_staged_writes_respect_hard_capacity(self):
        """Two writes staged in the same window must not jointly
        oversubscribe capacity_bytes just because neither committed."""
        config = StorageConfig(
            write_bandwidth=1000.0,
            read_bandwidth=2000.0,
            replication_factor=1,
            latency_s=0.0,
            capacity_bytes=10_000,
        )
        backend = RemoteObjectBackend(
            s3like_costs(1000.0, 2000.0), part_size_bytes=1000
        )
        store = ObjectStore(config, SimClock(), backend=backend)
        from repro.errors import CapacityExceededError

        first = store.stage_put("a", bytes(6000))
        with pytest.raises(CapacityExceededError):
            store.stage_put("b", bytes(6000))
        # Aborting the first frees the in-flight reservation...
        first.abort()
        second = store.stage_put("b", bytes(6000))
        while second.submit_next() is None:
            pass
        # ...and committed bytes are still enforced as before.
        with pytest.raises(CapacityExceededError):
            store.stage_put("c", bytes(6000))

    def test_interleaved_staged_writes_share_the_link_per_part(self):
        """Two staged writes alternating submissions produce transfers
        that alternate on the serial link — part granularity."""
        store = remote_store(fanout=1)
        a = store.stage_put("a", bytes(3000), stream="jobA")
        b = store.stage_put("b", bytes(3000), stream="jobB")
        done_a = done_b = None
        while done_a is None or done_b is None:
            if done_a is None:
                done_a = a.submit_next()
            if done_b is None:
                done_b = b.submit_next()
        puts = store.log.transfers("put")
        streams = [t.stream for t in puts]
        # Strict alternation: A part, B part, A part, ...
        assert streams == ["jobA", "jobB"] * 3
        # The link never served two transfers at once.
        for first, second in zip(puts, puts[1:]):
            assert second.start_s >= first.end_s - 1e-9


class TestRetryLoop:
    def test_transient_failures_populate_receipt_retries(self):
        probs = {OP_PUT: 0.3, OP_GET: 0.3}
        store = remote_store(failure_probs=probs, failure_seed=11)
        for i in range(6):
            store.put(f"k{i}", bytes(2500))
        for i in range(6):
            store.get(f"k{i}")
        assert store.ops.total_retries(OP_PUT) >= 1
        assert store.ops.total_retries(OP_GET) >= 1
        assert store.ops.retry_amplification() > 1.0
        assert store.backend.failures_injected[OP_PUT] == (
            store.engine.retries_by_op[OP_PUT]
        )

    def test_retry_penalty_charged_in_simulated_time(self):
        """A retried PUT pays the wasted attempt latency plus backoff
        on top of the clean duration."""
        clean = remote_store(part_size=None).put("k", bytes(100))

        class FailOnce(RemoteObjectBackend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.fail_next = 1

            def put_object(self, request, data):
                if self.fail_next:
                    self.fail_next -= 1
                    raise TransientStorageError("throttled")
                super().put_object(request, data)

        config = StorageConfig(
            write_bandwidth=1000.0,
            read_bandwidth=2000.0,
            replication_factor=1,
            latency_s=0.0,
            retry_backoff_s=0.02,
        )
        backend = FailOnce(
            s3like_costs(1000.0, 2000.0, put_latency_s=0.1),
            part_size_bytes=None,
        )
        store = ObjectStore(config, SimClock(), backend=backend)
        receipt = store.put("k", bytes(100))
        assert receipt.retries == 1
        # One wasted attempt latency (0.1 s) + first backoff (0.02 s).
        assert receipt.duration_s == pytest.approx(
            clean.duration_s + 0.1 + 0.02
        )

    def test_exhausted_retries_become_permanent_and_abort(self):
        store = remote_store(
            failure_probs={OP_PUT: 1.0}, max_retries=3
        )
        with pytest.raises(RetriesExhaustedError):
            store.put("k", bytes(4000))
        # The multipart upload was aborted: nothing visible, no parts.
        assert store.backend.pending_uploads() == []
        assert not store.backend.exists("k")
        # 1 first attempt + 3 retries of part 1 (the probe HEAD is not
        # failure-injected here).
        assert store.backend.failures_injected[OP_PUT] == 4

    def test_control_plane_ops_retry_too(self):
        probs = {OP_LIST: 0.4, OP_DELETE: 0.4, OP_HEAD: 0.4}
        store = remote_store(failure_probs=probs, failure_seed=5)
        for i in range(5):
            store.put(f"p/k{i}", bytes(10))
        for i in range(5):
            store.exists(f"p/k{i}")
            store.list_keys("p/")
        for i in range(5):
            store.delete(f"p/k{i}")
        total = (
            store.ops.total_retries(OP_LIST)
            + store.ops.total_retries(OP_DELETE)
            + store.ops.total_retries(OP_HEAD)
        )
        assert total >= 3
        # Retried control requests cost more than their base latency.
        retried = [
            r
            for r in store.ops.receipts(OP_DELETE)
            if r.retries > 0
        ]
        assert retried
        for r in retried:
            assert r.duration_s > 0.01  # base DELETE latency

    def test_deterministic_under_failure_seed(self):
        def run():
            store = remote_store(
                failure_probs={OP_PUT: 0.25, OP_GET: 0.25},
                failure_seed=23,
            )
            for i in range(5):
                store.put(f"k{i}", bytes(2500))
            for i in range(5):
                store.get(f"k{i}")
            return [
                (r.op, r.key, r.retries, r.completed_s)
                for r in store.ops.receipts()
            ]

        assert run() == run()

    def test_no_injection_means_no_retries(self):
        store = remote_store()
        store.put("k", bytes(2500))
        store.get("k")
        store.delete("k")
        assert store.ops.total_retries() == 0
        assert store.ops.retry_amplification() == 1.0


class TestWorkerPool:
    def test_concurrent_tasks_return_their_values(self):
        store = remote_store()
        engine = store.engine
        barrier = threading.Barrier(2, timeout=5.0)

        def task(value):
            barrier.wait()  # both tasks provably in flight at once
            return value

        first = engine.submit_task(task, 41)
        second = engine.submit_task(task, 42)
        assert first.result() == 41
        assert second.result() == 42

    def test_task_exception_reaches_the_caller(self):
        store = remote_store()

        def fail():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            store.engine.submit_task(fail).result()


class TestBacklogSignal:
    def test_projected_queue_delay_math(self):
        assert projected_queue_delay_s(5.0, 2.0) == pytest.approx(3.0)
        assert projected_queue_delay_s(1.0, 2.0) == 0.0
        assert projected_queue_delay_s(
            5.0, 2.0, queued_bytes=1000, seconds_per_byte=0.001
        ) == pytest.approx(4.0)
        with pytest.raises(StorageError):
            projected_queue_delay_s(0.0, 0.0, queued_bytes=-1)

    def test_engine_projection_includes_staged_parts(self):
        store = remote_store()
        engine = store.engine
        assert engine.projected_queue_delay_s(0.0) == 0.0
        staged = store.stage_put("k", bytes(3000))
        # 3000 B at 1000 B/s of announced parts = 3 s of backlog.
        assert engine.projected_queue_delay_s(0.0) == pytest.approx(3.0)
        staged.submit_next()
        # One part moved from queue to link occupancy; the projection
        # still sees it (timeline.free_at) plus the two queued parts.
        assert engine.projected_queue_delay_s(0.0) >= 3.0
        while staged.submit_next() is None:
            pass
        # Everything on the link now; backlog is pure occupancy.
        assert engine.projected_queue_delay_s(0.0) == pytest.approx(
            store.timeline.free_at
        )


class TestAdmissionController:
    def make(self, mode, **kwargs):
        store = remote_store()
        return store, AdmissionController(store.engine, mode, **kwargs)

    def test_mode_validation(self):
        store = remote_store()
        with pytest.raises(StorageError):
            AdmissionController(store.engine, "clever")
        with pytest.raises(StorageError):
            AdmissionController(store.engine, "static")  # needs a cap
        with pytest.raises(StorageError):
            AdmissionController(store.engine, "none", backlog_factor=0)

    def test_none_mode_admits_everything(self):
        _, ctrl = self.make("none")
        decision = ctrl.decide(
            stream="j",
            tier=TIER_EXPERIMENTAL,
            now=0.0,
            interval_s=0.001,
            active_writes=99,
        )
        assert decision.admitted
        assert ctrl.total_deferrals == 0

    def test_static_mode_is_the_legacy_cap(self):
        _, ctrl = self.make("static", max_concurrent=2)
        ok = ctrl.decide(
            stream="a", tier=TIER_PROD, now=0.0, active_writes=1
        )
        assert ok.admitted
        deferred = ctrl.decide(
            stream="a", tier=TIER_PROD, now=0.0, active_writes=2
        )
        assert not deferred.admitted
        assert deferred.reason == "static_cap"
        # The static cap is tier-blind, exactly like the old fixed cap.
        assert ctrl.deferrals_by_tier == {TIER_PROD: 1}

    def test_dynamic_mode_defers_experimental_on_backlog(self):
        store, ctrl = self.make("dynamic")
        store.stage_put("k", bytes(5000))  # 5 s of queued backlog
        deferred = ctrl.decide(
            stream="exp",
            tier=TIER_EXPERIMENTAL,
            now=0.0,
            interval_s=2.0,
        )
        assert not deferred.admitted
        assert deferred.reason == "backlog"
        assert deferred.projected_delay_s == pytest.approx(5.0)
        assert deferred.threshold_s == pytest.approx(2.0)
        # Prod is always admitted, backlog regardless.
        prod = ctrl.decide(
            stream="prod", tier=TIER_PROD, now=0.0, interval_s=2.0
        )
        assert prod.admitted
        # A first trigger (no measured interval yet) is admitted.
        first = ctrl.decide(
            stream="new", tier=TIER_EXPERIMENTAL, now=0.0
        )
        assert first.admitted
        # Below threshold: admitted.
        ok = ctrl.decide(
            stream="exp",
            tier=TIER_EXPERIMENTAL,
            now=0.0,
            interval_s=6.0,
        )
        assert ok.admitted
        assert ctrl.deferrals_by_stream == {"exp": 1}
        assert ctrl.deferrals_by_tier == {TIER_EXPERIMENTAL: 1}

    def test_backlog_factor_scales_the_threshold(self):
        store, ctrl = self.make("dynamic", backlog_factor=3.0)
        store.stage_put("k", bytes(5000))
        ok = ctrl.decide(
            stream="exp",
            tier=TIER_EXPERIMENTAL,
            now=0.0,
            interval_s=2.0,  # threshold 6 s > 5 s backlog
        )
        assert ok.admitted


class TestFailureInjectionConfig:
    def test_backend_config_failure_probs(self):
        config = BackendConfig(
            kind="s3like",
            put_failure_prob=0.1,
            get_failure_prob=0.2,
        )
        assert config.failure_probs == {"PUT": 0.1, "GET": 0.2}
        with pytest.raises(Exception):
            BackendConfig(kind="s3like", put_failure_prob=1.5)

    def test_factory_wires_failure_injection(self):
        from repro.storage import make_backend

        backend = make_backend(
            BackendConfig(
                kind="s3like",
                put_failure_prob=0.5,
                failure_seed=9,
            ),
            StorageConfig(),
        )
        assert backend.failure_probs == {"PUT": 0.5}

    def test_backend_rejects_bad_probs(self):
        with pytest.raises(StorageError):
            RemoteObjectBackend(
                s3like_costs(1000.0, 2000.0),
                failure_probs={"POKE": 0.1},
            )
        with pytest.raises(StorageError):
            RemoteObjectBackend(
                s3like_costs(1000.0, 2000.0),
                failure_probs={"PUT": 2.0},
            )
