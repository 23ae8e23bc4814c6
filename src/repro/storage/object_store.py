"""The simulated remote object store.

Checkpoints are written to "remote object storage to provide high
availability (including replications) and storage scalability" (paper
section 4). This store wraps a byte backend with:

* **request timing** — every operation is a classed request
  (PUT/GET/LIST/DELETE/HEAD) whose wall time comes from the backend's
  per-op-class :class:`~repro.storage.requests.OpCostModel`; data-plane
  transfers serialise on a storage :class:`Timeline` in simulated time,
  and every op returns a typed
  :class:`~repro.storage.requests.OpReceipt`;
* **a transfer engine** — multipart/ranged fan-out, part-granular
  staged writes, and the transient-failure retry/backoff loop all live
  in the attached :class:`~repro.storage.engine.TransferEngine`
  (``store.engine``); ``put``/``get`` delegate to it, and
  :meth:`ObjectStore.stage_put` exposes the part-granular staged path
  the checkpoint writer and fleet scheduler interleave on;
* **replication accounting** — physical bytes = logical x factor;
* **capacity accounting** — live logical/physical bytes over time, the
  series behind Fig 16, plus an optional hard capacity limit;
* **a transfer log + op log** — the per-transfer series behind Fig 15's
  bandwidth numbers (write *and* read traffic, op-class tagged) and the
  per-receipt record behind the backend-ops benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import StorageConfig
from ..distributed.clock import SimClock, Timeline
from ..errors import StorageError
from .backends import Backend
from .bandwidth import BandwidthArbiter, TransferLog
from .engine import StagedGet, StagedPut, TransferEngine
from .requests import (
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    OpCostSuite,
    OpLog,
    OpReceipt,
    StorageRequest,
)

@dataclass(frozen=True)
class CapacityPoint:
    """Live capacity at one moment in simulated time."""

    time_s: float
    logical_bytes: int
    physical_bytes: int


@dataclass(frozen=True)
class StoreStats:
    """Aggregate store statistics."""

    live_logical_bytes: int
    live_physical_bytes: int
    peak_physical_bytes: int
    total_bytes_written: int
    num_objects: int


@dataclass(frozen=True)
class PrefixDeleteReceipt:
    """Completion record of a batch prefix delete (1 LIST + N DELETE)."""

    prefix: str
    keys: tuple[str, ...]
    freed_logical_bytes: int
    freed_physical_bytes: int
    issued_s: float
    completed_s: float

    @property
    def num_objects(self) -> int:
        return len(self.keys)


class ObjectStore:
    """Request-timed, capacity-accounted object storage in sim time."""

    def __init__(
        self,
        config: StorageConfig,
        clock: SimClock,
        backend: Backend | None = None,
        arbiter: BandwidthArbiter | None = None,
    ) -> None:
        self.config = config
        self.clock = clock
        if backend is None:
            from .factory import make_backend

            backend = make_backend(config.backend, config)
        self.backend = backend
        #: Effective per-op-class cost table: the backend's own suite
        #: when it carries one, else the legacy config-derived model
        #: (fixed latency + link bandwidths, metadata ops free).
        self.costs: OpCostSuite = (
            backend.costs
            if backend.costs is not None
            else OpCostSuite.from_storage_config(config)
        )
        self.timeline = Timeline(clock, "storage")
        self.log = TransferLog()
        self.ops = OpLog()
        self.arbiter = arbiter
        self._rng: np.random.Generator | None = getattr(
            backend, "rng", None
        )
        self._sizes: dict[str, int] = {}
        self._capacity_series: list[CapacityPoint] = []
        self._peak_physical = 0
        self._total_written = 0
        #: The transfer engine: part-granular staged PUTs, multipart /
        #: ranged fan-out, retry/backoff, and the quantization worker
        #: pool all live here.
        self.engine = TransferEngine(self)
        # Backends that run asynchronous work of their own (the cache
        # tier's dirty flushes) borrow the engine's retry/backoff loop.
        attach = getattr(backend, "attach_engine", None)
        if attach is not None:
            attach(self.engine)
        self._record_capacity(clock.now)

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------

    @property
    def live_logical_bytes(self) -> int:
        return sum(self._sizes.values())

    @property
    def live_physical_bytes(self) -> int:
        return self.live_logical_bytes * self.config.replication_factor

    def _record_capacity(self, time_s: float) -> None:
        physical = self.live_physical_bytes
        self._peak_physical = max(self._peak_physical, physical)
        self._capacity_series.append(
            CapacityPoint(time_s, self.live_logical_bytes, physical)
        )

    def capacity_series(self) -> list[CapacityPoint]:
        """Live-bytes-over-time samples (one per mutation)."""
        return list(self._capacity_series)

    def stats(self) -> StoreStats:
        return StoreStats(
            live_logical_bytes=self.live_logical_bytes,
            live_physical_bytes=self.live_physical_bytes,
            peak_physical_bytes=self._peak_physical,
            total_bytes_written=self._total_written,
            num_objects=len(self._sizes),
        )

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------

    def cost_for(self, op: str, key: str, nbytes: int = 0):
        """Resolve the cost model for one specific request.

        Backends that price per *request* rather than per op class — a
        cache tier whose GET cost depends on whether ``key`` is
        near-resident — expose a ``cost_model(op, key, nbytes)`` hook;
        everything else falls through to the store-level suite (the
        very same :class:`~repro.storage.requests.OpCostModel` objects,
        so timing without such a backend is bit-identical to pricing
        via ``self.costs``).
        """
        resolver = getattr(self.backend, "cost_model", None)
        if resolver is not None:
            model = resolver(op, key, nbytes)
            if model is not None:
                return model
        return self.costs.for_op(op)

    def predict_put_duration(self, logical_bytes: int) -> float:
        """Expected single-shot PUT wall time for a payload size.

        Used by the checkpoint writer to predict a manifest's landing
        time before the PUT is issued. Deterministic: jitter/tail draws
        are excluded (they are timing noise around this expectation).
        """
        return self.costs.for_op(OP_PUT).duration_s(
            logical_bytes * self.config.replication_factor
        )

    def _record_op(
        self,
        op: str,
        key: str,
        logical: int,
        physical: int,
        issued: float,
        duration: float,
        stream: str,
        retries: int = 0,
    ) -> OpReceipt:
        """Book a control-plane request (no link occupancy)."""
        receipt = OpReceipt(
            op=op,
            key=key,
            logical_bytes=logical,
            physical_bytes=physical,
            issued_s=issued,
            start_s=issued,
            first_byte_s=issued + duration,
            completed_s=issued + duration,
            retries=retries,
            stream=stream,
        )
        self.ops.record(receipt)
        return receipt

    def _commit_put(
        self, key: str, logical: int, receipt: OpReceipt
    ) -> None:
        """Book a landed PUT: size map, totals, op log, capacity.

        Called by the transfer engine when a staged write's last part
        (and its completion request) has been submitted.
        """
        self._sizes[key] = logical
        self._total_written += receipt.physical_bytes
        self.ops.record(receipt)
        self._record_capacity(receipt.completed_s)

    # ------------------------------------------------------------------
    # Object operations
    # ------------------------------------------------------------------

    def put(
        self,
        key: str,
        data: bytes,
        overwrite: bool = False,
        earliest: float | None = None,
        stream: str = "",
    ) -> OpReceipt:
        """Store an object; occupies the storage link in sim time.

        ``earliest`` defers the transfer start (the pipelined checkpoint
        writer passes the chunk's quantization-finish time here).
        ``stream`` tags the transfer with its owning job on a shared
        store; when an arbiter is attached, the stream's capacity quota
        is checked (and charged) before any link time is spent.

        Delegates to the transfer engine: against a backend that
        advertises ``part_size_bytes``, payloads larger than one part
        upload through the multipart protocol with per-part request
        latency overlapped across ``backend.fanout`` lanes, transient
        request failures are retried with backoff (the receipt's
        ``retries`` counts them), and a failure mid-upload aborts the
        multipart — no partial object ever becomes visible.
        """
        return self.engine.put(
            key,
            data,
            overwrite=overwrite,
            earliest=earliest,
            stream=stream,
        )

    def stage_put(
        self,
        key: str,
        data: bytes,
        overwrite: bool = False,
        earliest: float | None = None,
        stream: str = "",
    ) -> StagedPut:
        """Announce a PUT whose parts are submitted one at a time.

        The part-granular staged path: quota/capacity are checked now,
        then each :meth:`~repro.storage.engine.StagedPut.submit_next`
        call issues exactly one multipart part (or the whole object for
        single-shot uploads). The fleet scheduler drains staged writes
        from many jobs through the bandwidth arbiter, so the shared
        link interleaves *parts*, not whole chunks.
        """
        return self.engine.stage_put(
            key,
            data,
            overwrite=overwrite,
            earliest=earliest,
            stream=stream,
        )

    def get(
        self,
        key: str,
        earliest: float | None = None,
        stream: str = "",
        byte_range: tuple[int, int] | None = None,
    ) -> bytes:
        """Fetch an object (timed on the shared storage timeline).

        ``earliest`` floors the transfer start at the caller's own
        simulated time — on a shared store the reading job's clock may
        be ahead of the store's, and a restore must not be timed before
        the failure that triggered it. ``byte_range`` narrows the read
        to ``[start, stop)``.

        Delegates to the transfer engine: against a backend that
        advertises ``range_get_bytes``, whole reads larger than that
        window are issued as ranged sub-GETs fanned out over the
        backend's request lanes, and transient failures are retried
        with backoff.
        """
        return self.engine.get(
            key,
            earliest=earliest,
            stream=stream,
            byte_range=byte_range,
        )

    def stage_get(
        self,
        key: str,
        earliest: float | None = None,
        stream: str = "",
        byte_range: tuple[int, int] | None = None,
    ) -> StagedGet:
        """Announce a GET whose ranged parts are submitted one at a time.

        The read-side mirror of :meth:`stage_put`: the restore path
        stages its chunk reads so the fleet scheduler can interleave
        *parts* from many recovering jobs through the bandwidth arbiter
        — a restore storm drains part by part instead of whole chunk
        reads head-of-line. Draining a staged GET uninterrupted is
        timing-identical to :meth:`get`.
        """
        return self.engine.stage_get(
            key,
            earliest=earliest,
            stream=stream,
            byte_range=byte_range,
        )

    def delete(
        self, key: str, stream: str = "", at_s: float | None = None
    ) -> OpReceipt:
        """Remove an object and update capacity accounting.

        ``at_s`` timestamps the capacity sample with the deleting job's
        clock (shared stores lag behind per-job clocks); ``stream``
        credits the freed physical bytes back to the job's quota.
        """
        physical = self._sizes.get(key, 0) * self.config.replication_factor
        request = StorageRequest(OP_DELETE, key, stream=stream)
        _, retries, penalty, latency = self.engine.attempt_request(
            OP_DELETE, lambda: self.backend.delete_object(request)
        )
        self._sizes.pop(key, None)
        if self.arbiter is not None and stream:
            self.arbiter.credit_delete(stream, physical)
        when = self.clock.now if at_s is None else max(at_s, self.clock.now)
        self._record_capacity(when)
        return self._record_op(
            OP_DELETE,
            key,
            0,
            physical,
            when,
            penalty + latency,
            stream,
            retries=retries,
        )

    def delete_prefix(
        self, prefix: str, stream: str = "", at_s: float | None = None
    ) -> PrefixDeleteReceipt:
        """Batch-remove every object under a prefix.

        Costed as a *single* LIST followed by N DELETE requests — the
        shape retention sweeps take against a real object store —
        rather than N client-side list+delete round trips. Capacity is
        re-sampled once, after the whole batch.
        """
        issued = (
            self.clock.now
            if at_s is None
            else max(at_s, self.clock.now)
        )
        # One enumeration serves both the size bookkeeping and the
        # deletes (the backend's own delete_prefix would LIST again).
        list_request = StorageRequest(OP_LIST, prefix, stream=stream)
        keys, list_retries, list_penalty, list_latency = (
            self.engine.attempt_request(
                OP_LIST, lambda: self.backend.list_objects(list_request)
            )
        )
        freed_logical = 0
        for key in keys:
            freed_logical += self.object_size(key)
        freed_physical = freed_logical * self.config.replication_factor
        deletions: list[tuple[str, int, float]] = []
        for key in keys:
            request = StorageRequest(OP_DELETE, key, stream=stream)
            _, retries, penalty, latency = self.engine.attempt_request(
                OP_DELETE, lambda: self.backend.delete_object(request)
            )
            deletions.append((key, retries, penalty + latency))
        completed = (
            issued
            + list_penalty
            + list_latency
            + self.costs.for_op(OP_LIST).transfer_s(len(keys))
        )
        self._record_op(
            OP_LIST,
            prefix,
            len(keys),
            0,
            issued,
            completed - issued,
            stream,
            retries=list_retries,
        )
        for key, retries, duration in deletions:
            physical = (
                self._sizes.pop(key, 0) * self.config.replication_factor
            )
            self._record_op(
                OP_DELETE,
                key,
                0,
                physical,
                completed,
                duration,
                stream,
                retries=retries,
            )
            completed += duration
        if self.arbiter is not None and stream:
            self.arbiter.credit_delete(stream, freed_physical)
        if keys:
            self._record_capacity(max(completed, issued))
        return PrefixDeleteReceipt(
            prefix=prefix,
            keys=tuple(keys),
            freed_logical_bytes=freed_logical,
            freed_physical_bytes=freed_physical,
            issued_s=issued,
            completed_s=completed,
        )

    def exists(self, key: str, stream: str = "") -> bool:
        """HEAD probe: is the key present?"""
        request = StorageRequest(OP_HEAD, key, stream=stream)
        present, retries, penalty, latency = self.engine.attempt_request(
            OP_HEAD,
            lambda: self.backend.head_object(request),
            cost=self.cost_for(OP_HEAD, key),
        )
        self._record_op(
            OP_HEAD,
            key,
            0,
            0,
            self.clock.now,
            penalty + latency,
            stream,
            retries=retries,
        )
        return present

    def list_keys(self, prefix: str = "", stream: str = "") -> list[str]:
        """LIST request: all keys under a prefix, sorted."""
        request = StorageRequest(OP_LIST, prefix, stream=stream)
        keys, retries, penalty, latency = self.engine.attempt_request(
            OP_LIST, lambda: self.backend.list_objects(request)
        )
        self._record_op(
            OP_LIST,
            prefix,
            len(keys),
            0,
            self.clock.now,
            penalty
            + latency
            + self.costs.for_op(OP_LIST).transfer_s(len(keys)),
            stream,
            retries=retries,
        )
        return keys

    def object_size(self, key: str) -> int:
        """Logical size of a stored object.

        Sizes of objects written by this process are tracked in memory;
        objects inherited from a previous process (a durable backend
        reopened after a restart) fall back to reading the backend.
        """
        try:
            return self._sizes[key]
        except KeyError:
            if self.engine.retry_probe(
                OP_HEAD, lambda: self.backend.exists(key)
            ):
                size = len(
                    self.engine.retry_probe(
                        OP_GET, lambda: self.backend.read(key)
                    )
                )
                self._sizes[key] = size
                return size
            raise StorageError(f"no size recorded for {key!r}") from None
