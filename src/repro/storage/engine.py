"""The part-granular transfer engine behind the object store.

Historically the write path was scattered across three layers: the
checkpoint writer quantized on the caller's thread and announced whole
chunk PUTs, the fleet scheduler interleaved those whole-chunk
submissions under a fixed ``max_concurrent_writes`` cap, and the object
store fanned multipart parts out over request lanes *inside* one
``put()`` call — so parts of a single chunk always hit the link
back-to-back, retry plumbing stayed dead, and admission control could
not see the backlog it was supposed to govern. The
:class:`TransferEngine` owns all of that in one place:

* **staged, part-granular PUTs** — :meth:`TransferEngine.stage_put`
  decomposes a payload into multipart *parts* (one part for single-shot
  uploads) and returns a :class:`StagedPut` whose parts are submitted
  one at a time; a fleet scheduler can interleave part submissions from
  many jobs, so cross-job fairness holds at part granularity while the
  drain-immediately path stays timing-identical to the old ``put()``;
* **a retry/backoff loop** — transient request failures (the seeded
  per-op-class injection on
  :class:`~repro.storage.remote.RemoteObjectBackend`) are re-issued
  with exponential backoff; wasted attempt latency and backoff are
  charged in simulated time and every receipt's
  :attr:`~repro.storage.requests.OpReceipt.retries` counts them;
* **a quantization worker pool** — real background threads the
  checkpoint writer runs chunk quantization on, so the next chunks'
  quantization overlaps the writer's own encode/submit work in wall
  time, as the simulated quantization lane models it in simulated
  time;
* **backlog-driven admission control** — :class:`AdmissionController`
  replaces the fixed concurrent-write cap: using the
  ``preempt_wait_s``-style backlog signal
  (:func:`~repro.storage.bandwidth.projected_queue_delay_s`, fed with
  the engine's queued-but-unsubmitted part bytes), it defers a new
  checkpoint trigger when the projected queue delay exceeds one
  checkpoint interval — admitting prod, deferring experimental. The
  legacy cap survives as the controller's *static* mode.

The read path is symmetric: :meth:`TransferEngine.stage_get` returns a
:class:`StagedGet` — a GET decomposed into ranged parts submitted one
at a time (one part when the object fits a single request), with the
same retry/backoff loop populating
:attr:`~repro.storage.requests.OpReceipt.retries` — so a fleet restore
storm drains at *part* granularity through the same arbiter instead of
head-of-line whole-chunk reads, and the admission controller's read
side (:meth:`AdmissionController.decide_get`) can pace experimental
restores on the combined read+write backlog while prod restores always
admit.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

from ..errors import (
    CapacityExceededError,
    ObjectExistsError,
    RetriesExhaustedError,
    StorageError,
    TransientStorageError,
)
from .bandwidth import TIER_PROD, Transfer, projected_queue_delay_s
from .requests import OP_GET, OP_HEAD, OP_PUT, OpReceipt, StorageRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .object_store import ObjectStore

T = TypeVar("T")

#: Valid admission-controller modes (write side).
ADMISSION_MODES = ("none", "static", "dynamic")

#: Valid read-side (restore) admission modes: reads have no static cap
#: — a restore is never optional, only *paceable*.
READ_ADMISSION_MODES = ("none", "dynamic")

# ----------------------------------------------------------------------
# Worker pool (real threads; shared across engines)
# ----------------------------------------------------------------------

#: One process-wide pool: engines are created per store and stores are
#: created by the hundreds in tests — per-engine executors would leak
#: threads.
_POOL_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None


def _shared_pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="repro-engine"
            )
        return _POOL


class PoolTask:
    """Handle on one task running on the worker pool; ``result()``
    blocks until the task finished and returns (or raises) its
    outcome.

    A named class rather than the bare future, so the wall-clock
    benchmark (``perfbench/layers.py``) can time the blocking wait.
    """

    def __init__(self, future: Future) -> None:
        self._future = future

    def result(self) -> object:
        return self._future.result()


@dataclass(frozen=True)
class PartPlan:
    """One planned multipart part of a staged PUT."""

    number: int  # 1-based, S3 style
    offset: int
    nbytes: int  # logical bytes in this part


class StagedPut:
    """A PUT decomposed into announced parts, submitted one at a time.

    Produced by :meth:`TransferEngine.stage_put`. Quota is charged and
    capacity checked at stage time (before any link time is spent);
    each :meth:`submit_next` call issues exactly one part request —
    retrying transient failures — and the final call issues the
    multipart completion and returns the :class:`OpReceipt`. Between
    submissions the staged parts count toward the engine's queued-byte
    backlog (the admission controller's signal). :meth:`abort` cancels
    an in-flight upload: no visible object, no orphaned parts, quota
    credited back.
    """

    def __init__(
        self,
        engine: "TransferEngine",
        key: str,
        data: bytes,
        *,
        overwrite: bool = False,
        earliest: float | None = None,
        stream: str = "",
    ) -> None:
        store = engine.store
        if not key:
            raise StorageError("object key must be non-empty")
        exists = engine.retry_probe(
            OP_HEAD, lambda: store.backend.exists(key)
        )
        if exists and not overwrite:
            raise ObjectExistsError(f"object {key!r} already exists")
        self.engine = engine
        self.store = store
        self.key = key
        self.data = data
        self.stream = stream
        self.earliest = earliest
        replication = store.config.replication_factor
        logical = len(data)
        self.logical_bytes = logical
        self.physical_bytes = logical * replication
        previous = store._sizes.get(key, 0)
        if store.config.capacity_bytes is not None:
            # Committed bytes plus every *other* staged write's
            # uncommitted bytes: two writes staged in the same
            # scheduler window must not jointly oversubscribe the hard
            # capacity limit just because neither has committed yet.
            in_flight = sum(
                s.uncommitted_physical_bytes for s in engine._staged
            )
            projected = (
                store.live_physical_bytes
                + in_flight
                - previous * replication
                + self.physical_bytes
            )
            if projected > store.config.capacity_bytes:
                raise CapacityExceededError(
                    f"PUT {key!r} would raise physical usage to "
                    f"{projected} bytes (including staged writes), "
                    f"over the {store.config.capacity_bytes}-byte "
                    "capacity"
                )
        self.charged = self.physical_bytes - previous * replication
        if store.arbiter is not None and stream:
            store.arbiter.admit_put(stream, self.charged)
        part_size = store.backend.part_size_bytes
        self.multipart = part_size is not None and logical > part_size
        if self.multipart:
            assert part_size is not None
            self.parts = tuple(
                PartPlan(i + 1, offset, min(part_size, logical - offset))
                for i, offset in enumerate(range(0, logical, part_size))
            )
        else:
            self.parts = (PartPlan(1, 0, logical),)
        self._next = 0
        self._issued = max(store.clock.now, earliest or 0.0)
        self._started: float | None = None
        self._first_byte: float | None = None
        self._upload_id: str | None = None
        self._lane_free: list[float] | None = None
        self._retries = 0
        self._receipt: OpReceipt | None = None
        self._aborted = False
        engine._register(self)

    # -- introspection -------------------------------------------------

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def next_part_number(self) -> int:
        return min(self._next + 1, self.num_parts)

    @property
    def next_ready_s(self) -> float:
        """Earliest simulated time the next part's data is available."""
        return self._issued

    @property
    def done(self) -> bool:
        return self._receipt is not None

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def receipt(self) -> OpReceipt | None:
        return self._receipt

    @property
    def remaining_physical_bytes(self) -> int:
        """Physical bytes announced but not yet on the link."""
        if self.done or self._aborted:
            return 0
        replication = self.store.config.replication_factor
        return sum(
            p.nbytes for p in self.parts[self._next :]
        ) * replication

    @property
    def uncommitted_physical_bytes(self) -> int:
        """The write's full physical size until it commits or aborts —
        what a concurrent stager must count against hard capacity."""
        if self.done or self._aborted:
            return 0
        return self.physical_bytes

    # -- submission ----------------------------------------------------

    def submit_next(self) -> OpReceipt | None:
        """Issue the next announced part request.

        Returns ``None`` while parts remain; on the last part the
        multipart completion request is issued, the store's accounting
        is committed, and the final receipt is returned. Any failure
        (transient retries exhausted, a crashing backend) aborts the
        upload first — no partial object ever becomes visible.
        """
        if self._receipt is not None:
            return self._receipt
        if self._aborted:
            raise StorageError(
                f"staged PUT {self.key!r} was already aborted"
            )
        try:
            return self._submit_next()
        except Exception:
            self.abort()
            raise

    def _submit_next(self) -> OpReceipt | None:
        if not self.multipart:
            receipt = self._submit_single()
        else:
            receipt = self._submit_part()
        if receipt is not None:
            self._receipt = receipt
            self.store._commit_put(self.key, self.logical_bytes, receipt)
            self.engine._deregister(self)
        return receipt

    def _submit_single(self) -> OpReceipt:
        """One PUT request: latency + bytes, serialised on the link."""
        store = self.store
        cost = store.cost_for(OP_PUT, self.key, self.logical_bytes)
        request = StorageRequest(
            OP_PUT, self.key, self.logical_bytes, stream=self.stream
        )
        _, retries, penalty, latency = self.engine.attempt_request(
            OP_PUT,
            lambda: store.backend.put_object(request, self.data),
            cost=cost,
        )
        duration = penalty + latency + cost.transfer_s(self.physical_bytes)
        span = store.timeline.submit(
            duration, label=f"put:{self.key}", earliest=self.earliest
        )
        store.log.record(
            Transfer(
                self.key,
                self.physical_bytes,
                span.start,
                span.end,
                "put",
                self.stream,
            )
        )
        if store.arbiter is not None and self.stream:
            store.arbiter.on_transfer(
                self.stream, self.physical_bytes, "put"
            )
        self._next = 1
        return OpReceipt(
            op=OP_PUT,
            key=self.key,
            logical_bytes=self.logical_bytes,
            physical_bytes=self.physical_bytes,
            issued_s=self._issued,
            start_s=span.start,
            first_byte_s=min(span.start + penalty + latency, span.end),
            completed_s=span.end,
            retries=retries,
            stream=self.stream,
        )

    def _submit_part(self) -> OpReceipt | None:
        """One multipart part PUT; the last part also completes.

        Parts round-robin over ``backend.fanout`` upload lanes: a
        lane's next part cannot issue before its previous part's bytes
        finished, but *different* lanes' request latencies overlap the
        link's byte time — with fanout > 1 only the first part's
        latency is exposed, the amortisation multipart exists for.
        Between two submissions another stream's parts may claim the
        link; this stream's lanes simply queue behind them, which is
        exactly the part-granular sharing the engine exists for.
        """
        store = self.store
        backend = store.backend
        cost = store.cost_for(OP_PUT, self.key, self.logical_bytes)
        replication = store.config.replication_factor
        fanout = max(1, backend.fanout)
        if self._next == 0:
            # Occupancy starts when the link could serve this op
            # (queueing behind earlier transfers is queue_s, not
            # duration_s — the same semantics single-shot receipts
            # carry).
            self._started = max(self._issued, store.timeline.free_at)
            self._upload_id = backend.create_multipart(self.key)
            self._lane_free = [self._started] * fanout
        assert self._upload_id is not None and self._lane_free is not None
        part = self.parts[self._next]
        chunk = self.data[part.offset : part.offset + part.nbytes]
        lane = self._next % fanout
        upload_id, number = self._upload_id, part.number
        _, retries, penalty, latency = self.engine.attempt_request(
            OP_PUT,
            lambda: backend.upload_part(upload_id, number, chunk),
            cost=cost,
        )
        self._retries += retries
        physical = part.nbytes * replication
        span = store.timeline.submit(
            cost.transfer_s(physical),
            label=f"put-part:{self.key}:{part.number}",
            earliest=self._lane_free[lane] + penalty + latency,
        )
        self._lane_free[lane] = span.end
        if self._first_byte is None:
            self._first_byte = span.start
        store.log.record(
            Transfer(
                f"{self.key}#part{part.number}",
                physical,
                span.start,
                span.end,
                "put",
                self.stream,
            )
        )
        if store.arbiter is not None and self.stream:
            store.arbiter.on_transfer(self.stream, physical, "put")
        self._next += 1
        if self._next < len(self.parts):
            return None
        # The completion request publishes the object: one more
        # PUT-class latency, control-plane only (no link bytes).
        _, retries, penalty, latency = self.engine.attempt_request(
            OP_PUT, lambda: backend.complete_multipart(upload_id), cost=cost
        )
        self._retries += retries
        self._upload_id = None
        completed = max(self._lane_free) + penalty + latency
        assert self._started is not None and self._first_byte is not None
        return OpReceipt(
            op=OP_PUT,
            key=self.key,
            logical_bytes=self.logical_bytes,
            physical_bytes=self.physical_bytes,
            issued_s=self._issued,
            start_s=self._started,
            first_byte_s=self._first_byte,
            completed_s=completed,
            parts=len(self.parts),
            retries=self._retries,
            stream=self.stream,
        )

    def abort(self) -> None:
        """Cancel the staged write: abort the multipart upload (parts
        already staged become unreachable, the object never becomes
        visible) and credit the quota charge back to the stream."""
        if self._receipt is not None or self._aborted:
            return
        self._aborted = True
        if self._upload_id is not None:
            self.store.backend.abort_multipart(self._upload_id)
            self._upload_id = None
        if self.store.arbiter is not None and self.stream:
            self.store.arbiter.credit_delete(self.stream, self.charged)
        self.engine._deregister(self)


class StagedGet:
    """A GET decomposed into announced ranged parts, submitted one at a
    time — the read-side mirror of :class:`StagedPut`.

    Produced by :meth:`TransferEngine.stage_get`. Against a backend
    advertising ``range_get_bytes``, a whole-object read larger than
    that window splits into ranged sub-GETs fanned over the backend's
    request lanes; anything else is a single part. Each
    :meth:`submit_next` call issues exactly one request — retrying
    transient failures through the engine's backoff loop — and the
    final call records the :class:`OpReceipt` (``retries`` populated)
    in the store's op log. Between submissions the announced parts
    count toward the engine's queued *read* backlog, the signal the
    read-side admission controller paces experimental restores on, and
    another stream's parts may claim the link — so a restore storm
    drains at part granularity instead of head-of-line whole-chunk
    reads. Draining a staged GET uninterrupted is timing-identical to
    :meth:`TransferEngine.get`.
    """

    def __init__(
        self,
        engine: "TransferEngine",
        key: str,
        *,
        earliest: float | None = None,
        stream: str = "",
        byte_range: tuple[int, int] | None = None,
    ) -> None:
        store = engine.store
        if not key:
            raise StorageError("object key must be non-empty")
        self.engine = engine
        self.store = store
        self.key = key
        self.stream = stream
        self.earliest = earliest
        self.byte_range = byte_range
        window = store.backend.range_get_bytes
        known = store._sizes.get(key)
        self.ranged = (
            byte_range is None
            and window is not None
            and known is not None
            and known > window
        )
        self._issued = max(store.clock.now, earliest or 0.0)
        if self.ranged:
            assert window is not None and known is not None
            self.size = known
            self.parts: tuple[tuple[int, int], ...] = tuple(
                (start, min(start + window, known))
                for start in range(0, known, window)
            )
        else:
            # Single-shot: the whole object, or just the explicit
            # range, in one request. The expected byte count feeds the
            # queued-read backlog signal, so a ranged probe of a huge
            # object must announce only its window — and an object of
            # unknown size announces 0 until its bytes arrive.
            if byte_range is not None:
                start, stop = byte_range
                expected = max(0, stop - start)
                if known is not None:
                    expected = min(expected, max(0, known - start))
            else:
                expected = known if known is not None else 0
            self.size = expected
            self.parts = ((0, expected),)
        self._next = 0
        self._pieces: list[bytes] = []
        self._lane_free: list[float] | None = None
        self._started: float | None = None
        self._first_byte: float | None = None
        self._retries = 0
        self._receipt: OpReceipt | None = None
        self._aborted = False
        engine._register_get(self)

    # -- introspection -------------------------------------------------

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def next_part_number(self) -> int:
        return min(self._next + 1, self.num_parts)

    @property
    def next_ready_s(self) -> float:
        """Earliest simulated time the next part could be requested."""
        return self._issued

    @property
    def done(self) -> bool:
        return self._receipt is not None

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def receipt(self) -> OpReceipt | None:
        return self._receipt

    @property
    def remaining_bytes(self) -> int:
        """Bytes announced but not yet requested on the link."""
        if self.done or self._aborted:
            return 0
        return sum(stop - start for start, stop in self.parts[self._next :])

    def data(self) -> bytes:
        """The assembled object bytes (only once ``done``)."""
        if self._receipt is None:
            raise StorageError(
                f"staged GET {self.key!r} has unsubmitted parts"
            )
        return b"".join(self._pieces)

    # -- submission ----------------------------------------------------

    def submit_next(self) -> OpReceipt | None:
        """Issue the next announced ranged (or whole-object) request.

        Returns ``None`` while parts remain; the last part records and
        returns the final :class:`OpReceipt`.
        """
        if self._receipt is not None:
            return self._receipt
        if self._aborted:
            raise StorageError(
                f"staged GET {self.key!r} was already aborted"
            )
        try:
            receipt = (
                self._submit_part() if self.ranged else self._submit_single()
            )
        except Exception:
            self.abort()
            raise
        if receipt is not None:
            self._receipt = receipt
            self.store.ops.record(receipt)
            self.engine._deregister_get(self)
        return receipt

    def _submit_single(self) -> OpReceipt:
        """One GET request: latency + bytes, serialised on the link."""
        store = self.store
        cost = store.cost_for(OP_GET, self.key)
        request = StorageRequest(
            OP_GET, self.key, stream=self.stream, byte_range=self.byte_range
        )
        data, retries, penalty, latency = self.engine.attempt_request(
            OP_GET, lambda: store.backend.get_object(request), cost=cost
        )
        duration = penalty + latency + cost.transfer_s(len(data))
        span = store.timeline.submit(
            duration, label=f"get:{self.key}", earliest=self.earliest
        )
        store.log.record(
            Transfer(
                self.key, len(data), span.start, span.end, "get", self.stream
            )
        )
        if store.arbiter is not None and self.stream:
            store.arbiter.on_transfer(self.stream, len(data), "get")
        self._pieces.append(data)
        self._next = 1
        return OpReceipt(
            op=OP_GET,
            key=self.key,
            logical_bytes=len(data),
            physical_bytes=len(data),
            issued_s=self._issued,
            start_s=span.start,
            first_byte_s=min(span.start + penalty + latency, span.end),
            completed_s=span.end,
            retries=retries,
            stream=self.stream,
        )

    def _submit_part(self) -> OpReceipt | None:
        """One ranged sub-GET; lanes overlap request latencies exactly
        as :class:`StagedPut` parts do on the write side."""
        store = self.store
        cost = store.cost_for(OP_GET, self.key)
        fanout = max(1, store.backend.fanout)
        if self._next == 0:
            self._started = max(self._issued, store.timeline.free_at)
            self._lane_free = [self._started] * fanout
        assert self._lane_free is not None
        index = self._next
        start, stop = self.parts[index]
        request = StorageRequest(
            OP_GET, self.key, stream=self.stream, byte_range=(start, stop)
        )
        chunk, retries, penalty, latency = self.engine.attempt_request(
            OP_GET, lambda: store.backend.get_object(request), cost=cost
        )
        self._retries += retries
        lane = index % fanout
        span = store.timeline.submit(
            cost.transfer_s(len(chunk)),
            label=f"get-range:{self.key}:{index}",
            earliest=self._lane_free[lane] + penalty + latency,
        )
        self._lane_free[lane] = span.end
        if self._first_byte is None:
            self._first_byte = span.start
        self._pieces.append(chunk)
        store.log.record(
            Transfer(
                f"{self.key}#range{index}",
                len(chunk),
                span.start,
                span.end,
                "get",
                self.stream,
            )
        )
        if store.arbiter is not None and self.stream:
            store.arbiter.on_transfer(self.stream, len(chunk), "get")
        self._next += 1
        if self._next < len(self.parts):
            return None
        assert self._started is not None and self._first_byte is not None
        return OpReceipt(
            op=OP_GET,
            key=self.key,
            logical_bytes=self.size,
            physical_bytes=self.size,
            issued_s=self._issued,
            start_s=self._started,
            first_byte_s=self._first_byte,
            completed_s=max(self._lane_free),
            parts=len(self.parts),
            retries=self._retries,
            stream=self.stream,
        )

    def abort(self) -> None:
        """Abandon the staged read (nothing to roll back server-side —
        GETs mutate no state — but the queued-byte backlog is released
        so the admission signal does not count a dead restore)."""
        if self._receipt is not None or self._aborted:
            return
        self._aborted = True
        self.engine._deregister_get(self)


class TransferEngine:
    """Owns staged parts, retries, the worker pool, and backlog signals
    for one :class:`~repro.storage.object_store.ObjectStore`."""

    def __init__(self, store: "ObjectStore") -> None:
        self.store = store
        self.max_retries = store.config.max_retries
        self.retry_backoff_s = store.config.retry_backoff_s
        self._staged: list[StagedPut] = []
        self._staged_gets: list[StagedGet] = []
        #: Successful-request retry ledger per op class (probe retries
        #: included; receipts carry the per-request counts).
        self.retries_by_op: dict[str, int] = {}

    # -- staged-put registry -------------------------------------------

    def _register(self, staged: StagedPut) -> None:
        self._staged.append(staged)

    def _deregister(self, staged: StagedPut) -> None:
        try:
            self._staged.remove(staged)
        except ValueError:  # pragma: no cover - defensive
            pass

    def staged_puts(self) -> list[StagedPut]:
        """Staged writes with parts still awaiting submission."""
        return list(self._staged)

    def queued_put_bytes(self) -> int:
        """Physical bytes announced (staged) but not yet on the link."""
        return sum(s.remaining_physical_bytes for s in self._staged)

    def projected_queue_delay_s(self, now: float) -> float:
        """The backlog signal: link busy time past ``now`` plus the
        service time of every queued (announced, unsubmitted) part."""
        return projected_queue_delay_s(
            self.store.timeline.free_at,
            now,
            self.queued_put_bytes(),
            self.store.costs.for_op(OP_PUT).seconds_per_byte,
        )

    # -- staged-get registry -------------------------------------------

    def _register_get(self, staged: StagedGet) -> None:
        self._staged_gets.append(staged)

    def _deregister_get(self, staged: StagedGet) -> None:
        try:
            self._staged_gets.remove(staged)
        except ValueError:  # pragma: no cover - defensive
            pass

    def staged_gets(self) -> list[StagedGet]:
        """Staged reads with parts still awaiting submission."""
        return list(self._staged_gets)

    def queued_get_bytes(self) -> int:
        """Bytes announced for reading (staged) but not yet requested."""
        return sum(s.remaining_bytes for s in self._staged_gets)

    def projected_restore_delay_s(self, now: float) -> float:
        """The read-side backlog signal: link busy time past ``now``
        plus the service time of every queued part on *either* side of
        the link — staged write parts at the PUT byte rate and staged
        read parts at the GET byte rate. A restore queues behind both,
        so the read-side admission controller paces on their sum."""
        write_backlog = self.projected_queue_delay_s(now)
        return write_backlog + self.queued_get_bytes() * (
            self.store.costs.for_op(OP_GET).seconds_per_byte
        )

    # -- retry / backoff -----------------------------------------------

    def attempt_request(
        self, op: str, call: Callable[[], T], cost=None
    ) -> tuple[T, int, float, float]:
        """Issue one backend request through the retry/backoff loop.

        Returns ``(result, retries, penalty_s, latency_s)``:
        ``penalty_s`` is the simulated time the failed attempts cost
        (each wasted attempt's request latency plus exponential
        backoff) and ``latency_s`` the successful attempt's request
        latency — callers add both to the op's timed duration. Raises
        :class:`RetriesExhaustedError` once ``max_retries`` re-issues
        all failed transiently.

        ``cost`` overrides the op-class cost model the request's
        latency draws from — callers that price per *request* (a cache
        tier's hit/miss pricing via ``store.cost_for``, the cache's
        far-tier flushes) pass the resolved model; ``None`` keeps the
        store-level suite.
        """
        if cost is None:
            cost = self.store.costs.for_op(op)
        rng = self.store._rng
        retries = 0
        penalty = 0.0
        while True:
            latency = cost.latency_s(rng)
            try:
                result = call()
            except TransientStorageError as exc:
                if retries >= self.max_retries:
                    raise RetriesExhaustedError(
                        f"{op} request failed transiently "
                        f"{retries + 1} times (retry budget "
                        f"{self.max_retries}): {exc}"
                    ) from exc
                penalty += latency + self.retry_backoff_s * (2.0**retries)
                retries += 1
                continue
            if retries:
                self.retries_by_op[op] = (
                    self.retries_by_op.get(op, 0) + retries
                )
            return result, retries, penalty, latency

    def retry_probe(self, op: str, call: Callable[[], T]) -> T:
        """Retry loop for free (untimed) probes, e.g. the overwrite
        check inside ``put`` — same budget, no simulated cost."""
        retries = 0
        while True:
            try:
                result = call()
            except TransientStorageError as exc:
                if retries >= self.max_retries:
                    raise RetriesExhaustedError(
                        f"{op} probe failed transiently "
                        f"{retries + 1} times (retry budget "
                        f"{self.max_retries}): {exc}"
                    ) from exc
                retries += 1
                continue
            if retries:
                self.retries_by_op[op] = (
                    self.retries_by_op.get(op, 0) + retries
                )
            return result

    # -- PUT path ------------------------------------------------------

    def stage_put(
        self,
        key: str,
        data: bytes,
        *,
        overwrite: bool = False,
        earliest: float | None = None,
        stream: str = "",
    ) -> StagedPut:
        """Announce a PUT as individually submittable parts."""
        return StagedPut(
            self,
            key,
            data,
            overwrite=overwrite,
            earliest=earliest,
            stream=stream,
        )

    def put(
        self,
        key: str,
        data: bytes,
        *,
        overwrite: bool = False,
        earliest: float | None = None,
        stream: str = "",
    ) -> OpReceipt:
        """Stage a PUT and drain it immediately (parts back-to-back).

        The single-caller path: timing is identical to staging the same
        write and submitting every part without interleaved traffic.
        """
        staged = self.stage_put(
            key, data, overwrite=overwrite, earliest=earliest, stream=stream
        )
        receipt = None
        while receipt is None:
            receipt = staged.submit_next()
        return receipt

    # -- GET path ------------------------------------------------------

    def stage_get(
        self,
        key: str,
        *,
        earliest: float | None = None,
        stream: str = "",
        byte_range: tuple[int, int] | None = None,
    ) -> StagedGet:
        """Announce a GET as individually submittable ranged parts."""
        return StagedGet(
            self,
            key,
            earliest=earliest,
            stream=stream,
            byte_range=byte_range,
        )

    def get(
        self,
        key: str,
        earliest: float | None = None,
        stream: str = "",
        byte_range: tuple[int, int] | None = None,
    ) -> bytes:
        """Stage a GET and drain it immediately (parts back-to-back).

        The single-caller path: timing is identical to staging the same
        read and submitting every ranged part without interleaved
        traffic.
        """
        staged = self.stage_get(
            key, earliest=earliest, stream=stream, byte_range=byte_range
        )
        while not staged.done:
            staged.submit_next()
        return staged.data()

    # -- worker pool ---------------------------------------------------

    def submit_task(self, fn: Callable[..., T], *args: object) -> PoolTask:
        """Run ``fn(*args)`` on the background worker pool.

        The checkpoint writer submits chunk quantization here so the
        wall time of the next chunks' quantization overlaps the
        caller's own encode/submit work, like the simulated
        quantization lane overlaps the storage timeline.
        """
        return PoolTask(_shared_pool().submit(fn, *args))


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one checkpoint-trigger admission check."""

    admitted: bool
    reason: str  # "admitted", "static_cap", or "backlog"
    projected_delay_s: float
    threshold_s: float | None = None


class AdmissionController:
    """Decides whether a checkpoint trigger may start writing now.

    Three modes:

    * ``"none"`` — every trigger is admitted (no control);
    * ``"static"`` — the legacy fixed cap: defer whenever
      ``active_writes >= max_concurrent`` (the deprecation target of
      ``FleetConfig.max_concurrent_writes``), tier-blind;
    * ``"dynamic"`` — backlog-driven: prod triggers are always
      admitted; an experimental trigger is deferred when the engine's
      projected queue delay (link busy time plus queued part bytes)
      exceeds ``backlog_factor`` x the job's own checkpoint interval.
      A checkpoint that would queue longer than the interval it covers
      is stale before it lands — deferring it sheds load exactly when
      the shared store is saturated.

    The *read side* (``read_mode``, :meth:`decide_get`) paces restores
    instead of skipping them — a restore is never optional, so there is
    no static cap and a deferral means "wait out the backlog", not
    "drop the read". In ``"dynamic"`` read mode an experimental
    restore is deferred while the engine's projected *restore* delay
    (write backlog plus queued read parts) exceeds
    ``read_backlog_factor`` x the job's checkpoint interval; prod
    restores always admit, preserving the storm's prod-first drain.
    """

    def __init__(
        self,
        engine: TransferEngine,
        mode: str = "none",
        max_concurrent: int | None = None,
        backlog_factor: float = 1.0,
        read_mode: str = "none",
        read_backlog_factor: float = 1.0,
    ) -> None:
        if mode not in ADMISSION_MODES:
            raise StorageError(
                f"unknown admission mode {mode!r}; valid: "
                f"{ADMISSION_MODES}"
            )
        if read_mode not in READ_ADMISSION_MODES:
            raise StorageError(
                f"unknown read admission mode {read_mode!r}; valid: "
                f"{READ_ADMISSION_MODES}"
            )
        if mode == "static" and (
            max_concurrent is None or max_concurrent < 1
        ):
            raise StorageError(
                "static admission mode needs max_concurrent >= 1"
            )
        if backlog_factor <= 0:
            raise StorageError("backlog_factor must be > 0")
        if read_backlog_factor <= 0:
            raise StorageError("read_backlog_factor must be > 0")
        self.engine = engine
        self.mode = mode
        self.read_mode = read_mode
        self.max_concurrent = max_concurrent
        self.backlog_factor = backlog_factor
        self.read_backlog_factor = read_backlog_factor
        self.admitted = 0
        self.deferrals_by_stream: dict[str, int] = {}
        self.deferrals_by_tier: dict[str, int] = {}
        self.read_admitted = 0
        self.read_deferrals_by_stream: dict[str, int] = {}
        self.read_deferrals_by_tier: dict[str, int] = {}

    @property
    def total_deferrals(self) -> int:
        return sum(self.deferrals_by_stream.values())

    @property
    def total_read_deferrals(self) -> int:
        return sum(self.read_deferrals_by_stream.values())

    def _defer(
        self,
        stream: str,
        tier: str,
        reason: str,
        projected: float,
        threshold: float | None,
    ) -> AdmissionDecision:
        self.deferrals_by_stream[stream] = (
            self.deferrals_by_stream.get(stream, 0) + 1
        )
        self.deferrals_by_tier[tier] = (
            self.deferrals_by_tier.get(tier, 0) + 1
        )
        return AdmissionDecision(False, reason, projected, threshold)

    def decide(
        self,
        *,
        stream: str,
        tier: str,
        now: float,
        interval_s: float | None = None,
        active_writes: int = 0,
    ) -> AdmissionDecision:
        """Admit or defer one checkpoint trigger.

        ``interval_s`` is the job's measured checkpoint interval (None
        on its first trigger, which is always admitted in dynamic
        mode); ``active_writes`` feeds the static cap.
        """
        projected = self.engine.projected_queue_delay_s(now)
        if self.mode == "static":
            assert self.max_concurrent is not None
            if active_writes >= self.max_concurrent:
                return self._defer(
                    stream, tier, "static_cap", projected, None
                )
        elif self.mode == "dynamic":
            if tier != TIER_PROD and interval_s is not None:
                threshold = self.backlog_factor * interval_s
                if projected > threshold:
                    return self._defer(
                        stream, tier, "backlog", projected, threshold
                    )
        self.admitted += 1
        return AdmissionDecision(True, "admitted", projected)

    def decide_get(
        self,
        *,
        stream: str,
        tier: str,
        now: float,
        interval_s: float | None = None,
    ) -> AdmissionDecision:
        """Admit or defer one restore (read-side pacing).

        A deferred decision carries the projection and threshold so the
        caller can wait out exactly ``projected - threshold`` seconds
        and then proceed — restores are paced, never dropped.
        ``interval_s`` is the job's measured checkpoint interval (None
        before the second trigger, which always admits).
        """
        projected = self.engine.projected_restore_delay_s(now)
        if (
            self.read_mode == "dynamic"
            and tier != TIER_PROD
            and interval_s is not None
        ):
            threshold = self.read_backlog_factor * interval_s
            if projected > threshold:
                self.read_deferrals_by_stream[stream] = (
                    self.read_deferrals_by_stream.get(stream, 0) + 1
                )
                self.read_deferrals_by_tier[tier] = (
                    self.read_deferrals_by_tier.get(tier, 0) + 1
                )
                return AdmissionDecision(
                    False, "read_backlog", projected, threshold
                )
        self.read_admitted += 1
        return AdmissionDecision(True, "admitted", projected)
