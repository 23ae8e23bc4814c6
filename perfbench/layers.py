"""Where the benchmark hooks into the program, all from outside.

Three kinds of wrapper, each installed through a :class:`Patcher`:

* work hooks (every run): completion stamps of trained batches and
  lookups, and a count of checkpoint writes begun;
* layer spans (traced runs only): one span name per layer around the
  public functions of that layer's module;
* calibration delays: a fixed busy-wait added to one public function,
  to show that the benchmark sees a change in that layer.
"""

from __future__ import annotations

import functools
import time

from repro.core.controller import CheckNRun, PendingCheckpoint, PendingRestore
from repro.core.restore import CheckpointRestorer
from repro.core.snapshot import SnapshotManager
from repro.core.tracker import TrackerSet
from repro.core.writer import CheckpointWriter
from repro.core.publisher import OnlinePublisher
from repro.data.reader import ReaderMaster
from repro.distributed.trainer import SimTrainer
from repro.fleet import experiment as fleet_experiment
from repro.fleet.scheduler import FleetScheduler
from repro.model.dlrm import DLRM
from repro.quant import registry as quant_registry
from repro.replication import recovery as repl_recovery
from repro.replication.replicator import PeerReplicator
from repro.serialize import codec, format as frame_format
from repro.serving.fleet import ServingFleet
from repro.serving.server import InferenceServer
from repro.storage.bandwidth import BandwidthArbiter
from repro.storage.engine import PoolTask, StagedGet, StagedPut, TransferEngine

from spans import Patcher, SpanRecorder, traced

#: (owner, attribute names, span name, counter name or None). Owners
#: are classes (methods) or modules (functions imported by name).
LAYER_SPANS = (
    (
        DLRM,
        ("train_step", "forward", "predict_proba", "lookup_rows",
         "dense_state", "load_dense_state", "load_table_rows",
         "reinitialize"),
        "model.dlrm",
        None,
    ),
    (
        ReaderMaster,
        ("next_batch", "begin_interval", "pause", "resume",
         "collect_state", "restore"),
        "data.reader",
        None,
    ),
    (
        TrackerSet,
        ("step_hook", "reset_all", "mark_table_rows", "mask_copies"),
        "core.tracker",
        None,
    ),
    (SimTrainer, ("train_one_batch",), "distributed.trainer", None),
    (SnapshotManager, ("take_snapshot",), "core.snapshot", None),
    (
        CheckNRun,
        ("begin_checkpoint", "finish_checkpoint", "abort_pending",
         "record_skip", "discard_unlanded_write",
         "reset_for_scratch_restart", "begin_restore", "finish_restore",
         "restore_latest", "valid_manifests"),
        "core.controller",
        None,
    ),
    (PendingCheckpoint, ("advance",), "core.controller", None),
    (PendingRestore, ("advance",), "core.controller", None),
    (CheckpointWriter, ("write_checkpoint_steps",), "core.writer", None),
    (PoolTask, ("result",), "quant.wait", None),
    (
        codec,
        ("encode_array", "encode_quantized", "encode_payload"),
        "serialize.encode",
        None,
    ),
    (frame_format, ("encode_frames",), "serialize.encode", None),
    (
        codec,
        ("decode_array", "decode_quantized", "decode_payload"),
        "serialize.decode",
        None,
    ),
    (frame_format, ("decode_frames",), "serialize.decode", None),
    (quant_registry, ("dequantize_tensor",), "quant.dequant", None),
    (
        CheckpointRestorer,
        ("restore_with_fallback_steps", "restore_steps",
         "apply_single_steps", "restore", "apply_single"),
        "core.restore",
        None,
    ),
    (
        CheckpointRestorer,
        ("plan_resume", "list_manifests", "load_manifest", "latest_valid"),
        "core.restore.plan",
        None,
    ),
    (TransferEngine, ("stage_put", "put"), "storage.engine.put", None),
    (StagedPut, ("abort",), "storage.engine.put", None),
    (StagedPut, ("submit_next",), "storage.engine.put", "storage.engine.parts"),
    (TransferEngine, ("stage_get", "get"), "storage.engine.get", None),
    (StagedGet, ("abort",), "storage.engine.get", None),
    (StagedGet, ("submit_next",), "storage.engine.get", "storage.engine.parts"),
    (BandwidthArbiter, ("pick",), "storage.bandwidth.pick",
     "storage.bandwidth.calls"),
    (FleetScheduler, ("run",), "fleet.scheduler", None),
    (fleet_experiment, ("summarize_fleet",), "fleet.report", None),
    (
        PeerReplicator,
        ("on_step", "is_flush_interval", "rebase_rings", "on_job_death",
         "best_replica", "resync_after_recovery"),
        "replication",
        None,
    ),
    (repl_recovery, ("restore_from_peer",), "replication", None),
    (InferenceServer, ("lookup_steps",), "serving.server.lookup", None),
    (InferenceServer, ("flip_steps",), "serving.server.flip", None),
    (OnlinePublisher, ("poll_steps", "poll"), "serving.publisher.poll", None),
    (ServingFleet, ("run",), "serving.fleet", None),
)

#: Internal steps of an entry point's loop, in the same form. The
#: co-simulation loop in ``ServingFleet.run`` spends about 5% of a
#: serving repeat choosing events and checking finished lookups, more
#: than a top-level span may leave unexplained. These are wrapped only
#: while the program still has them.
INTERNAL_SPANS = (
    (ServingFleet, ("_next_event",), "serving.fleet.next_event", None),
    (ServingFleet, ("_finish_lookup",), "serving.fleet.finish_lookup", None),
)


def _wrap(patcher: Patcher, owner, attr: str, make) -> None:
    if isinstance(owner, type):
        patcher.method(owner, attr, make)
    else:
        patcher.function(owner, attr, make)


def install_layer_spans(patcher: Patcher, recorder: SpanRecorder) -> None:
    """Wrap every function of :data:`LAYER_SPANS` (and of
    :data:`INTERNAL_SPANS` that exists) in its layer's span, and run
    pool tasks inside a ``quant.busy`` span on the worker."""
    internal = tuple(
        (owner, tuple(a for a in attrs if a in owner.__dict__), span, counter)
        for owner, attrs, span, counter in INTERNAL_SPANS
    )
    for owner, attrs, span, counter in LAYER_SPANS + internal:
        for attr in attrs:
            _wrap(
                patcher,
                owner,
                attr,
                lambda fn, span=span, counter=counter: traced(
                    recorder, span, fn, counter
                ),
            )

    def submit_task(original):
        @functools.wraps(original)
        def wrapper(self, fn, *args):
            return original(self, traced(recorder, "quant.busy", fn), *args)

        return wrapper

    patcher.method(TransferEngine, "submit_task", submit_task)


class WorkProbe:
    """Completion stamps of trained batches and of lookups, and a count
    of checkpoint writes begun."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.batch_stamps: list[float] = []
        self.lookup_stamps: list[float] = []
        self.writes_begun = 0


def install_work_hooks(patcher: Patcher, probe: WorkProbe) -> None:
    """Stamp every trained batch and finished lookup; count writes."""

    def train_one_batch(original):
        @functools.wraps(original)
        def wrapper(self):
            result = original(self)
            probe.batch_stamps.append(time.perf_counter())
            return result

        return wrapper

    def lookup_steps(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            result = yield from original(self, *args, **kwargs)
            probe.lookup_stamps.append(time.perf_counter())
            return result

        return wrapper

    def begin_checkpoint(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            began = original(self, *args, **kwargs)
            if isinstance(began, PendingCheckpoint):
                probe.writes_begun += 1
            return began

        return wrapper

    patcher.method(SimTrainer, "train_one_batch", train_one_batch)
    patcher.method(InferenceServer, "lookup_steps", lookup_steps)
    patcher.method(CheckNRun, "begin_checkpoint", begin_checkpoint)


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


#: Calibration targets: name -> (class, method). The delay runs each
#: time the method is called (for a generator function, when it is
#: created).
DELAY_TARGETS = {
    "train_step": (DLRM, "train_step"),
    "restore": (CheckpointRestorer, "restore_with_fallback_steps"),
}


def install_delay(patcher: Patcher, target: str, seconds: float) -> None:
    """Add a fixed ``seconds`` busy-wait to one calibration target."""
    cls, attr = DELAY_TARGETS[target]

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            _spin(seconds)
            return original(*args, **kwargs)

        return wrapper

    patcher.method(cls, attr, make)
