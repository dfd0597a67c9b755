"""The transport seam: selectable inline/pickle/shared-memory backends.

:class:`TransportConfig` is the engine-facing knob.  ``backend``
picks how batches cross the process boundary:

- ``"inline"`` -- no boundary, the serial floor;
- ``"pickle"`` -- the original ``concurrent.futures`` pool, every
  batch pickled both ways (kept as the comparison baseline);
- ``"shm"`` -- :class:`ShmExecutor` below: persistent warm workers
  attached to shared-memory job/result rings, zero pickling on the
  hot path, compiled programs broadcast once through the program
  table.

All three produce byte-identical results (pinned by
``tests/serve/test_backends.py``); they differ only in throughput and
in how much they serialize, which :attr:`BatchOutcome.transport_bytes`
quantifies per batch.

Failure semantics mirror :class:`repro.engine.executor.PoolExecutor`:
a worker death revokes its RUNNING slots, requeues them with a bumped
generation while retry budget remains (charging one attempt, exactly
the resubmission contract the repro.faults chaos drills assert), and
degrades the leftovers to inline execution -- the always-correct
floor.  A transport that cannot even set up its segments or workers
degrades whole-hog to inline rather than failing the drain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

from repro.engine.batcher import Batch
from repro.engine.cache import CompiledProgram
from repro.engine.executor import BatchOutcome, InlineExecutor
from repro.obs.logs import get_logger
from repro.serve.layout import (
    DONE,
    FMT_PICKLE,
    FREE,
    J_FORMAT,
    J_GEN,
    J_JOB_ID,
    J_KERNEL,
    J_LEN_A,
    J_LEN_B,
    J_PROGRAM,
    J_STATE,
    J_TRACE_LEN,
    J_WORKER,
    JOB_FIELDS,
    KERNEL_IDS,
    R_FORMAT,
    R_GEN,
    R_JOB_ID,
    R_KERNEL,
    R_LEN_A,
    R_OK,
    R_STATE,
    READY,
    RESULT_FIELDS,
    RUNNING,
    SlotOverflowError,
    decode_result,
    encode_payload,
)
from repro.serve.ring import RingCapacityError, RingGeometry, ServeSegments

_LOG = get_logger("repro.serve.transport")

#: Transport backends the engine seam accepts.
BACKENDS = ("inline", "pickle", "shm")


@dataclass(frozen=True)
class TransportConfig:
    """How engine batches reach their execution processes."""

    backend: str = "shm"
    #: Worker processes for the pickle/shm backends (>= 1).
    workers: int = 2
    #: Job/result ring capacity in slots (shared by both rings).
    ring_slots: int = 32
    #: Byte capacity of one job payload slot.
    slot_bytes: int = 1 << 16
    #: Byte capacity of one result slot.
    result_slot_bytes: int = 1 << 16
    #: Program-table limits (programs are broadcast once, not per job).
    max_programs: int = 64
    program_table_bytes: int = 1 << 22
    #: Kernels whose programs the engine compiles and broadcasts at
    #: startup so the first request hits warm workers.
    warm_kernels: Tuple[str, ...] = ()
    #: Worker idle-poll cadence (also the parent's collect tick).
    poll_interval_s: float = 0.02

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown transport backend {self.backend!r}; pick from {BACKENDS}"
            )
        if self.backend != "inline" and self.workers < 1:
            raise ValueError(f"{self.backend} transport needs at least one worker")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    def geometry(self) -> RingGeometry:
        return RingGeometry(
            slots=self.ring_slots,
            slot_bytes=self.slot_bytes,
            result_slot_bytes=self.result_slot_bytes,
            max_programs=self.max_programs,
            program_bytes=self.program_table_bytes,
        )


def _job_body_bytes(words: Dict[int, int]) -> int:
    """Bytes the encoded job body occupies, from its header words."""
    if words.get(J_FORMAT) == FMT_PICKLE:
        return int(words.get(J_LEN_A, 0))
    kernel_id = int(words.get(J_KERNEL, 0))
    len_a = int(words.get(J_LEN_A, 0))
    len_b = int(words.get(J_LEN_B, 0))
    trace = int(words.get(J_TRACE_LEN, 0))
    if kernel_id == KERNEL_IDS["dtw"]:
        return 8 * (len_a + len_b) + trace
    if kernel_id == KERNEL_IDS["chain"]:
        return 24 * len_a + trace
    return len_a + len_b + trace


def _result_body_bytes(header) -> int:
    """Bytes the encoded result body occupies, from its header row."""
    len_a = int(header[R_LEN_A])
    if int(header[R_FORMAT]) == FMT_PICKLE or not int(header[R_OK]):
        return len_a
    kernel_id = int(header[R_KERNEL])
    if kernel_id == KERNEL_IDS["chain"]:
        return 16 * len_a + 24
    return 16


@dataclass
class _PendingJob:
    """One job's transit state across publish/retry/collect."""

    batch_index: int
    job_index: int
    kernel: str
    payload: Dict[str, Any]
    program_id: Optional[int]
    attempts: int = 0
    slot: int = -1
    generation: int = -1
    job_id: int = -1


@dataclass
class _BatchState:
    """Per-batch accounting while its jobs ride the ring."""

    batch: Batch
    compiled: CompiledProgram
    results: List[Optional[Dict[str, Any]]]
    remaining: int
    deadline: float
    started: float
    finished: float = 0.0
    transport_bytes: int = 0
    max_attempts: int = 1
    degraded: bool = False


class ShmExecutor:
    """Warm-worker execution over shared-memory job/result rings."""

    backend = "shm"

    def __init__(
        self,
        config: TransportConfig,
        job_timeout_s: float = 30.0,
        max_retries: int = 1,
    ):
        self.config = config
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        self._inline = InlineExecutor()
        self._segments: Optional[ServeSegments] = None
        self._workers: List[Any] = []
        self._broken = False
        self._job_counter = 0
        self._program_ids: Dict[str, int] = {}
        self._unaccounted_program_bytes = 0
        try:
            self._ctx = mp.get_context("fork")
            self._segments = ServeSegments.create(config.geometry())
            self._job_sem = self._ctx.Semaphore(0)
            self._job_lock = self._ctx.Lock()
            self._result_sem = self._ctx.Semaphore(0)
            self._result_lock = self._ctx.Lock()
            self._shutdown = self._ctx.Event()
            self._workers = [None] * config.workers
            for worker_id in range(config.workers):
                self._spawn(worker_id)
        except Exception:
            self._broken = True
            if self._segments is not None:
                self._segments.close()
                self._segments = None
            _LOG.warning(
                "shared-memory transport unavailable; degrading to inline"
            )

    # ------------------------------------------------------------------
    # workers and programs

    def _spawn(self, worker_id: int) -> None:
        from repro.serve.workers import worker_main

        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                self.config.geometry(),
                self._segments.names,
                self._job_sem,
                self._job_lock,
                self._result_sem,
                self._result_lock,
                self._shutdown,
                self.config.poll_interval_s,
            ),
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = process

    def preload(self, compiled: CompiledProgram) -> Optional[int]:
        """Broadcast *compiled* so workers lower it before traffic."""
        return self._program_id(compiled)

    def _program_id(self, compiled: CompiledProgram) -> Optional[int]:
        """The broadcast id for *compiled* (appending on first sight)."""
        if self._segments is None:
            return None
        key = compiled.program_hash
        program_id = self._program_ids.get(key)
        if program_id is not None:
            return program_id
        try:
            program_id, nbytes = self._segments.programs.append(compiled)
        except RingCapacityError:
            _LOG.warning(
                "program table full; batches with new programs run inline"
            )
            return None
        self._program_ids[key] = program_id
        self._unaccounted_program_bytes += nbytes
        return program_id

    # ------------------------------------------------------------------
    # the drain loop

    def run_batches(
        self, items: Sequence[Tuple[Batch, CompiledProgram]]
    ) -> List[BatchOutcome]:
        if self._broken or self._segments is None:
            outcomes = self._inline.run_batches(items)
            for outcome in outcomes:
                outcome.degraded = True
            return outcomes

        now = time.perf_counter()
        states: List[_BatchState] = []
        queue: List[_PendingJob] = []
        for batch_index, (batch, compiled) in enumerate(items):
            program_id = self._program_id(compiled)
            states.append(
                _BatchState(
                    batch=batch,
                    compiled=compiled,
                    results=[None] * len(batch.jobs),
                    remaining=len(batch.jobs),
                    deadline=now + self.job_timeout_s * max(1, len(batch.jobs)),
                    started=now,
                )
            )
            for job_index, job in enumerate(batch.jobs):
                queue.append(
                    _PendingJob(
                        batch_index=batch_index,
                        job_index=job_index,
                        kernel=batch.kernel,
                        payload=job.payload,
                        program_id=program_id,
                    )
                )
        if states:
            # Program broadcasts are transport traffic too; charge them
            # to the drain that triggered them (first batch).
            states[0].transport_bytes += self._unaccounted_program_bytes
            self._unaccounted_program_bytes = 0

        outstanding: Dict[int, _PendingJob] = {}
        queue.reverse()  # pop() from the tail publishes in order
        while queue or outstanding:
            self._publish(queue, outstanding, states)
            self._result_sem.acquire(timeout=self.config.poll_interval_s)
            self._collect(outstanding, states)
            self._reap_dead_workers(queue, outstanding, states)
            self._expire(queue, outstanding, states)

        return [self._outcome(state) for state in states]

    def _publish(
        self,
        queue: List[_PendingJob],
        outstanding: Dict[int, _PendingJob],
        states: List[_BatchState],
    ) -> None:
        """Fill FREE job slots until the ring pushes back."""
        jobs = self._segments.jobs
        while queue:
            record = queue[-1]
            state = states[record.batch_index]
            if record.program_id is None:
                queue.pop()
                state.degraded = True
                self._run_inline(record, state)
                continue
            slot = jobs.first_free()
            if slot is None:
                return  # ring full: natural backpressure, collect first
            try:
                words = encode_payload(
                    record.kernel, record.payload, jobs.data[slot]
                )
            except SlotOverflowError:
                queue.pop()
                state.degraded = True
                self._run_inline(record, state)
                continue
            queue.pop()
            if record.attempts == 0:
                state.transport_bytes += (
                    _job_body_bytes(words) + JOB_FIELDS * 8
                )
            record.attempts += 1
            state.max_attempts = max(state.max_attempts, record.attempts)
            self._job_counter += 1
            record.job_id = self._job_counter
            record.slot = slot
            record.generation = int(jobs.header[slot, J_GEN])
            words[J_GEN] = record.generation
            words[J_JOB_ID] = record.job_id
            words[J_PROGRAM] = record.program_id
            words[J_WORKER] = -1
            jobs.publish(slot, words)
            outstanding[record.job_id] = record
            self._job_sem.release()

    def _collect(
        self, outstanding: Dict[int, _PendingJob], states: List[_BatchState]
    ) -> None:
        """Drain READY result slots; reclaim both sides of each match."""
        results = self._segments.results
        jobs = self._segments.jobs
        for slot in results.find_state(READY):
            header = results.header[slot]
            record = outstanding.get(int(header[R_JOB_ID]))
            fresh = (
                record is not None
                and record.generation == int(header[R_GEN])
            )
            if fresh:
                state = states[record.batch_index]
                try:
                    ok, value, error = decode_result(
                        header, results.data[slot]
                    )
                    result = (
                        {"ok": True, "value": value}
                        if ok
                        else {"ok": False, "error": error}
                    )
                except Exception as decode_error:
                    result = {
                        "ok": False,
                        "error": (
                            f"{type(decode_error).__name__}: {decode_error}"
                        ),
                    }
                state.transport_bytes += (
                    _result_body_bytes(header) + RESULT_FIELDS * 8
                )
                self._finish(record, state, result)
                del outstanding[record.job_id]
                # Reclaim the job slot (DONE by now): bump generation.
                jobs.header[record.slot, J_GEN] = record.generation + 1
                jobs.header[record.slot, J_STATE] = FREE
            # Stale generations are dropped: their job was revoked and
            # rehomed already.  Either way the result slot frees up.
            header[R_STATE] = FREE

    def _reap_dead_workers(
        self,
        queue: List[_PendingJob],
        outstanding: Dict[int, _PendingJob],
        states: List[_BatchState],
    ) -> None:
        for worker_id, process in enumerate(self._workers):
            if process is None or process.is_alive():
                continue
            process.join(timeout=0)
            _LOG.warning(
                "serve worker died; requeueing its slots",
                extra={"worker": worker_id, "exitcode": process.exitcode},
            )
            victims = [
                record
                for record in outstanding.values()
                if record.slot >= 0
                and int(self._segments.jobs.header[record.slot, J_WORKER])
                == worker_id
                and int(self._segments.jobs.header[record.slot, J_STATE])
                in (RUNNING, DONE)
                and int(self._segments.jobs.header[record.slot, J_GEN])
                == record.generation
            ]
            for record in victims:
                self._revoke(record, outstanding, queue, states)
            self._spawn(worker_id)
            # The dead worker may have consumed semaphore posts it never
            # acted on; overposting is harmless, missing posts hang.
            for _ in self._segments.jobs.find_state(READY):
                self._job_sem.release()

    def _expire(
        self,
        queue: List[_PendingJob],
        outstanding: Dict[int, _PendingJob],
        states: List[_BatchState],
    ) -> None:
        """Revoke every outstanding job of batches past their deadline."""
        now = time.perf_counter()
        expired = [
            index
            for index, state in enumerate(states)
            if state.remaining and now > state.deadline
        ]
        if not expired:
            return
        for batch_index in expired:
            state = states[batch_index]
            victims = [
                record
                for record in outstanding.values()
                if record.batch_index == batch_index
            ]
            _LOG.warning(
                "batch timed out on shm transport",
                extra={
                    "batch_id": state.batch.batch_id,
                    "kernel": state.batch.kernel,
                    "jobs": len(victims),
                },
            )
            for record in victims:
                self._revoke(record, outstanding, queue, states)
            # A retried batch gets a fresh attempt window, like the
            # pool's per-attempt future timeout.
            state.deadline = now + self.job_timeout_s * max(
                1, len(state.batch.jobs)
            )

    def _revoke(
        self,
        record: _PendingJob,
        outstanding: Dict[int, _PendingJob],
        queue: List[_PendingJob],
        states: List[_BatchState],
    ) -> None:
        """Take a job off the ring; requeue it or degrade it to inline.

        The generation bump under the claim lock is what guarantees a
        slow or half-dead worker can neither mark the slot DONE nor get
        a stale result accepted afterwards.
        """
        state = states[record.batch_index]
        with self._job_lock:
            header = self._segments.jobs.header[record.slot]
            if int(header[J_GEN]) == record.generation:
                header[J_GEN] = record.generation + 1
                header[J_STATE] = FREE
        outstanding.pop(record.job_id, None)
        record.slot = -1
        record.generation = -1
        if record.attempts <= self.max_retries:
            queue.append(record)  # republish: the resubmission path
        else:
            state.degraded = True
            self._run_inline(record, state)

    def _run_inline(self, record: _PendingJob, state: _BatchState) -> None:
        """The degradation floor for one job (always correct, serial)."""
        from repro.engine.lowering import lowered_cell
        from repro.engine.runners import run_job

        record.attempts += 1
        state.max_attempts = max(state.max_attempts, record.attempts)
        try:
            value = run_job(
                record.kernel,
                state.compiled,
                record.payload,
                lowered_cell(state.compiled),
            )
            result: Dict[str, Any] = {"ok": True, "value": value}
        except Exception as error:
            result = {"ok": False, "error": f"{type(error).__name__}: {error}"}
        self._finish(record, state, result)

    def _finish(
        self,
        record: _PendingJob,
        state: _BatchState,
        result: Dict[str, Any],
    ) -> None:
        if state.results[record.job_index] is None:
            state.remaining -= 1
        state.results[record.job_index] = result
        if state.remaining == 0:
            state.finished = time.perf_counter()

    def _outcome(self, state: _BatchState) -> BatchOutcome:
        finished = state.finished or time.perf_counter()
        return BatchOutcome(
            batch_id=state.batch.batch_id,
            results=[
                result if result is not None else {"ok": False, "error": "lost"}
                for result in state.results
            ],
            backend="inline" if state.degraded else "shm",
            attempts=state.max_attempts,
            execute_seconds=finished - state.started,
            degraded=state.degraded,
            transport_bytes=state.transport_bytes,
        )

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._segments is None:
            return
        self._shutdown.set()
        for process in self._workers:
            if process is None:
                continue
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers = []
        self._segments.close()
        self._segments = None
