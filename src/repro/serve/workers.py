"""Persistent warm workers for the shared-memory transport.

Each worker is a long-lived forked process that attaches the parent's
shared segments by name and loops: wait on the job semaphore, claim a
READY job slot (RUNNING + its worker id, under the claim lock), decode
the payload straight out of shared memory, execute, and write the
result into a claimed result slot.  Nothing crosses a pipe per job --
the only per-job IPC is the two semaphore posts.

Warm means two things here:

- the worker keeps a program cache: each compiled program broadcast
  through the :class:`repro.serve.ring.ProgramTable` is unpickled
  **once**, lowered once (:func:`repro.engine.lowering.lowered_cell`)
  and reused for every subsequent job that names its program id;
- the parent pre-seeds that table with the engine's warm kernels
  before the first job is published, so the first request pays no
  compile, no unpickle and no specialization.

Fault-injection markers decoded from the job header behave exactly as
on the pool backend (:mod:`repro.engine.runners` applies delay/exit
only inside worker processes, which a forked serve worker is).  A
worker that dies mid-job leaves its slot RUNNING with its worker id
stamped -- the parent notices the dead process, requeues the slot with
a bumped generation, and respawns the worker.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.serve.layout import (
    DONE,
    J_GEN,
    J_JOB_ID,
    J_KERNEL,
    J_PROGRAM,
    J_STATE,
    J_WORKER,
    KERNEL_NAMES,
    R_GEN,
    R_JOB_ID,
    R_STATE,
    R_WORKER,
    READY,
    RUNNING,
    decode_payload,
    encode_result,
)
from repro.serve.ring import RingGeometry, SegmentNames, ServeSegments


class _ProgramCache:
    """Worker-side memo of unpickled programs and their lowered cells."""

    def __init__(self, segments: ServeSegments):
        self._segments = segments
        self._entries: Dict[int, Tuple[Any, Optional[Callable]]] = {}

    def get(self, program_id: int) -> Optional[Tuple[Any, Optional[Callable]]]:
        """(compiled, lowered cell or None), or None when unseen."""
        entry = self._entries.get(program_id)
        if entry is not None:
            return entry
        compiled = self._segments.programs.load(program_id)
        if compiled is None:
            return None
        from repro.engine.lowering import lowered_cell

        entry = (compiled, lowered_cell(compiled))
        self._entries[program_id] = entry
        return entry

    def sync(self) -> int:
        """Eagerly absorb newly broadcast programs (idle-tick warmup)."""
        count = self._segments.programs.count
        for program_id in range(count):
            self.get(program_id)
        return count


def _claim_job(segments: ServeSegments, lock, worker_id: int) -> Optional[int]:
    """Move one READY job slot to RUNNING; None when none are READY."""
    with lock:
        for index in segments.jobs.find_state(READY):
            header = segments.jobs.header[index]
            if int(header[J_STATE]) != READY:
                continue
            header[J_WORKER] = worker_id
            header[J_STATE] = RUNNING
            return index
    return None


def _claim_result_slot(segments: ServeSegments, lock) -> Optional[int]:
    from repro.serve.layout import FREE

    with lock:
        for index in segments.results.find_state(FREE):
            header = segments.results.header[index]
            if int(header[R_STATE]) != FREE:
                continue
            header[R_STATE] = RUNNING  # reserved while the body is written
            return index
    return None


def _execute(
    segments: ServeSegments, index: int, cache: _ProgramCache
) -> Tuple[bool, Optional[Dict[str, Any]], Optional[str]]:
    """Run the job in slot *index*; never raises."""
    header = segments.jobs.header[index]
    kernel = KERNEL_NAMES.get(int(header[J_KERNEL]))
    try:
        payload = decode_payload(header, segments.jobs.data[index])
        entry = cache.get(int(header[J_PROGRAM]))
        if entry is None:
            return False, None, f"program {int(header[J_PROGRAM])} not broadcast"
        compiled, cell = entry
        if kernel is None:
            kernel = compiled.kernel
        from repro.engine.runners import run_job

        # run_job interprets jobs that arm sentinels: decode_payload
        # restores ``_sentinels`` from the job header's flag.
        value = run_job(kernel, compiled, payload, cell)
        return True, value, None
    except Exception as error:  # job-level isolation, like the pool
        return False, None, f"{type(error).__name__}: {error}"


def worker_main(
    worker_id: int,
    geometry: RingGeometry,
    names: SegmentNames,
    job_sem,
    job_lock,
    result_sem,
    result_lock,
    shutdown,
    poll_interval_s: float = 0.05,
) -> None:
    """Entry point of one warm worker process."""
    segments = ServeSegments.attach(geometry, names)
    cache = _ProgramCache(segments)
    cache.sync()  # pre-seed: programs broadcast before spawn are warm
    try:
        while not shutdown.is_set():
            if not job_sem.acquire(timeout=poll_interval_s):
                cache.sync()  # idle tick: absorb new broadcasts
                continue
            index = _claim_job(segments, job_lock, worker_id)
            if index is None:
                continue  # another worker raced us to the slot
            job_header = segments.jobs.header[index]
            job_id = int(job_header[J_JOB_ID])
            generation = int(job_header[J_GEN])
            kernel_id = int(job_header[J_KERNEL])
            ok, value, error = _execute(segments, index, cache)

            # Stamp DONE under the lock *iff* the parent has not revoked
            # the slot meanwhile (timeout requeue bumps the generation);
            # a revoked job's result must never enter the ring.
            with job_lock:
                revoked = (
                    int(job_header[J_GEN]) != generation
                    or int(job_header[J_STATE]) != RUNNING
                )
                if not revoked:
                    job_header[J_STATE] = DONE
            if revoked:
                continue

            result_index = None
            while result_index is None and not shutdown.is_set():
                result_index = _claim_result_slot(segments, result_lock)
                if result_index is None:
                    time.sleep(poll_interval_s / 10)
            if result_index is None:
                break  # shutting down with no slot to report into
            kernel = KERNEL_NAMES.get(kernel_id, "")
            result_header = segments.results.header[result_index]
            try:
                words = encode_result(
                    kernel, ok, value, error, segments.results.data[result_index]
                )
            except Exception as encode_error:  # oversized result, etc.
                words = encode_result(
                    kernel,
                    False,
                    None,
                    f"{type(encode_error).__name__}: {encode_error}",
                    segments.results.data[result_index],
                )
            for field, word in words.items():
                result_header[field] = word
            result_header[R_JOB_ID] = job_id
            result_header[R_GEN] = generation
            result_header[R_WORKER] = worker_id
            result_header[R_STATE] = READY  # publish: state word last
            result_sem.release()
    finally:
        segments.close()
        # A worker must never fall back into the parent's atexit hooks.
        os._exit(0)
