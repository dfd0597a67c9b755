"""Benchmark-owned spans around the public entry points of each layer.

Nothing under ``src/`` is edited: :func:`install` replaces module and
class attributes with timing wrappers, in the process that will run the
layer (the bench process for ``batch-long``, the
server process for ``serve-short``).  Forked workers inherit the
wrappers.

A span is ``[name, start, end, span_id, parent_id, request_id, attrs]``
with ``time.perf_counter`` stamps, which are CLOCK_MONOTONIC on Linux
and therefore comparable across the processes of one host.  Spans stay
in memory and are written out when the run ends; a forked worker has no
end hook of its own (its parent stops it), so it appends each span to
its own file as it closes.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

_PARENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)


class SpanRecorder:
    """In-memory spans and counts for one process tree."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.owner_pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._child_file = None

    def add(self, name: str, start: float, end: float, parent=None, request=None, **attrs) -> None:
        self._emit([name, start, end, f"{os.getpid()}:{next(self._ids)}", parent, request, attrs])

    def _emit(self, record: list) -> None:
        if os.getpid() == self.owner_pid:
            self.spans.append(record)
            return
        if self._child_file is None:
            self._child_file = open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8")
        self._child_file.write(json.dumps(record) + "\n")
        self._child_file.flush()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def timed(self, name: str, fn: Callable, attrs_of: Optional[Callable] = None) -> Callable:
        """*fn* wrapped in a span; ``attrs_of(args, kwargs, result)`` adds attributes."""
        recorder = self

        def wrapper(*args, **kwargs):
            span_id = f"{os.getpid()}:{next(recorder._ids)}"
            token = _PARENT.set(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _PARENT.reset(token)
            attrs = attrs_of(args, kwargs, result) if attrs_of is not None else {}
            recorder._emit([name, start, end, span_id, _PARENT.get(), _REQUEST.get(), attrs])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, name: str = "spans") -> Path:
        """Write this process's spans and counts; returns the path."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{name}-{os.getpid()}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)
        return path


def load(out_dir: Path) -> Dict[str, Any]:
    """Every span and count written under *out_dir*, all processes merged."""
    spans: List[list] = []
    counts: Counter = Counter()
    for path in sorted(Path(out_dir).glob("*")):
        if path.suffix == ".jsonl":
            with open(path, "r", encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
        elif path.suffix == ".json":
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            spans.extend(data["spans"])
            counts.update(data["counts"])
    return {"spans": spans, "counts": counts}


def install(recorder: SpanRecorder, serve: bool = False) -> None:
    """Wrap the engine (and, with *serve*, the serving tier) entry points."""
    import repro.engine.batcher as batcher
    import repro.engine.cache as cache
    import repro.engine.executor as executor
    import repro.engine.runners as runners
    import repro.engine.service as service
    import repro.static.certify as certify

    timed = recorder.timed
    service.Engine.submit = timed(
        "engine.service.submit", service.Engine.submit,
        lambda a, k, r: {"job_id": r.job_id})
    service.Engine.drain = timed(
        "engine.service.drain", service.Engine.drain,
        lambda a, k, r: {"jobs": len(r), "job_ids": [x.job_id for x in r]})
    batcher.Batcher.pack = timed(
        "engine.batcher.pack", batcher.Batcher.pack,
        lambda a, k, r: {"batches": len(r), "jobs": sum(len(b.jobs) for b in r)})
    cache.ProgramCache.get_or_compile = timed(
        "engine.cache.lookup", cache.ProgramCache.get_or_compile,
        lambda a, k, r: {"hit": bool(r[1])})
    service.compile_program = timed(
        "dpmap.compile", service.compile_program, lambda a, k, r: {"kernel": a[0]})
    service.check_program = timed("guard.verify", service.check_program)
    certify.compiled_certificate = timed("static.certify", certify.compiled_certificate)

    def outcomes(a, k, r):
        return {
            "batches": len(r),
            "jobs": sum(len(o.results) for o in r),
            "bytes": sum(o.transport_bytes for o in r),
            "retries": sum(o.attempts - 1 for o in r),
            "degraded": sum(1 for o in r if o.degraded),
        }

    executor_classes = [executor.InlineExecutor, executor.PoolExecutor]
    if serve:
        import repro.serve.transport as transport

        executor_classes.append(transport.ShmExecutor)
    for cls in executor_classes:
        cls.run_batches = timed("engine.executor.run_batches", cls.run_batches, outcomes)

    def job_attrs(a, k, r):
        cell = a[3] if len(a) > 3 else k.get("cell")
        cells = r.get("cells", 0) if isinstance(r, dict) else 0
        return {"kernel": a[0], "cells": cells, "codegen": cell is not None}

    runners.run_job = timed("engine.runners.run_job", runners.run_job, job_attrs)
    if serve:
        _install_serve(recorder)


def _install_serve(recorder: SpanRecorder) -> None:
    import repro.durable.journal as journal
    import repro.serve.admission as admission
    import repro.serve.server as server
    import repro.serve.transport as transport
    from repro.serve.layout import FMT_PICKLE, J_FORMAT

    timed = recorder.timed
    check = timed("serve.admission.check", admission.AdmissionController.check,
                  lambda a, k, r: {"admitted": bool(r.admitted)})
    request_ids = itertools.count(1)

    def traced_check(self, *args, **kwargs):
        # Admission is the first layer a request meets: open its id here.
        _REQUEST.set(f"r{next(request_ids)}")
        return check(self, *args, **kwargs)

    admission.AdmissionController.check = traced_check

    make_job = server.make_job

    def traced_make_job(*args, **kwargs):
        job = make_job(*args, **kwargs)
        recorder.add("serve.server.make_job", time.perf_counter(), time.perf_counter(),
                     _PARENT.get(), _REQUEST.get(), job_id=job.job_id)
        return job

    server.make_job = traced_make_job
    journal.Journal.append = timed(
        "durable.journal.append", journal.Journal.append, lambda a, k, r: {"rtype": a[1]})
    encode_frame = journal.encode_frame

    def counted_frame(record):
        frame = encode_frame(record)
        recorder.count("durable.journal.bytes", len(frame))
        return frame

    journal.encode_frame = counted_frame
    fsync = journal.os.fsync

    def counted_fsync(fd):
        recorder.count("durable.journal.fsyncs")
        return fsync(fd)

    journal.os.fsync = counted_fsync
    encode_payload = transport.encode_payload

    def counted_encode(kernel, payload, region):
        header = encode_payload(kernel, payload, region)
        recorder.count("serve.transport.encoded")
        if header.get(J_FORMAT) == FMT_PICKLE:
            recorder.count("serve.transport.pickle_fallback")
        return header

    transport.encode_payload = counted_encode


# ----------------------------------------------------------------------
# analysis


def self_times(spans: Iterable[list]) -> Dict[str, float]:
    """Span id -> its duration minus the part its children cover."""
    spans = list(spans)
    children: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append(span)
    out: Dict[str, float] = {}
    for span in spans:
        covered, cursor = 0.0, span[1]
        for child in sorted(children.get(span[3], ()), key=lambda s: s[1]):
            lo, hi = max(child[1], cursor), min(child[2], span[2])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span[3]] = (span[2] - span[1]) - covered
    return out


def by_name(spans: Iterable[list]) -> Dict[str, List[list]]:
    grouped: Dict[str, List[list]] = defaultdict(list)
    for span in spans:
        grouped[span[0]].append(span)
    return grouped
