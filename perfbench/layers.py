"""Per-layer metrics from a traced run.

Every workload reports every name in :data:`PER_LAYER`.  A layer that is
not on a workload's path reads 0 there (for example the journal on
``batch-long`` or ``dpax.*`` on ``serve-short``); that 0 is the
prediction "no change on this workload" in the metric map of NOTES.md.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, Tuple

import harness
import tracing

ENGINE_KERNELS = ("bsw", "pairhmm", "lcs", "dtw", "chain")
SIM_KERNELS = ("bsw", "pairhmm", "chain", "poa")
STALL_REASONS = ("compute_busy", "compute_fence", "in_empty", "fifo_empty", "out_full", "fifo_full", "dest_full")

PER_LAYER: List[Tuple[str, str]] = (
    [
        ("serve.server.queue_wait_ms", "ms"),
        ("serve.server.jobs_per_drain", "jobs"),
        ("serve.admission.decide_us", "us"),
        ("serve.admission.refused_ratio", "ratio"),
        ("durable.journal.append_us", "us"),
        ("durable.journal.records", "count"),
        ("durable.journal.bytes", "bytes"),
        ("durable.journal.fsyncs", "count"),
        ("engine.service.submit_us", "us"),
        ("engine.service.drain_self_ms", "ms"),
        ("engine.batcher.batches", "count"),
        ("engine.batcher.jobs_per_batch", "jobs"),
        ("engine.cache.hit_ratio", "ratio"),
    ]
    + [(f"dpmap.compile_ms.{k}", "ms") for k in ENGINE_KERNELS]
    + [
        ("static.certify_ms", "ms"),
        ("guard.verify_ms", "ms"),
        ("engine.executor.wait_ms", "ms"),
        ("engine.executor.bytes_per_job", "bytes"),
        ("serve.transport.pickle_fallback_ratio", "ratio"),
        ("engine.executor.retries", "count"),
        ("engine.executor.degraded_batches", "count"),
    ]
    + [(f"engine.runners.run_job_ms.{k}", "ms") for k in ENGINE_KERNELS]
    + [(f"engine.runners.cells_per_s.{k}", "cells/s") for k in ENGINE_KERNELS]
    + [("engine.runners.codegen_ratio", "ratio"), ("engine.workers.busy_ratio", "ratio")]
    + [("engine.runners.dtw_truncation_ratio", "ratio")]
    + [(f"mapping.build_ms.{k}", "ms") for k in SIM_KERNELS]
    + [(f"dpax.host_us_per_cycle.{k}", "us/cycle") for k in SIM_KERNELS]
    + [(f"dpax.cycles.{k}", "cycles") for k in SIM_KERNELS]
    + [(f"dpax.bundles_issued.{k}", "count") for k in SIM_KERNELS]
    + [(f"dpax.stall_cycles.{r}", "cycles") for r in STALL_REASONS]
    + [(f"perfmodel.cycles_gap.{k}", "ratio") for k in SIM_KERNELS]
    + [("obs.trace_overhead_ratio", "ratio"), ("serve.residual_ms", "ms")]
)

_UNITS = dict(PER_LAYER)


def _zero_fill(metrics: harness.Metrics) -> None:
    for name, unit in PER_LAYER:
        if name not in metrics.values:
            metrics.put(name, 0, unit, 0)


def _ms(span) -> float:
    return (span[2] - span[1]) * 1000.0


def _median_or_zero(values) -> float:
    values = list(values)
    return harness.median(values) if values else 0.0


def _put(metrics, name, value, samples) -> None:
    metrics.put(name, value, _UNITS[name], samples)


def engine_layers(
    metrics: harness.Metrics, data: Dict[str, Any], workers: int, since: float, exact_until: float = math.inf
) -> Dict[str, Any]:
    """Engine-side layers (``engine.*``, ``dpmap``, ``static``, ``guard``).

    Compiles, certification and verification count from set-up on; the
    per-job layers only from *since*, when the measured phases began.
    ``engine.executor.bytes_per_job`` counts only the batches begun before
    *exact_until*: a span of time whose job set the seed alone decides,
    so that the count repeats exactly.
    """
    spans = data["spans"]
    selfs = tracing.self_times(spans)
    named = tracing.by_name(spans)
    setup_named = named
    named = tracing.by_name(s for s in spans if s[1] >= since)
    submits = named["engine.service.submit"]
    _put(metrics, "engine.service.submit_us", _median_or_zero((s[2] - s[1]) * 1e6 for s in submits), len(submits))
    drains = named["engine.service.drain"]
    _put(metrics, "engine.service.drain_self_ms", _median_or_zero(selfs[s[3]] * 1000.0 for s in drains), len(drains))
    packs = named["engine.batcher.pack"]
    batches = sum(s[6]["batches"] for s in packs)
    _put(metrics, "engine.batcher.batches", batches, len(packs))
    _put(metrics, "engine.batcher.jobs_per_batch", sum(s[6]["jobs"] for s in packs) / batches if batches else 0, len(packs))
    lookups = named["engine.cache.lookup"]
    _put(metrics, "engine.cache.hit_ratio", sum(1 for s in lookups if s[6]["hit"]) / len(lookups) if lookups else 0, len(lookups))
    compiles = setup_named["dpmap.compile"]
    for kernel in ENGINE_KERNELS:
        mine = [_ms(s) for s in compiles if s[6]["kernel"] == kernel]
        _put(metrics, f"dpmap.compile_ms.{kernel}", _median_or_zero(mine), len(mine))
    for layer, name in (("static.certify_ms", "static.certify"), ("guard.verify_ms", "guard.verify")):
        _put(metrics, layer, _median_or_zero(map(_ms, setup_named[name])), len(setup_named[name]))
    run_ids = {s[3] for s in named["engine.executor.run_batches"]}
    runs = [s for s in named["engine.executor.run_batches"] if s[4] not in run_ids]  # outermost only
    jobs = sum(s[6]["jobs"] for s in runs)
    _put(metrics, "engine.executor.wait_ms", _median_or_zero(map(_ms, runs)), len(runs))
    fixed = [s for s in runs if s[1] < exact_until]
    fixed_jobs = sum(s[6]["jobs"] for s in fixed)
    _put(metrics, "engine.executor.bytes_per_job",
         sum(s[6]["bytes"] for s in fixed) / fixed_jobs if fixed_jobs else 0, fixed_jobs)
    _put(metrics, "engine.executor.retries", sum(s[6]["retries"] for s in runs), len(runs))
    _put(metrics, "engine.executor.degraded_batches", sum(s[6]["degraded"] for s in runs), len(runs))
    jobs_run = named["engine.runners.run_job"]
    for kernel in ENGINE_KERNELS:
        mine = [s for s in jobs_run if s[6]["kernel"] == kernel]
        busy = sum(s[2] - s[1] for s in mine)
        _put(metrics, f"engine.runners.run_job_ms.{kernel}", _median_or_zero(map(_ms, mine)), len(mine))
        _put(metrics, f"engine.runners.cells_per_s.{kernel}", sum(s[6]["cells"] for s in mine) / busy if busy else 0, len(mine))
    cells = sum(s[6]["cells"] for s in jobs_run)
    coded = sum(s[6]["cells"] for s in jobs_run if s[6]["codegen"])
    _put(metrics, "engine.runners.codegen_ratio", coded / cells if cells else 0, len(jobs_run))
    if jobs_run:
        window = max(s[2] for s in jobs_run) - min(s[1] for s in jobs_run)
        busy = sum(s[2] - s[1] for s in jobs_run) / (workers * window) if window > 0 else 0
        _put(metrics, "engine.workers.busy_ratio", busy, len(jobs_run))
    _zero_fill(metrics)
    return {"self_ms_by_layer": self_ms_by_layer(spans, selfs)}


def self_ms_by_layer(spans, selfs) -> Dict[str, Dict[str, float]]:
    """Total self time and call count of every span name."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"self_ms": 0.0, "calls": 0})
    for span in spans:
        table[span[0]]["self_ms"] += selfs[span[3]] * 1000.0
        table[span[0]]["calls"] += 1
    return dict(table)


def serve_layers(metrics: harness.Metrics, data: Dict[str, Any], traced: Dict[str, Any], workers: int) -> Dict[str, Any]:
    """Serving-tier layers, the per-request budget, then the engine layers."""
    spans = data["spans"]
    counts = data["counts"]
    named = tracing.by_name(s for s in spans if s[1] >= traced["measure_start"])
    checks = named["serve.admission.check"]
    _put(metrics, "serve.admission.decide_us", _median_or_zero((s[2] - s[1]) * 1e6 for s in checks), len(checks))
    refused = sum(1 for s in checks if not s[6]["admitted"])
    _put(metrics, "serve.admission.refused_ratio", refused / len(checks) if checks else 0, len(checks))
    appends = named["durable.journal.append"]
    _put(metrics, "durable.journal.append_us", _median_or_zero((s[2] - s[1]) * 1e6 for s in appends), len(appends))
    _put(metrics, "durable.journal.records", len(appends), len(appends))
    _put(metrics, "durable.journal.bytes", counts.get("durable.journal.bytes", 0), len(appends))
    _put(metrics, "durable.journal.fsyncs", counts.get("durable.journal.fsyncs", 0), len(appends))
    encoded = counts.get("serve.transport.encoded", 0)
    _put(metrics, "serve.transport.pickle_fallback_ratio",
         counts.get("serve.transport.pickle_fallback", 0) / encoded if encoded else 0, encoded)

    drains = named["engine.service.drain"]
    _put(metrics, "serve.server.jobs_per_drain", sum(s[6]["jobs"] for s in drains) / len(drains) if drains else 0, len(drains))
    drain_of = {job: s for s in drains for job in s[6]["job_ids"]}
    admitted = {s[6]["job_id"]: s for s in named["serve.server.make_job"]}
    waits = [
        (drain_of[job][1] - made[2]) * 1000.0
        for job, made in admitted.items() if job in drain_of
    ]
    _put(metrics, "serve.server.queue_wait_ms", _median_or_zero(waits), len(waits))

    # Per-request budget: the client's latency (from send) minus the
    # server-side layers that block the reply, all on one monotonic clock.
    by_request = defaultdict(list)
    for span in checks + appends:
        by_request[span[5]].append(span)
    budget = defaultdict(list)
    for sample in traced["every"]:
        job = sample["response"].get("job_id")
        if job not in admitted or job not in drain_of:
            continue
        made, drain = admitted[job], drain_of[job]
        parts = {
            "admission": sum(s[2] - s[1] for s in by_request[made[5]] if s[0] == "serve.admission.check"),
            "journal": sum(s[2] - s[1] for s in by_request[made[5]] if s[0] == "durable.journal.append"),
            "queue_wait": drain[1] - made[2],
            "drain": drain[2] - drain[1],
        }
        parts["residual"] = (sample["done"] - sample["sent"]) - sum(parts.values())
        for key, value in parts.items():
            budget[key].append(value * 1000.0)
    _put(metrics, "serve.residual_ms", _median_or_zero(budget["residual"]), len(budget["residual"]))
    # The closed loop's request count follows the server's speed; the
    # open-loop phases before it send a seeded, fixed sequence.
    detail = engine_layers(metrics, data, workers, traced["measure_start"], traced["phases"]["sat_start"])
    detail["request_budget_p50_ms"] = {key: harness.median(values) for key, values in budget.items()}
    return detail


def sim_layers(metrics: harness.Metrics, result: Dict[str, Any], pes: Dict[str, int]) -> Dict[str, Any]:
    """Simulator layers: build time, host speed, exact cycle/bundle/stall counts."""
    from repro.perfmodel import DEFAULT_CYCLES_PER_CELL

    for kernel in SIM_KERNELS:
        builds = [b[kernel] * 1000.0 for b in result["builds"]]
        _put(metrics, f"mapping.build_ms.{kernel}", harness.median(builds), len(builds))
        mine = [r for s in result["low"] for r in s["runs"] if r["kernel"] == kernel]
        _put(metrics, f"dpax.host_us_per_cycle.{kernel}",
             sum(s["elapsed_s"] for s in mine) * 1e6 / sum(s["cycles"] for s in mine), len(mine))
    stalls = defaultdict(int)
    for kernel, _, out in result["paper"]:
        _put(metrics, f"dpax.cycles.{kernel}", out["cycles"], 1)
        _put(metrics, f"dpax.bundles_issued.{kernel}", out["profile"].bundles, 1)
        for reason, cycles in out["profile"].stall_breakdown().items():
            stalls[reason] += cycles
        measured = out["cycles"] * pes[kernel] / out["cells"]
        default = DEFAULT_CYCLES_PER_CELL[kernel]
        _put(metrics, f"perfmodel.cycles_gap.{kernel}", abs(measured - default) / default, 1)
    for reason in STALL_REASONS:
        _put(metrics, f"dpax.stall_cycles.{reason}", stalls[reason], 1)
    _zero_fill(metrics)
    return {}
