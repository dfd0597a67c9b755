"""``batch-long``: gendp-batch's engine at ``nproc`` workers on Table-1-sized jobs.

``Engine(EngineConfig(workers=2))`` drains rounds of one fixed job set
drawn from :mod:`repro.workloads`: BSW 128x128, PairHMM 100x60 and one
Chain task of 1000 anchors at N=64.  Cell execution carries this
workload; the serving front-end, journal and ring transport are not on
its path.

Phases, interleaved until the time box closes: "high" drains a whole
round of the set (jobs queue behind each other); after each round,
"low" drains the read-level jobs (BSW and PairHMM) once in waves of two,
one job per worker, so no job queues behind another.  The Chain task
stays out of "low": as a wave of its own it would take most of each pass.

DTW 100x100 on the float signals the generator emits runs before and
apart from the timed set, as a known-defect probe: ``_run_dtw`` truncates each sample
with ``int()``, so every such job comes back ``ok`` with a wrong
distance.  The probe checks each reply against the float reference and
against the reference on truncated samples, prints the count of replies
that carry the known defect, and fails the run on any other answer.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Tuple

import harness
import sim_paper
import tracing

WORKERS = 2
SETUP_REPEATS = 9
#: Rounds of the job set in the "high" phase, at the least.
MIN_ROUNDS = 3
#: Share of ``--seconds`` the traced run spends on simulator passes.
SIM_SHARE = 0.1
#: Kernels the "low" phase drains.
LOW_KERNELS = ("bsw", "pairhmm")


def make_jobs(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    from repro.workloads import (
        generate_bsw_workload,
        generate_chain_workload,
        generate_pairhmm_workload,
    )

    bsw = generate_bsw_workload(count=2, query_length=128, target_length=128, seed=seed)
    hmm = generate_pairhmm_workload(
        regions=1, reads_per_region=2, haplotypes_per_region=2,
        read_length=100, haplotype_length=60, seed=seed,
    )
    chain = generate_chain_workload(tasks=1, anchors_per_task=1000, seed=seed)
    # Largest first: the 62k-cell Chain job then starts at once on one
    # worker while the rest fill the other.  In generator order the pool
    # can queue it behind a BSW batch, and round times spread 5.3-7.2 s.
    return (
        [("chain", {"anchors": [[a.x, a.y, a.w] for a in t.anchors]}) for t in chain.tasks]
        + [("bsw", {"query": p.query, "target": p.target}) for p in bsw.pairs]
        + [("pairhmm", {"read": p.read, "haplotype": p.haplotype}) for p in hmm.pairs]
    )


def dtw_probe_jobs(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """DTW 100x100 on the generator's float samples, not quantized."""
    from repro.workloads import generate_dtw_workload

    dtw = generate_dtw_workload(pairs=2, length=100, seed=seed)
    return [("dtw", {"a": p.reference, "b": p.query}) for p in dtw.pairs]


def check_dtw_probe(jobs, results) -> Dict[str, int]:
    """Sort each DTW reply: right, the known truncation defect, or other.

    "known_defect" is a reply equal to the reference computed on the
    ``int()``-truncated samples and not to the float reference; "other"
    (failed, refused, or neither answer) is a new fault.
    """
    from repro.engine.runners import matches_reference

    counts = {"attempted": 0, "right": 0, "known_defect": 0, "other": 0}
    for index, result in results:
        kernel, payload = jobs[index]
        truncated = {key: [int(v) for v in payload[key]] for key in ("a", "b")}
        counts["attempted"] += 1
        if not (result.ok and isinstance(result.value, dict)):
            counts["other"] += 1
        elif matches_reference(kernel, result.value, payload):
            counts["right"] += 1
        elif matches_reference(kernel, result.value, truncated):
            counts["known_defect"] += 1
        else:
            counts["other"] += 1
    return counts


def _first_compile_jobs(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """One small job per kernel: draining these pays each kernel's first compile."""
    from repro.workloads import generate_chain_workload

    chain = generate_chain_workload(tasks=1, anchors_per_task=8, seed=seed)
    return [
        ("bsw", {"query": "ACGTACGT", "target": "ACGTTCGT"}),
        ("pairhmm", {"read": "ACGTACGT", "haplotype": "ACGTTCGT"}),
        ("chain", {"anchors": [[a.x, a.y, a.w] for a in chain.tasks[0].anchors]}),
        ("dtw", {"a": [1, 4, 2, 6], "b": [2, 5, 1]}),
    ]


def _drain(engine, specs):
    """Submit *specs* as one drain; returns ``[(spec_index, result)]`` matched by job id."""
    from repro.engine import make_job

    jobs = {}
    for index, (kernel, payload) in specs:
        jobs[engine.submit(make_job(kernel, payload)).job_id] = index
    return [(jobs[result.job_id], result) for result in engine.drain()]


def setup(seed: int) -> Tuple[Any, float]:
    from repro.engine import Engine, EngineConfig

    started = time.perf_counter()
    engine = Engine(EngineConfig(workers=WORKERS))
    _drain(engine, list(enumerate(_first_compile_jobs(seed))))
    return engine, time.perf_counter() - started


def _waves(jobs) -> List[List[Tuple[int, Tuple[str, Dict]]]]:
    """Pairs of read-level jobs, largest first, so each drain holds one job per worker."""
    from repro.engine.runners import payload_cells

    order = sorted((i for i in range(len(jobs)) if jobs[i][0] in LOW_KERNELS),
                   key=lambda i: -payload_cells(*jobs[i]))
    return [[(i, jobs[i]) for i in order[k:k + WORKERS]] for k in range(0, len(order), WORKERS)]


def measure(seed: int, seconds: float) -> Dict[str, Any]:
    from repro.engine.runners import payload_cells

    jobs = make_jobs(seed)
    setups: List[float] = []
    engine = None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        engine, took = setup(seed)
        setups.append(took)
    low: List[dict] = []
    rounds: List[dict] = []
    waves = _waves(jobs)
    try:
        # The probe and one warm-up pass of waves run before the timed
        # cycles, so the traced layer metrics cover whole cycles only
        # and the exact ones (bytes per job) do not depend on how many
        # cycles fit in the time box.
        probe_jobs = dtw_probe_jobs(seed)
        probe = check_dtw_probe(probe_jobs, _drain(engine, list(enumerate(probe_jobs))))
        for wave in waves:
            _drain(engine, wave)
        measure_start = time.perf_counter()
        # Phases take turns, so a swing of this host's speed falls on both.
        # A cycle (round plus waves) takes 7-10 s on a 2-vCPU host; one
        # is begun only if it should end inside the time box.
        stop_at = measure_start + seconds * 0.9
        cycle_s = 0.0
        while len(rounds) < MIN_ROUNDS or time.perf_counter() + cycle_s < stop_at:
            cycle_start = started = time.perf_counter()
            results = _drain(engine, list(enumerate(jobs)))
            took = time.perf_counter() - started
            rounds.append({
                "elapsed_s": took,
                "samples": [{"index": i, "result": r, "latency_s": took} for i, r in results],
            })
            for wave in waves:
                started = time.perf_counter()
                results = _drain(engine, wave)
                took = time.perf_counter() - started
                low.extend({"index": i, "result": r, "latency_s": took} for i, r in results)
            cycle_s = time.perf_counter() - cycle_start
        rss = harness.peak_rss_mb([os.getpid()] + harness.children_of(os.getpid()))
    finally:
        engine.close()
    checker = harness.ReferenceCheck()
    high = [s for r in rounds for s in r["samples"]]
    for sample in low + high:
        kernel, payload = jobs[sample["index"]]
        result = sample["result"]
        sample["correct"] = checker.ok(kernel, sample["index"], payload, result.ok, result.value)
    round_cells = sum(payload_cells(k, p) for k, p in jobs)
    return {
        "setups": setups, "low": low, "rounds": rounds, "high": high, "rss": rss,
        "checker": checker, "round_cells": round_cells, "jobs": jobs, "measure_start": measure_start,
        "dtw_probe": probe,
    }


def fill(metrics: harness.Metrics, result: Dict[str, Any]) -> None:
    for phase in ("low", "high"):
        lat = [s["latency_s"] * 1000.0 for s in result[phase]]
        metrics.put(f"lat_p50_ms.{phase}", harness.percentile(lat, 50), "ms", len(lat))
        metrics.put(f"lat_p99_ms.{phase}", harness.percentile(lat, 99), "ms", len(lat))
    # Over every round: the host's speed swings from one round to the
    # next, and the whole phase averages more of them than a median of
    # a few rounds does.
    round_s = sum(r["elapsed_s"] for r in result["rounds"]) / len(result["rounds"])
    rounds = len(result["rounds"])
    metrics.put("jobs_per_s", len(result["jobs"]) / round_s, "jobs/s", rounds)
    metrics.put("cells_per_s", result["round_cells"] / round_s, "cells/s", rounds)
    every = result["low"] + result["high"]
    failed = sum(1 for s in every if not s["correct"])
    metrics.put("fail_ratio", harness.fail_ratio(failed, len(every)), "ratio", len(every))
    metrics.put("setup_s", harness.median(result["setups"]), "s", len(result["setups"]))
    metrics.put("peak_rss_mb", result["rss"], "MB", 1)


def raw_record(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "setup_s": result["setups"],
        "round_s": [r["elapsed_s"] for r in result["rounds"]],
        "round_cells": result["round_cells"],
        "low_latency_ms": [(result["jobs"][s["index"]][0], s["latency_s"] * 1000.0) for s in result["low"]],
        "wrong_by_kernel": result["checker"].wrong_by_kernel,
        "dtw_probe": result["dtw_probe"],
    }


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    metrics = harness.Metrics()
    if not trace:
        result = measure(seed, seconds)
        fill(metrics, result)
        record = raw_record(result)
    else:
        import layers

        plain = measure(seed, seconds / 2)
        span_dir = harness.out_dir("batch-long", f"{os.getpid()}-{time.monotonic_ns()}")
        recorder = tracing.SpanRecorder(span_dir)
        tracing.install(recorder)
        result = measure(seed, seconds / 2)
        # The simulator is on no engine path; its layers are sampled here,
        # after the engine's, so the two do not share the host's cores.
        sim = sim_paper.layer_sample(seed, seconds * SIM_SHARE, recorder.timed(
            "dpax.run", sim_paper.simulate, lambda a, k, r: {"kernel": a[0], "cycles": r["cycles"]}))
        recorder.dump("bench")
        base, traced = harness.Metrics(), harness.Metrics()
        fill(base, plain)
        fill(traced, result)
        detail = layers.engine_layers(metrics, tracing.load(span_dir), WORKERS, result["measure_start"])
        layers.sim_layers(metrics, sim, sim_paper.PES)
        metrics.put(
            "obs.trace_overhead_ratio",
            base.values["cells_per_s"]["value"] / traced.values["cells_per_s"]["value"],
            "ratio", 2,
        )
        record = {"untraced": raw_record(plain), "traced": raw_record(result), "layers": detail}
        probes = [plain["dtw_probe"], result["dtw_probe"]]
        result = {
            "low": plain["low"] + result["low"],
            "high": plain["high"] + result["high"],
            "dtw_probe": {key: sum(p[key] for p in probes) for key in probes[0]},
        }
    probe = result["dtw_probe"]
    if trace:
        metrics.put("engine.runners.dtw_truncation_ratio",
                    probe["known_defect"] / probe["attempted"], "ratio", probe["attempted"])
    if probe["known_defect"]:
        print(f"KNOWN DEFECT (not counted as failed): {probe['known_defect']} of "
              f"{probe['attempted']} DTW jobs on float samples returned the distance of the "
              "int()-truncated samples, not the float reference")
    every = result["low"] + result["high"]
    # A probe reply that is neither right nor the known defect is a new fault.
    failed = sum(1 for s in every if not s["correct"]) + probe["other"]
    attempted = len(every) + probe["other"]
    if trace:
        failed += sim["failed"]
        attempted += sim["attempted"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": failed == 0, "record": record}
