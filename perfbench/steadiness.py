"""Where the run-to-run spread of the older engine figures comes from.

    python3 perfbench/steadiness.py [--repeats 8]

Reproduces two spreads and varies one suspected cause at a time:

- the shm 2-worker stream (48 BSW 32x24 jobs, the stream of
  ``benchmarks/test_engine_throughput.py``), which gendp-bench timed once
  per fresh engine: warm-up (fresh engine vs drains after 3 discarded),
  run length (48 vs 480 jobs per drain) and the worker poll tick
  (``poll_interval_s`` 5 ms vs the 20 ms default);
- the pickle pool at 2 workers on the ``batch-long`` job set: job order
  (generator order vs largest first, i.e. batch granularity) and run
  length (one round vs the median of several).

Configurations are interleaved, so the host's own drift (NOTES.md)
falls on all of them alike.  Prints min / median / max per configuration and writes them, with every
sample, to ``.perfbench/steadiness.json``.  The findings are in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

sys.path.insert(0, str(harness.ROOT / "src"))


def _bsw_stream(count: int):
    from repro.engine import make_job
    from repro.workloads.reads import generate_bsw_workload

    workload = generate_bsw_workload(count=count, query_length=32, target_length=24, seed=5)
    return [make_job("bsw", {"query": p.query, "target": p.target}) for p in workload.pairs]


def _shm_engine(poll_s: float):
    from repro.engine import Engine, EngineConfig, make_job
    from repro.serve import TransportConfig

    transport = TransportConfig(backend="shm", workers=2, warm_kernels=("bsw",), poll_interval_s=poll_s)
    engine = Engine(EngineConfig(max_queue=1024, transport=transport))
    engine.submit(make_job("bsw", {"query": "ACGT", "target": "ACG"}))
    engine.drain()
    return engine


def _drain_rate(engine, jobs) -> float:
    started = time.perf_counter()
    engine.submit_many(jobs)
    results = engine.drain()
    elapsed = time.perf_counter() - started
    if not all(r.ok for r in results):
        raise RuntimeError("a stream job failed")
    return len(jobs) / elapsed


#: label -> (poll tick seconds, warm-up drains, jobs per drain)
SHM_CONFIGS = {
    "fresh engine, 48 jobs, 5 ms tick": (0.005, 0, 48),
    "warm engine, 48 jobs, 5 ms tick": (0.005, 3, 48),
    "warm engine, 48 jobs, 20 ms tick": (0.02, 3, 48),
    "warm engine, 480 jobs, 5 ms tick": (0.005, 3, 480),
}


def shm_study(repeats: int):
    """One fresh engine per sample; configurations interleaved so host drift hits all alike."""
    out = {label: [] for label in SHM_CONFIGS}
    labels = list(SHM_CONFIGS)
    for repeat in range(repeats):
        for label in labels[repeat % len(labels):] + labels[:repeat % len(labels)]:
            poll_s, warmups, jobs = SHM_CONFIGS[label]
            with _shm_engine(poll_s) as engine:
                for _ in range(warmups):
                    _drain_rate(engine, _bsw_stream(48))
                out[label].append(_drain_rate(engine, _bsw_stream(jobs)))
    return out


def pool_study(repeats: int):
    """Both job orders on one warm 2-worker pool, alternating round by round."""
    import batch_long
    from repro.engine import Engine, EngineConfig, make_job
    from repro.engine.runners import payload_cells

    largest_first = batch_long.make_jobs(1)
    orders = {
        "generator order": sorted(largest_first, key=lambda job: ("bsw", "pairhmm", "chain", "dtw").index(job[0])),
        "largest first": largest_first,
    }
    cells = sum(payload_cells(k, p) for k, p in largest_first)
    out = {f"pool 2 workers, {label}, cells/s per round": [] for label in orders}
    with Engine(EngineConfig(workers=2)) as engine:
        engine.submit(make_job("bsw", {"query": "ACGT", "target": "ACG"}))
        engine.drain()
        for repeat in range(repeats):
            for label, jobs in (list(orders.items()) if repeat % 2 == 0 else list(orders.items())[::-1]):
                started = time.perf_counter()
                engine.submit_many([make_job(k, p) for k, p in jobs])
                engine.drain()
                out[f"pool 2 workers, {label}, cells/s per round"].append(cells / (time.perf_counter() - started))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=8)
    args = parser.parse_args(argv)
    study = {"host": harness.fingerprint(), "loadavg_before": harness.loadavg()}
    study["shm_jobs_per_s"] = shm_study(args.repeats)
    study["pool_cells_per_s"] = pool_study(args.repeats)
    study["loadavg_after"] = harness.loadavg()
    for section in ("shm_jobs_per_s", "pool_cells_per_s"):
        for label, values in study[section].items():
            print(f"{label:48s} min={min(values):9.1f} median={harness.median(values):9.1f} max={max(values):9.1f} n={len(values)}")
    path = harness.out_dir() / "steadiness.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(study, handle, indent=1)
    print(f"wrote {path.relative_to(harness.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
