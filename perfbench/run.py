"""The repository's benchmark: one command, every metric, correctness checked.

    python3 perfbench/run.py --workload serve-short --seed 1 --seconds 48 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` prints its per-layer metrics
from a run whose layers are wrapped in the benchmark's own spans.  A
table with units and sample counts goes first, then a run-record path,
and the last line of stdout is the JSON result.  The workloads, metric
definitions and the steadiness notes are in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (needs the path above)

WORKLOADS = ("serve-short", "batch-long")

END_TO_END = (
    "setup_s",
    "jobs_per_s",
    "cells_per_s",
    "lat_p50_ms.low",
    "lat_p50_ms.high",
    "fail_ratio",
    "peak_rss_mb",
    "sim.cycles_per_cell.bsw",
    "sim.cycles_per_cell.pairhmm",
    "sim.cycles_per_cell.chain",
    "sim.cycles_per_cell.poa",
)

#: Measured and printed with the end-to-end metrics but left out of the
#: result line: on a 2-vCPU host their run-to-run spread is wider than any
#: bound BENCHMARK.json may set (NOTES.md, "Steadiness").
REPORTED = ("lat_p99_ms.low", "lat_p99_ms.high")


def _sim_cycles_per_cell(metrics: harness.Metrics) -> None:
    """The paper slices' cycles/cell, exact; a simulator fault fails the run."""
    import sim_paper

    for kernel, spec in sim_paper.paper_slices():
        out = sim_paper.simulate(kernel, spec)
        if not sim_paper.check(kernel, spec, out["output"], out["finished"]):
            raise RuntimeError(f"simulator disagrees with the reference on the {kernel} paper slice")
        metrics.put(
            f"sim.cycles_per_cell.{kernel}",
            out["cycles"] * sim_paper.PES[kernel] / out["cells"],
            "cycles/cell",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = harness.ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"perfbench: no package source at {source}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.ROOT / "src"))

    load_before = harness.loadavg()
    if args.workload == "serve-short":
        import serve_short as workload
    else:
        import batch_long as workload
    result = workload.run(args.seed, args.seconds, bool(args.trace))
    metrics = result["metrics"]
    if args.trace:
        import layers

        names = [name for name, _ in layers.PER_LAYER]
    else:
        names = list(END_TO_END)
        _sim_cycles_per_cell(metrics)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": harness.fingerprint(),
        "loadavg_before": load_before,
        "loadavg_after": harness.loadavg(),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics.values,
        "raw": result["record"],
    }
    path = harness.write_record(args.workload, args.seed, bool(args.trace), record)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    print(harness.render(metrics, names if args.trace else names + list(REPORTED)))
    print(f"run record: {os.path.relpath(path, harness.ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics.line(names),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
