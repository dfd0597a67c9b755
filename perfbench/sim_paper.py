"""The cycle-level DPAx simulator on BSW, PairHMM, Chain and POA slices.

Not a workload of its own (NOTES.md, "Steadiness", says why): every
run prints the paper slices' exact ``sim.cycles_per_cell.*``, and
batch-long's traced run takes the simulator's layer metrics from
:func:`layer_sample`.  Two slice sets:

- the *paper slices*, fixed (seed 99, the recipe of
  ``benchmarks/test_simulator_throughput.py`` that calibrated
  ``DEFAULT_CYCLES_PER_CELL``), give the exact cycle, bundle and stall
  counts;
- the *seeded slices*, fixed shapes with contents drawn from ``--seed``,
  are the timed passes behind ``dpax.host_us_per_cycle.*``.

Every run's output is checked cell for cell against the reference
kernels: BSW per-column best score, the PairHMM likelihood, every Chain
score and parent, and the whole POA H table.
"""

from __future__ import annotations

import math
import random
import time
from typing import Any, Dict, List, Tuple


#: DPMap builds of the four programs per sample (their median is reported).
BUILD_REPEATS = 9
#: Chain window (PEs) the simulator runs, as in the paper-slice recipe.
CHAIN_PES = 8
#: PEs the cycles of one run are spread over, for cycles per cell per PE.
PES = {"bsw": 4, "pairhmm": 4, "chain": CHAIN_PES, "poa": 1}


def paper_slices() -> List[Tuple[str, Dict[str, Any]]]:
    """The fixed slices of ``benchmarks/test_simulator_throughput.py``."""
    from repro.kernels.chain import Anchor
    from repro.seq.alphabet import random_sequence
    from repro.seq.mutate import MutationProfile, Mutator

    rng = random.Random(99)
    template = random_sequence(16, rng)
    query = Mutator(MutationProfile.illumina(), rng).mutate(template + random_sequence(10, rng))
    slices = [("bsw", {"target": template, "stream": query})]
    haplotype = random_sequence(16, rng)
    slices.append(("pairhmm", {"target": haplotype, "stream": random_sequence(20, rng)}))
    anchors, x, y = [], 0, 0
    for _ in range(40):
        x += rng.randint(5, 60)
        y += rng.randint(5, 60)
        anchors.append(Anchor(x, y))
    slices.append(("chain", {"anchors": anchors}))
    base = random_sequence(16, rng)
    mutator = Mutator(MutationProfile.nanopore(), rng)
    slices.append(("poa", {"graph": [base, mutator.mutate(base)], "query": mutator.mutate(base)}))
    return slices


def seeded_slices(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """Fixed shapes (BSW 24x32, PairHMM 16x24, 64 anchors, POA 18x16), seeded contents."""
    from repro.kernels.chain import Anchor
    from repro.seq.alphabet import random_sequence
    from repro.seq.mutate import MutationProfile, Mutator

    rng = random.Random(seed)
    target = random_sequence(24, rng)
    query = Mutator(MutationProfile.illumina(), rng).mutate(target)
    query = (query + random_sequence(32, rng))[:32]
    slices = [("bsw", {"target": target, "stream": query})]
    slices.append(("pairhmm", {"target": random_sequence(16, rng), "stream": random_sequence(24, rng)}))
    anchors, x, y = [], 0, 0
    for _ in range(64):
        x += rng.randint(5, 60)
        y += rng.randint(5, 60)
        anchors.append(Anchor(x, y))
    slices.append(("chain", {"anchors": anchors}))
    # Substitutions only, two per sequence: the graph then has 18 nodes
    # and the query 16 bases on every seed.  Nanopore-style indels would
    # change the POA table's size, and with it each pass's work, by seed.
    base = random_sequence(16, rng)
    slices.append(("poa", {"graph": [base, _substituted(base, rng)], "query": _substituted(base, rng)}))
    return slices


def _substituted(sequence: str, rng: random.Random, count: int = 2) -> str:
    """*sequence* with *count* interior bases replaced by another base."""
    bases = list(sequence)
    for index in rng.sample(range(2, len(bases) - 2), count):
        bases[index] = rng.choice([b for b in "ACGT" if b != bases[index]])
    return "".join(bases)


def _graph(sequences):
    from repro.kernels.poa import PartialOrderGraph

    graph = PartialOrderGraph(sequences[0])
    for sequence in sequences[1:]:
        graph.add_sequence(sequence)
    return graph


def simulate(kernel: str, spec: Dict[str, Any], profile: bool = False) -> Dict[str, Any]:
    """One simulator run: cycles, cells, the drained output and (with *profile*) the profile report."""
    from repro.mapping.kernels2d import (
        bsw_wavefront_spec,
        pairhmm_boundary_for_length,
        pairhmm_wavefront_spec,
    )
    from repro.mapping.longrange import run_poa_row_dp
    from repro.mapping.sliding1d import run_chain
    from repro.mapping.wavefront2d import run_wavefront
    from repro.seq.alphabet import encode

    if kernel in ("bsw", "pairhmm"):
        if kernel == "bsw":
            wavefront = bsw_wavefront_spec()
        else:
            wavefront = pairhmm_boundary_for_length(pairhmm_wavefront_spec(), len(spec["target"]))
        run = run_wavefront(wavefront, target=encode(spec["target"]), stream=encode(spec["stream"]), profile=profile)
        output = [dict(values) for rows in run.epilogue_values for values in rows]
    elif kernel == "chain":
        run = run_chain(spec["anchors"], total_pes=CHAIN_PES, profile=profile)
        output = {"scores": run.result.scores, "parents": run.result.parents}
    else:
        arrays = []
        if profile:
            # run_poa_row_dp has no profile flag: profile the PE array it builds.
            import repro.mapping.longrange as longrange

            build_array = longrange.PEArray

            def profiled_array(*args, **kwargs):
                array = build_array(*args, **kwargs)
                array.enable_profiling()
                arrays.append(array)
                return array

            longrange.PEArray = profiled_array
        try:
            run = run_poa_row_dp(_graph(spec["graph"]), spec["query"])
        finally:
            if profile:
                longrange.PEArray = build_array
        output = run.h
        return {"cycles": run.cycles, "cells": run.cells, "output": output, "finished": run.finished,
                "profile": arrays[0].profiler.report() if arrays else None}
    return {"cycles": run.cycles, "cells": run.cells, "output": output, "finished": run.finished,
            "profile": run.profile}


def check(kernel: str, spec: Dict[str, Any], output: Any, finished: bool) -> bool:
    """Cell-for-cell comparison of a simulator run against the reference kernels."""
    if not finished:
        return False
    if kernel == "bsw":
        from repro.kernels.base import AlignmentMode
        from repro.kernels.sw import align

        # PE j drains max_i H[i][j]; the running max over j is the local
        # score of the stream against the target's first j+1 bases.
        best, target = 0, spec["target"]
        for j, values in enumerate(output):
            best = max(best, values["hmax"])
            if best != align(spec["stream"], target[: j + 1], mode=AlignmentMode.LOCAL).score:
                return False
        return len(output) == len(target)
    if kernel == "pairhmm":
        from repro.kernels.pairhmm import LOG_FRACTION_BITS, log_sum_lookup, pairhmm_forward

        total = -(1 << 20)
        for values in output:
            total = log_sum_lookup(total, log_sum_lookup(values["m_up"], values["i_up"]))
        simulated = (total / (1 << LOG_FRACTION_BITS)) * math.log10(2)
        return abs(simulated - pairhmm_forward(spec["stream"], spec["target"])) <= 0.01
    if kernel == "chain":
        from repro.kernels.chain_fixed import chain_reordered_fixed

        reference = chain_reordered_fixed(spec["anchors"], n=CHAIN_PES)
        return output["scores"] == reference.scores and output["parents"] == reference.parents
    from repro.kernels.poa import graph_dp_tables

    reference_h, _, _ = graph_dp_tables(_graph(spec["graph"]), spec["query"])
    return all(
        output[row][j - 1] == reference_h[row][j]
        for row in range(len(reference_h))
        for j in range(1, len(spec["query"]) + 1)
    )


def build_programs(slices) -> Dict[str, float]:
    """DPMap build of the four simulator programs; seconds per kernel."""
    from repro.dfg.kernels import poa_edge_dfg, poa_final_dfg
    from repro.dpmap.codegen import compile_cell
    from repro.mapping.kernels2d import bsw_wavefront_spec, pairhmm_boundary_for_length, pairhmm_wavefront_spec
    from repro.mapping.sliding1d import build_chain_programs
    from repro.mapping.wavefront2d import build_wavefront_programs
    from repro.seq.scoring import ScoringScheme

    spec = dict(slices)
    took: Dict[str, float] = {}
    started = time.perf_counter()
    build_wavefront_programs(bsw_wavefront_spec(), len(spec["bsw"]["target"]), len(spec["bsw"]["stream"]), 4)
    took["bsw"] = time.perf_counter() - started
    started = time.perf_counter()
    hmm = pairhmm_boundary_for_length(pairhmm_wavefront_spec(), len(spec["pairhmm"]["target"]))
    build_wavefront_programs(hmm, len(spec["pairhmm"]["target"]), len(spec["pairhmm"]["stream"]), 4)
    took["pairhmm"] = time.perf_counter() - started
    started = time.perf_counter()
    build_chain_programs(len(spec["chain"]["anchors"]), CHAIN_PES, 4)
    took["chain"] = time.perf_counter() - started
    started = time.perf_counter()
    gap = ScoringScheme().gap
    compile_cell(poa_edge_dfg(gap.open, gap.extend))
    compile_cell(poa_final_dfg(gap.open, gap.extend))
    took["poa"] = time.perf_counter() - started
    return took


def layer_sample(seed: int, seconds: float, simulate_fn=None) -> Dict[str, Any]:
    """The simulator's layer metrics' inputs: builds, paper-slice profiles, timed passes.

    DPMap builds of the four programs (repeated), the paper slices
    simulated with profiling on (exact cycle, bundle and stall counts),
    then passes over the seeded slices for *seconds*.  *simulate_fn*
    stands in for :func:`simulate` so a traced run can wrap it in spans.
    Every run is checked cell for cell; ``failed`` counts the runs that
    disagree with the reference.
    """
    run = simulate_fn or simulate
    slices = seeded_slices(seed)
    builds = [build_programs(slices) for _ in range(BUILD_REPEATS)]
    paper = [(kernel, spec, run(kernel, spec, profile=True)) for kernel, spec in paper_slices()]
    passes: List[Dict[str, Any]] = []
    failed = sum(0 if check(k, spec, out["output"], out["finished"]) else 1 for k, spec, out in paper)
    stop_at = time.perf_counter() + seconds
    while not passes or time.perf_counter() < stop_at:
        runs = []
        for kernel, spec in slices:
            started = time.perf_counter()
            out = run(kernel, spec)
            runs.append({"kernel": kernel, "elapsed_s": time.perf_counter() - started, "cycles": out["cycles"]})
            if not check(kernel, spec, out["output"], out["finished"]):
                failed += 1
        passes.append({"runs": runs})
    attempted = len(paper) + len(passes) * len(slices)
    return {"builds": builds, "paper": paper, "low": passes, "attempted": attempted, "failed": failed}
