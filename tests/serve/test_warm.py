"""One cell lowering on every backend: codegen'd cells match the interpreter.

:func:`repro.engine.lowering.specialize_cell` turns a compiled VLIW
cell program into straight-line Python, and every engine backend --
inline, pickle pool and the shm warm workers -- runs that lowered cell
(:func:`repro.engine.lowering.lowered_cell`).  The contract is *exact*
semantic equality with the interpreted executor -- same outputs for
the same register-file inputs, across every engine kernel -- because
the backends substitute the lowered cell silently and the transport
promises byte-identical results.
"""

import random

import pytest

from repro.engine import Engine, EngineConfig, lowering, make_job, runners
from repro.engine.cache import compile_program
from repro.engine.jobs import ENGINE_KERNELS
from repro.engine.lowering import (
    SpecializationError,
    specialize_cell,
    specialize_source,
)
from repro.engine.runners import (
    _cell_executor,
    build_dfg,
    match_table_for,
    matches_reference,
    run_job,
)
from repro.serve import TransportConfig
from repro.workloads.anchors import generate_chain_workload
from repro.workloads.haplotypes import generate_pairhmm_workload
from repro.workloads.reads import generate_bsw_workload


def _compiled(kernel):
    return compile_program(kernel, 2, build_dfg(kernel))


def _payloads(kernel, count, seed):
    rng = random.Random(seed)
    if kernel == "bsw":
        pairs = generate_bsw_workload(
            count=count, query_length=20, target_length=16, seed=seed
        ).pairs
        return [{"query": p.query, "target": p.target} for p in pairs]
    if kernel == "pairhmm":
        pairs = generate_pairhmm_workload(
            regions=count,
            reads_per_region=1,
            haplotypes_per_region=1,
            read_length=12,
            haplotype_length=10,
            seed=seed,
        ).pairs
        return [{"read": p.read, "haplotype": p.haplotype} for p in pairs[:count]]
    if kernel == "lcs":
        alphabet = "ACGT"
        return [
            {
                "x": "".join(rng.choice(alphabet) for _ in range(18)),
                "y": "".join(rng.choice(alphabet) for _ in range(15)),
            }
            for _ in range(count)
        ]
    if kernel == "dtw":
        return [
            {
                "a": [rng.randrange(-50, 50) for _ in range(14)],
                "b": [rng.randrange(-50, 50) for _ in range(12)],
            }
            for _ in range(count)
        ]
    if kernel == "chain":
        tasks = generate_chain_workload(
            tasks=count, anchors_per_task=16, seed=seed
        ).tasks
        return [
            {"anchors": [[a.x, a.y, a.w] for a in task.anchors]}
            for task in tasks
        ]
    raise AssertionError(kernel)


@pytest.mark.parametrize("kernel", ENGINE_KERNELS)
def test_specialized_cell_matches_interpreter_on_real_workloads(kernel):
    """The end-to-end contract every backend relies on, per kernel."""
    compiled = _compiled(kernel)
    cell = specialize_cell(compiled, match_table_for(kernel))
    for seed, payload in enumerate(_payloads(kernel, 4, seed=23)):
        specialized = run_job(kernel, compiled, dict(payload), cell)
        interpreted = run_job(kernel, compiled, dict(payload), None)
        assert specialized == interpreted, (kernel, seed)


@pytest.mark.parametrize("kernel", ("bsw", "lcs", "dtw", "chain"))
def test_specialized_cell_matches_interpreter_on_random_register_images(kernel):
    """Direct cell-level differential over random integer inputs.

    (pairhmm is covered end-to-end above; its LOG_SUM lookup only
    accepts the value ranges real payloads produce.)
    """
    compiled = _compiled(kernel)
    table = match_table_for(kernel)
    interpreted = _cell_executor(compiled, table)
    specialized = specialize_cell(compiled, table)
    rng = random.Random(0xDA7A)
    names = sorted(compiled.input_regs)
    for _ in range(50):
        inputs = {name: rng.randrange(-1000, 1000) for name in names}
        assert specialized(dict(inputs)) == interpreted(dict(inputs)), inputs


def test_specialize_source_is_straight_line_python():
    source = specialize_source(_compiled("bsw"), has_match_table=True)
    assert "def _cell(inputs):" in source
    assert "return {" in source
    # No loops, no interpreter dispatch: that is the whole point.
    for banned in ("for ", "while ", "Opcode"):
        assert banned not in source, banned


def test_specialize_rejects_programs_with_unknown_opcodes():
    compiled = _compiled("lcs")
    hacked = type(compiled).__new__(type(compiled))
    object.__setattr__(hacked, "__dict__", dict(vars(compiled)))

    class FakeOp:
        opcode = "NOT_AN_OPCODE"

    object.__setattr__(hacked, "instructions", (FakeOp(),))
    with pytest.raises((SpecializationError, AttributeError, TypeError)):
        specialize_cell(hacked, None)


#: Backend label -> EngineConfig kwargs; two workers on the
#: multi-process backends.
BACKENDS = {
    "inline": {"workers": 0},
    "pool": {"workers": 2},
    "shm": {
        "transport": TransportConfig(
            backend="shm", workers=2, poll_interval_s=0.002
        )
    },
}


def _drain(config, jobs_by_kernel):
    """Run one mixed stream; ({(kernel, index): result}, snapshot)."""
    with Engine(config) as engine:
        keyed = {}
        for kernel, payloads in jobs_by_kernel.items():
            for index, payload in enumerate(payloads):
                job = make_job(kernel, dict(payload))
                keyed[(kernel, index)] = job.job_id
                engine.submit(job)
        results = {r.job_id: r for r in engine.drain()}
        snapshot = engine.snapshot()
    return {key: results[job_id] for key, job_id in keyed.items()}, snapshot


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_every_backend_runs_the_lowered_cell(backend, monkeypatch):
    """Seeded sweep: each backend equals the interpreter and the reference.

    The interpreted answers are taken first; then the interpreter is
    disabled (before any pool or worker forks, so children inherit
    that), which makes a backend that still interprets fail loudly
    instead of passing on equal results.
    """
    jobs_by_kernel = {
        kernel: _payloads(kernel, 3, seed=41) for kernel in ENGINE_KERNELS
    }
    interpreted = {
        (kernel, index): run_job(kernel, _compiled(kernel), dict(payload), None)
        for kernel, payloads in jobs_by_kernel.items()
        for index, payload in enumerate(payloads)
    }

    def no_interpreter(*args, **kwargs):
        raise AssertionError("interpreted a job that should run lowered")

    monkeypatch.setattr(runners, "_cell_executor", no_interpreter)
    config = EngineConfig(max_queue=64, **BACKENDS[backend])
    results, _ = _drain(config, jobs_by_kernel)
    for (kernel, index), result in results.items():
        payload = jobs_by_kernel[kernel][index]
        assert result.ok, (backend, kernel, index, result.error)
        assert result.backend == backend  # no degradation hid a failure
        assert result.value == interpreted[(kernel, index)], (backend, kernel)
        assert matches_reference(kernel, result.value, payload), (backend, kernel)


def test_armed_sentinels_still_interpret_on_the_pool(monkeypatch):
    """Sentinels stay an interpreter hook: armed pool jobs observe values.

    Every lowered cell handed out is booby-trapped (before the pool
    forks), so an armed job that ran it instead of interpreting fails.
    """

    def trapped_cell(compiled):
        def cell(inputs):
            raise AssertionError("armed job ran the lowered cell")

        return cell

    monkeypatch.setattr(lowering, "lowered_cell", trapped_cell)
    jobs_by_kernel = {
        kernel: _payloads(kernel, 2, seed=43) for kernel in ENGINE_KERNELS
    }
    config = EngineConfig(
        max_queue=64, workers=2, sentinels=True, elide_sentinels=False
    )
    results, snapshot = _drain(config, jobs_by_kernel)
    for (kernel, index), result in results.items():
        assert result.ok, (kernel, index, result.error)
        assert result.backend == "pool"
        assert matches_reference(
            kernel, result.value, jobs_by_kernel[kernel][index]
        )
    assert snapshot["sentinels"]["sentinel_values_observed"] > 0
