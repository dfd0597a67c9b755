"""The engine's one cell lowering: memo identity, fallback, import cost.

:func:`repro.engine.lowering.lowered_cell` is memoized per process and
shared by every backend, so its key must follow what the lowered code
executes (not ``program_hash``, which ``dataclasses.replace`` keeps),
it must stay bounded, a rejected program must still run (interpreted)
on every backend, and importing it must not drag in the serving
front-end.  Cross-backend equality with the interpreter is
``tests/serve/test_warm.py``.
"""

import dataclasses
import os
import subprocess
import sys
from collections import OrderedDict

import pytest

from repro.dfg.graph import Opcode
from repro.engine import Engine, EngineConfig, lowering, make_job
from repro.engine.cache import DEFAULT_CAPACITY, compile_program
from repro.engine.jobs import ENGINE_KERNELS
from repro.engine.lowering import lowered_cell
from repro.engine.runners import build_dfg, matches_reference, run_job
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction

_SWAP = {Opcode.MIN: Opcode.MAX, Opcode.MAX: Opcode.MIN}

_PAYLOADS = {
    "bsw": {"query": "ACGTTGCAAC", "target": "ACGTGCATC"},
    "pairhmm": {"read": "ACGTTGCA", "haplotype": "ACGTGCATCA"},
    "lcs": {"x": "ACGTTGCAAC", "y": "AGTTCAAG"},
    "dtw": {"a": [3, -7, 12, 0, 5, -2], "b": [1, -5, 10, 4, -3]},
    "chain": {
        "anchors": [[10 * i, 10 * i + (i % 3), 19] for i in range(12)]
    },
}


def _compiled(kernel):
    return compile_program(kernel, 2, build_dfg(kernel))


def _swap_first_min_max(instructions):
    """The bundles with the first MIN/MAX (root or leaf) swapped."""
    out = list(instructions)
    for index, bundle in enumerate(out):
        for attr in ("cu0", "cu1"):
            way = getattr(bundle, attr)
            if way is None:
                continue
            if way.root in _SWAP:
                way = dataclasses.replace(way, root=_SWAP[way.root])
            else:
                slot_attr = next(
                    (
                        name
                        for name in ("left", "right")
                        if getattr(way, name) is not None
                        and getattr(way, name).opcode in _SWAP
                    ),
                    None,
                )
                if slot_attr is None:
                    continue
                slot = getattr(way, slot_attr)
                way = dataclasses.replace(
                    way, **{slot_attr: SlotOp(_SWAP[slot.opcode], slot.operands)}
                )
            out[index] = dataclasses.replace(bundle, **{attr: way})
            return tuple(out)
    raise AssertionError("no MIN/MAX to swap")


def test_replaced_program_gets_a_fresh_lowered_cell():
    """A one-instruction edit keeps program_hash but must not reuse the cell."""
    clean = _compiled("dtw")
    edited = dataclasses.replace(
        clean, instructions=_swap_first_min_max(clean.instructions)
    )
    assert edited.program_hash == clean.program_hash  # the aliasing trap
    clean_cell = lowered_cell(clean)
    edited_cell = lowered_cell(edited)
    assert clean_cell is not None and edited_cell is not None
    assert edited_cell is not clean_cell

    payload = _PAYLOADS["dtw"]
    clean_value = run_job("dtw", clean, dict(payload), clean_cell)
    edited_value = run_job("dtw", edited, dict(payload), edited_cell)
    assert edited_value != clean_value
    # Each lowered cell is exactly its own program, interpreted.
    assert edited_value == run_job("dtw", edited, dict(payload), None)
    assert clean_value == run_job("dtw", clean, dict(payload), None)


def test_equal_programs_share_one_lowered_cell():
    """Separately compiled (or unpickled) copies hit the same entry."""
    assert lowered_cell(_compiled("lcs")) is lowered_cell(_compiled("lcs"))


def test_memo_is_bounded_like_the_program_cache(monkeypatch):
    monkeypatch.setattr(lowering, "_MEMO", OrderedDict())
    base = _compiled("lcs")

    def variant(value):
        # An extra bundle writing an otherwise unused register: a
        # distinct program, as an optimizer variant would be.
        extra = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree",
                dest=Reg(200),
                left=SlotOp(Opcode.COPY, (Imm(value),)),
            )
        )
        return dataclasses.replace(
            base, instructions=base.instructions + (extra,)
        )

    first = lowered_cell(variant(0))
    for value in range(1, DEFAULT_CAPACITY + 5):
        lowered_cell(variant(value))
    assert len(lowering._MEMO) == DEFAULT_CAPACITY
    assert lowered_cell(variant(0)) is not first  # evicted, lowered again


@pytest.mark.parametrize("workers", [0, 2], ids=["inline", "pool"])
def test_rejected_program_runs_interpreted(workers, monkeypatch):
    """A program the lowering cannot express still answers correctly."""
    monkeypatch.setattr(lowering, "_MEMO", OrderedDict())
    templates = dict(lowering._EXPRESSIONS)
    for opcode in (Opcode.ADD, Opcode.MAX, Opcode.MIN):
        del templates[opcode]
    monkeypatch.setattr(lowering, "_EXPRESSIONS", templates)
    for kernel in ENGINE_KERNELS:
        with pytest.raises(lowering.SpecializationError):
            lowering.specialize_cell(_compiled(kernel))
        assert lowered_cell(_compiled(kernel)) is None

    with Engine(EngineConfig(max_queue=16, workers=workers)) as engine:
        jobs = {
            kernel: make_job(kernel, dict(payload))
            for kernel, payload in _PAYLOADS.items()
        }
        engine.submit_many(list(jobs.values()))
        results = {result.job_id: result for result in engine.drain()}
    for kernel, job in jobs.items():
        result = results[job.job_id]
        assert result.ok, (kernel, result.error)
        assert result.backend == ("pool" if workers else "inline")
        assert matches_reference(kernel, result.value, _PAYLOADS[kernel])


def test_lowering_imports_no_serving_front_end():
    """Forked pool workers must not pay the front-end imports.

    asyncio and the serve package cost set-up time on every fresh pool;
    http.server (with ssl) costs ~7 MB resident in every worker.
    """
    code = (
        "import sys\n"
        "import repro.engine, repro.engine.runners, repro.engine.lowering\n"
        "print(sorted(m for m in ('asyncio', 'repro.serve.server',"
        " 'http.server', 'ssl') if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
