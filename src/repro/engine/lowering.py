"""The one cell lowering: compiled VLIW cell programs as Python code.

Every engine backend executes a job by calling one cell-update
function per DP cell.  This module lowers a
:class:`~repro.engine.cache.CompiledProgram` into that function: the
VLIW bundles become one straight-line Python function (register-file
slots become local variables, each CU way becomes one expression with
the exact :func:`repro.dfg.graph._apply` semantics), compiled once with
``compile``/``exec``.  Per cell this removes the bundle/way/slot
interpretation loop, the operand list building and the chained opcode
dispatch of :func:`repro.dpmap.codegen.execute_way` -- a 15-40x
cell-update speedup at identical integer semantics.

:func:`lowered_cell` is the per-process memo every caller goes through
(the inline and pool batch runner, the shm warm workers' program
cache, the shm degradation floor and the differential fuzzer).  It
keys on the fields the lowered code actually executes -- kernel,
instructions and register maps -- never on
:attr:`CompiledProgram.program_hash`, which ``dataclasses.replace``
copies unchanged onto an edited program.  A program the lowering
cannot express memoizes ``None`` and runs interpreted.

The interpreter stays the reference: :func:`repro.engine.runners.run_job`
ignores a lowered cell whenever a job arms sentinels, because only the
interpreted path carries the per-ALU observe hook.  The byte-equal
contract between both executors is enforced by
``tests/serve/test_warm.py``'s seeded sweep over every engine kernel
and backend.

This module deliberately imports nothing from :mod:`repro.serve`: pool
workers fork from the engine and must not pay the asyncio front-end
import (``tests/engine/test_lowering.py`` pins that).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.dfg.graph import OPCODE_ARITY, Opcode
from repro.engine.cache import DEFAULT_CAPACITY, CompiledProgram
from repro.engine.runners import match_table_for
from repro.isa.compute import Imm, SlotOp
from repro.kernels.pairhmm import log_sum_lookup

Cell = Callable[[Dict[str, int]], Dict[str, int]]

#: Opcode -> expression template with ``{0}``/``{1}``... operand holes.
#: Semantics mirror :func:`repro.dfg.graph._apply` exactly; any new
#: opcode must be added here *and* covered by the differential test.
_EXPRESSIONS: Dict[Opcode, str] = {
    Opcode.ADD: "({0} + {1})",
    Opcode.SUB: "({0} - {1})",
    Opcode.MUL: "({0} * {1})",
    Opcode.CARRY: "(1 if {0} + {1} >= 4294967296 else 0)",
    Opcode.BORROW: "(1 if {0} < {1} else 0)",
    Opcode.MAX: "max({0}, {1})",
    Opcode.MIN: "min({0}, {1})",
    Opcode.SHL16: "({0} << 16)",
    Opcode.SHR16: "({0} >> 16)",
    Opcode.COPY: "{0}",
    Opcode.MATCH_SCORE: "_match({0}, {1})",
    Opcode.LOG2_LUT: "(0 if {0} <= 0 else int(_log2({0}) * 2.0))",
    Opcode.LOG_SUM_LUT: "_log_sum({0}, {1})",
    Opcode.CMP_GT: "({2} if {0} > {1} else {3})",
    Opcode.CMP_EQ: "({2} if {0} == {1} else {3})",
    Opcode.NOP: "0",
    Opcode.HALT: "0",
}

#: MATCH_SCORE fallback when no match table is bound (mirrors _apply).
_DEFAULT_MATCH = "(1 if {0} == {1} else -1)"


class SpecializationError(ValueError):
    """The program uses a construct the lowering cannot express."""


def _expression(
    opcode: Opcode, operands: List[str], has_match_table: bool
) -> str:
    if opcode is Opcode.MATCH_SCORE and not has_match_table:
        template = _DEFAULT_MATCH
    else:
        template = _EXPRESSIONS.get(opcode)
    if template is None:
        raise SpecializationError(f"no expression template for opcode {opcode}")
    return template.format(*operands)


def _slot_expression(
    slot: SlotOp, registers: set, has_match_table: bool
) -> str:
    operands = []
    for operand in slot.operands:
        if isinstance(operand, Imm):
            operands.append(repr(operand.value))
        else:
            registers.add(operand.index)
            operands.append(f"r{operand.index}")
    return _expression(slot.opcode, operands, has_match_table)


def specialize_source(
    compiled: CompiledProgram, has_match_table: bool
) -> str:
    """The straight-line Python source of one cell update.

    Bundles commit register writes only after every way of the bundle
    has read its operands, exactly like the interpreter: each way's
    value lands in a temporary first, destinations are assigned at the
    bundle boundary.
    """
    registers: set = set(compiled.input_regs.values())
    lines: List[str] = []
    temp = 0
    for bundle in compiled.instructions:
        assigns = []
        for way in bundle.ways:
            if way.kind == "mul":
                expr = _slot_expression(way.mul, registers, has_match_table)
            else:
                left = (
                    _slot_expression(way.left, registers, has_match_table)
                    if way.left is not None
                    else None
                )
                right = (
                    _slot_expression(way.right, registers, has_match_table)
                    if way.right is not None
                    else None
                )
                if way.root is None:
                    expr = left if left is not None else right
                elif OPCODE_ARITY[way.root] == 1:
                    expr = _expression(way.root, [left], has_match_table)
                else:
                    inputs = [left, right]
                    if way.root_swapped:
                        inputs.reverse()
                    expr = _expression(way.root, inputs, has_match_table)
            if expr is None:
                raise SpecializationError("tree way with no populated leaf")
            lines.append(f"    t{temp} = {expr}")
            registers.add(way.dest.index)
            assigns.append((way.dest.index, temp))
            temp += 1
        for dest, t in assigns:
            lines.append(f"    r{dest} = t{t}")

    prologue = [
        f"    r{index} = 0"
        for index in sorted(registers - set(compiled.input_regs.values()))
    ]
    prologue += [
        f"    r{index} = inputs[{name!r}]"
        for name, index in compiled.input_regs.items()
    ]
    returns = ", ".join(
        f"{name!r}: r{index}" for name, index in compiled.output_regs.items()
    )
    return (
        "def _cell(inputs):\n"
        + "\n".join(prologue + lines)
        + "\n    return {"
        + returns
        + "}\n"
    )


def specialize_cell(
    compiled: CompiledProgram,
    match_table: Optional[Callable[[int, int], int]] = None,
) -> Cell:
    """Compile *compiled* into one specialized cell-update function.

    Drop-in for the closure :func:`repro.engine.runners._cell_executor`
    builds, minus the sentinel observe hook.  Uncached: callers go
    through :func:`lowered_cell`.
    """
    source = specialize_source(compiled, match_table is not None)
    namespace: Dict[str, Any] = {
        "_match": match_table,
        "_log2": math.log2,
        "_log_sum": log_sum_lookup,
    }
    exec(compile(source, "<gendp-specialized>", "exec"), namespace)
    return namespace["_cell"]


#: Executed-content key -> lowered cell (``None``: the lowering
#: rejected the program).  LRU-bounded like the engine's ProgramCache,
#: so optimizer variants cannot grow it without bound.
_MEMO: "OrderedDict[Hashable, Optional[Cell]]" = OrderedDict()


def _memo_key(compiled: CompiledProgram) -> Tuple[Hashable, ...]:
    """Everything the lowered code depends on, and nothing else."""
    return (
        compiled.kernel,
        compiled.instructions,
        tuple(compiled.input_regs.items()),
        tuple(compiled.output_regs.items()),
    )


def lowered_cell(compiled: CompiledProgram) -> Optional[Cell]:
    """The memoized lowered cell of *compiled*, or ``None`` to interpret.

    ``None`` means the lowering rejected the program
    (:class:`SpecializationError`, or a malformed construct the
    interpreter will report per job); the interpreter then runs it.
    """
    key = _memo_key(compiled)
    try:
        cell = _MEMO[key]
    except KeyError:
        try:
            cell = specialize_cell(compiled, match_table_for(compiled.kernel))
        except Exception:  # the interpreter still gives correct results
            cell = None
        _MEMO[key] = cell
        if len(_MEMO) > DEFAULT_CAPACITY:
            _MEMO.popitem(last=False)
    else:
        _MEMO.move_to_end(key)
    return cell
