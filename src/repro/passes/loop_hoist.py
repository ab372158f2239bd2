"""Loop bounds-check hoisting (paper §4.4, "Hoisting checks out of loops").

A scalar-evolution-lite analysis recognizes the canonical counting loop::

    for (i = C0; i < M; i += c) ... a[i] ...

where ``a`` and ``M`` are loop-invariant, ``C0 >= 0`` and ``c > 0``.  The
per-iteration bounds checks on ``a[i]`` are then redundant except for one
upper-bound check of ``a + M*scale`` hoisted to the loop preheader, and the
lower-bound check can be dropped entirely (the pointer only grows from the
base).  The paper observed gains up to 22% (kmeans, matrixmul) and ~2% on
average — our implementation is deliberately conservative in the same way
(no inter-procedural analysis, strides capped at 1024 bytes).

Soundness against counter overflow relies on the unaddressable last page
(§4.4): the hoisted check computes ``base + M*scale`` in full 64-bit, so a
huge ``M`` fails the hoisted check instead of wrapping.

This pass only *marks* accesses safe and records hoist requests in
``fn.hoist_requests``; the SGXBounds instrumentation pass materializes the
preheader checks.  It must therefore only run in the SGXBounds pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import ops
from repro.ir.instructions import Instr, is_reg, slot_of
from repro.ir.module import Block, Function, Module

#: Largest stride considered (paper: "loops with small increments (up to
#: 1,024 bytes) — which is virtually all loops in regular applications").
MAX_STRIDE = 1024


class HoistRequest:
    """One hoisted upper-bound check, to be emitted in ``preheader``."""

    __slots__ = ("preheader", "base", "bound", "scale", "size")

    def __init__(self, preheader: str, base: int, bound: int, scale: int,
                 size: int):
        self.preheader = preheader
        self.base = base      # operand: loop-invariant (tagged) base pointer
        self.bound = bound    # operand: loop trip bound M
        self.scale = scale
        self.size = size


def _successors(blk: Block) -> List[str]:
    term = blk.terminator()
    if term is None:
        return []
    if term.op == ops.JMP:
        return [term.t1]
    if term.op == ops.BR:
        return [term.t1, term.t2]
    return []


def _find_loops(fn: Function) -> List[Tuple[str, Set[str]]]:
    """Natural loops as (header, body-block-name-set) via back edges."""
    blocks = {blk.name: blk for blk in fn.blocks}
    preds: Dict[str, List[str]] = {name: [] for name in blocks}
    for blk in fn.blocks:
        for succ in _successors(blk):
            if succ in preds:
                preds[succ].append(blk.name)
    # Iterative DFS to find back edges.
    back_edges: List[Tuple[str, str]] = []
    state: Dict[str, int] = {}
    if not fn.blocks:
        return []
    stack = [(fn.blocks[0].name, iter(_successors(fn.blocks[0])))]
    state[fn.blocks[0].name] = 1
    while stack:
        name, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in blocks:
                continue
            status = state.get(succ, 0)
            if status == 1:
                back_edges.append((name, succ))
            elif status == 0:
                state[succ] = 1
                stack.append((succ, iter(_successors(blocks[succ]))))
                advanced = True
                break
        if not advanced:
            state[name] = 2
            stack.pop()
    loops: List[Tuple[str, Set[str]]] = []
    for latch, header in back_edges:
        body: Set[str] = {header}
        work = [latch]
        while work:
            name = work.pop()
            if name in body:
                continue
            body.add(name)
            work.extend(p for p in preds.get(name, ()))
        loops.append((header, body))
    return loops


def _const_of(fn: Function, operand: Optional[int]) -> Optional[int]:
    if operand is None or is_reg(operand):
        return None
    value = fn.consts[slot_of(operand)]
    return value if isinstance(value, int) else None


def _def_in_block(blk: Block, reg: int) -> Optional[Instr]:
    """Last definition of ``reg`` inside ``blk``."""
    found = None
    for ins in blk.instrs:
        if ins.dest == reg:
            found = ins
    return found


def run_loop_hoist(module: Module) -> int:
    """Hoist checks; returns the number of accesses whose checks were elided."""
    hoisted_total = 0
    for fn in module.functions.values():
        hoisted_total += _hoist_function(fn)
    module.meta["hoisted_accesses"] = \
        module.meta.get("hoisted_accesses", 0) + hoisted_total
    return hoisted_total


def _hoist_function(fn: Function) -> int:
    blocks = {blk.name: blk for blk in fn.blocks}
    hoisted = 0
    requests: List[HoistRequest] = getattr(fn, "hoist_requests", [])
    # Assignment locations: reg -> list of (block name, instr).
    assigns: Dict[int, List[Tuple[str, Instr]]] = {}
    for blk in fn.blocks:
        for ins in blk.instrs:
            if ins.dest is not None:
                assigns.setdefault(ins.dest, []).append((blk.name, ins))

    for header, body in _find_loops(fn):
        head_blk = blocks[header]
        term = head_blk.terminator()
        if term is None or term.op != ops.BR or not is_reg(term.a):
            continue
        # Unwrap the MiniC condition shape: br (ne (slt i, M), 0).
        cond_def = _def_in_block(head_blk, term.a)
        if cond_def is None:
            continue
        if cond_def.op == ops.NE and _const_of(fn, cond_def.b) == 0 \
                and is_reg(cond_def.a):
            cond_def = _def_in_block(head_blk, cond_def.a) or cond_def
        if cond_def.op not in (ops.SLT, ops.ULT):
            continue
        if not is_reg(cond_def.a):
            continue
        ivar = cond_def.a
        bound = cond_def.b
        # The exit edge must leave the loop through the false target.
        if term.t1 not in body or term.t2 in body:
            continue
        # Bound must be loop-invariant.
        if is_reg(bound) and any(name in body for name, _ in assigns.get(bound, ())):
            continue

        def _invariant(operand: Optional[int]) -> bool:
            if operand is None or not is_reg(operand):
                return True
            return not any(name in body for name, _ in assigns.get(operand, ()))

        def _base_operand(operand: int) -> Optional[int]:
            """Preheader-safe operand for a GEP base: the register itself
            when loop-invariant, or the constant it is re-materialized
            from on every iteration (globals compile to ``mov gref``
            inside the loop)."""
            if _invariant(operand):
                return operand
            defs = [ins for name, ins in assigns.get(operand, ())
                    if name in body]
            consts = {ins.a for ins in defs}
            if all(ins.op == ops.MOV and ins.a is not None
                   and not is_reg(ins.a) for ins in defs) \
                    and len(consts) == 1:
                return next(iter(consts))
            return None

        # Induction variable: in-loop assignments are increments by a
        # positive constant (directly, or via MOV from an ADD temp).
        in_loop = [(n, i) for n, i in assigns.get(ivar, ()) if n in body]
        if not in_loop:
            continue
        is_induction = True
        for name, ins in in_loop:
            source = ins
            if ins.op == ops.MOV and is_reg(ins.a):
                source = _def_in_block(blocks[name], ins.a) or ins
            if not (source.op == ops.ADD and source.a == ivar
                    and (_const_of(fn, source.b) or 0) > 0):
                is_induction = False
                break
        if not is_induction:
            continue
        # Start value: the sole out-of-loop assignment is a constant >= 0.
        out_loop = [(n, i) for n, i in assigns.get(ivar, ()) if n not in body]
        if len(out_loop) != 1:
            continue
        start_ins = out_loop[0][1]
        start_value = _const_of(fn, start_ins.a)
        if start_ins.op != ops.MOV or start_value is None or start_value < 0:
            continue

        # Collect hoistable accesses: p = gep(base, ivar, scale); access [p].
        # In block order: ``body`` is a set of names, whose iteration
        # order would vary with the string hash seed.
        candidates: List[Tuple[Instr, Instr]] = []
        for blk in fn.blocks:
            if blk.name not in body:
                continue
            for pos, ins in enumerate(blk.instrs):
                if ins.op != ops.GEP or ins.b != ivar or ins.c != 0:
                    continue
                if ins.size <= 0 or ins.size > MAX_STRIDE:
                    continue
                base = _base_operand(ins.a)
                if base is None:
                    continue
                pointer = ins.dest
                # The GEP result must only be defined here (per loop body).
                defs = [(n, d) for n, d in assigns.get(pointer, ()) if n in body]
                if len(defs) != 1:
                    continue
                for access in blk.instrs[pos + 1:]:
                    if access.op in (ops.LOAD, ops.STORE) \
                            and access.a == pointer \
                            and access.size <= ins.size and not access.safe:
                        candidates.append((ins, access, base))
        if not candidates:
            continue

        preheader_name = f"pre_{header}_{len(fn.blocks)}"
        preheader = Block(preheader_name)
        preheader.instrs.append(Instr(ops.JMP, t1=header,
                                      comment="loop preheader"))
        # Rewire out-of-loop predecessors of the header to the preheader.
        for blk in fn.blocks:
            if blk.name in body and blk.name != header:
                continue
            term2 = blk.terminator()
            if term2 is None:
                continue
            if blk.name in body:
                continue
            for attr in ("t1", "t2"):
                if getattr(term2, attr, None) == header:
                    setattr(term2, attr, preheader_name)
        index = fn.blocks.index(head_blk)
        fn.blocks.insert(index, preheader)
        blocks[preheader_name] = preheader

        seen_geps = set()
        for gep_ins, access, base in candidates:
            access.safe = True
            gep_ins.safe = True
            hoisted += 1
            key = (base, id(gep_ins))
            if key in seen_geps:
                continue
            seen_geps.add(key)
            requests.append(HoistRequest(preheader_name, base, bound,
                                         gep_ins.size, access.size))
    fn.hoist_requests = requests
    return hoisted
