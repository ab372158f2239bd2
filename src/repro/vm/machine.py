"""The virtual machine executing IR programs inside a simulated enclave.

Design notes relevant to the reproduction:

* Every load/store goes through the enclave's traced address space, so the
  cache/EPC cost model sees *all* memory traffic — including metadata
  traffic inserted by instrumentation (shadow bytes, bounds tables,
  lower-bound words).  That is precisely where the paper's results come
  from.
* Addresses are masked to 32 bits on dereference: the enclave address
  space is 32-bit and tagged pointers carry their upper bound in the high
  half (paper §3.1); hardware would translate only the low bits.
* Return addresses live in simulated stack memory, so stack-smashing
  attacks (RIPE, CVE-2013-2028) are expressible: a corrupted return slot
  either hijacks control flow (attack succeeds) or crashes.
* Threads are deterministic cooperative threads scheduled round-robin with
  a configurable instruction quantum — fine-grained enough to reproduce
  MPX's pointer/bounds-metadata race (paper §4.1, Fig. 4c).
"""

from __future__ import annotations

import copy
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    ControlFlowHijack,
    OutOfMemory,
    ProgramExit,
    ReproError,
    RequestAborted,
    SegmentationFault,
    TrapError,
    VMError,
)
from repro.ir.module import Function, Module
from repro.memory.layout import (
    ADDRESS_MASK,
    DEFAULT_STACK_SIZE,
    PAGE_SIZE,
    STACK_REGION_BASE,
    STACK_TOP,
    in_code_region,
)
from repro.sgx.cache import LINE_SIZE
from repro.sgx.enclave import Enclave, EnclaveConfig
from repro.vm import policy as violation_policy
from repro.vm.loader import Program, load_program
from repro.vm.scheme import SchemeRuntime

M64 = (1 << 64) - 1
M32 = 0xFFFFFFFF
HI32 = M64 ^ M32

#: Sentinel a native returns to mean "re-execute this call when unblocked".
BLOCK_RETRY = object()

#: Simulated-cycle cost of rolling a thread back to its request checkpoint
#: (restoring frames + re-arming return tokens; a longjmp-and-cleanup path).
RECOVERY_COST = 400


class NativeResult:
    """Native return value carrying MPX-style bounds for the result."""

    __slots__ = ("value", "bounds")

    def __init__(self, value: int, bounds: Optional[Tuple[int, int]] = None):
        self.value = value
        self.bounds = bounds


RUNNABLE = 0
BLOCKED = 1
DONE = 2

#: VM attributes :meth:`VM.reset` keeps: the machine, the scheme runtime
#: and the loaded program (refilled in place, since predecoded handlers
#: hold them), the observer handles and fixed configuration.  Every
#: other attribute belongs to one incarnation and returns to its
#: post-load value.
_KEPT_ON_RESET = frozenset((
    "enclave", "space", "counters", "scheme", "program", "natives",
    "telemetry", "forensics", "events", "fastpath_stats", "mem_cache",
    "quantum", "max_instructions", "stack_size", "rng", "_boot"))


class Frame:
    """One activation record."""

    __slots__ = ("fn", "code", "consts", "regs", "pc", "dest", "base",
                 "ret_slot", "token", "bounds")

    def __init__(self, fn: Function, consts: List[object], base: int,
                 ret_slot: int, token: int, dest: Optional[int],
                 track_bounds: bool):
        self.fn = fn
        self.code = fn.code
        self.consts = consts
        self.regs: List[object] = [0] * fn.nregs
        self.pc = 0
        self.dest = dest          # caller register receiving the return value
        self.base = base          # frame base (lowest address)
        self.ret_slot = ret_slot  # address of the return-address word
        self.token = token        # expected return-address value
        self.bounds: Optional[Dict[int, Tuple[int, int]]] = (
            {} if track_bounds else None)


class Thread:
    """A simulated thread with its own stack region and call stack."""

    __slots__ = ("tid", "frames", "state", "sp", "stack_base", "stack_top",
                 "result", "wait", "checkpoint")

    def __init__(self, tid: int, stack_base: int, stack_top: int):
        self.tid = tid
        self.frames: List[Frame] = []
        self.state = RUNNABLE
        self.sp = stack_top
        self.stack_base = stack_base
        self.stack_top = stack_top
        self.result: int = 0
        self.wait: Optional[Tuple[str, int]] = None
        self.checkpoint: Optional["RequestCheckpoint"] = None


class RequestCheckpoint:
    """Recovery point taken at a ``net_recv`` boundary (drop-request policy).

    Snapshots the thread's *control state* — call stack, register files,
    program counters, stack pointer — right before the received request is
    handed to the program.  On a violation the VM restores this state, so
    the re-executed ``net_recv`` picks up the next request and the server
    keeps serving.  Heap/global memory is deliberately NOT rolled back:
    the isolation is request-level control-flow isolation, the same
    guarantee a forked worker or longjmp-based recovery gives, not full
    memory transactionality.
    """

    __slots__ = ("frames", "sp", "conn", "request")

    def __init__(self, thread: Thread, conn: int, request: bytes):
        self.frames = [
            (f.fn, f.consts, list(f.regs), f.pc, f.dest, f.base,
             f.ret_slot, f.token,
             dict(f.bounds) if f.bounds is not None else None)
            for f in thread.frames
        ]
        self.sp = thread.sp
        self.conn = conn
        self.request = request

    def restore(self, thread: Thread) -> None:
        frames: List[Frame] = []
        for fn, consts, regs, pc, dest, base, ret_slot, token, bounds \
                in self.frames:
            frame = Frame.__new__(Frame)
            frame.fn = fn
            frame.code = fn.code
            frame.consts = consts
            frame.regs = list(regs)
            frame.pc = pc
            frame.dest = dest
            frame.base = base
            frame.ret_slot = ret_slot
            frame.token = token
            frame.bounds = dict(bounds) if bounds is not None else None
            frames.append(frame)
        thread.frames = frames
        thread.sp = self.sp
        thread.state = RUNNABLE
        thread.wait = None


class VM:
    """Interpreter over a simulated enclave, parameterized by a scheme."""

    def __init__(self, enclave: Optional[Enclave] = None,
                 scheme: Optional[SchemeRuntime] = None,
                 quantum: int = 200,
                 max_instructions: int = 2_000_000_000,
                 stack_size: int = DEFAULT_STACK_SIZE,
                 seed: Optional[int] = None,
                 telemetry=None, forensics=None):
        self.enclave = enclave or Enclave()
        self.space = self.enclave.space
        self.counters = self.enclave.counters
        self.scheme = scheme or SchemeRuntime()
        #: Observability hook (``repro.telemetry.Telemetry``).  None — the
        #: default — keeps every hot path telemetry-free.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach_vm(self)
        #: Forensics hook (``repro.forensics.Forensics``); same contract
        #: as telemetry — None by default, observation-only.
        self.forensics = forensics
        #: Event hub over both handles (EPC faults/flushes, dropped
        #: requests); None when neither is attached, and then the hub
        #: module is not even imported.
        self.events = None
        if self.telemetry is not None or self.forensics is not None:
            from repro.obs.events import hub   # deferred: zero cost off
            self.events = hub(self.telemetry, self.forensics)
            self.enclave.attach_events(self.events)
        #: Request correlation (forensics): the id/payload of the request
        #: currently being served, and whether ids come from an external
        #: dispatcher (the fleet balancer) or from NetworkSim message ids.
        self.request_id: Optional[int] = None
        self.request_payload: Optional[bytes] = None
        self.external_rids = False
        #: Fleet worker id this VM incarnates (set by EnclaveWorker).
        self.worker_id: Optional[int] = None
        #: Compiled-block entries under the one key ``block``, tallied
        #: only while telemetry observes the run (zero-cost-when-off);
        #: published to the metrics registry as ``vm.fastpath.block``.
        self.fastpath_stats: Dict[str, int] = {}
        #: Inlined memory accessors shared by every function predecoded
        #: for this VM (``repro.vm.fastpath._MemCache``); built by the
        #: first predecode and kept by :meth:`reset`, like the enclave.
        self.mem_cache = None
        self.quantum = quantum
        self.max_instructions = max_instructions
        self.stack_size = stack_size
        # Seeded scheduler perturbation for chaos runs; None (the default)
        # keeps the exact deterministic round-robin order of the seed.
        self.rng: Optional[random.Random] = (
            random.Random(seed) if seed is not None else None)
        #: Fault injector (``repro.faults.FaultInjector``) hooked into the
        #: allocator and net natives; None disables injection entirely.
        self.faults = None
        #: When True, ``net_recv`` on an empty connection blocks the thread
        #: (fleet workers park between requests) instead of returning EOF.
        self.net_blocking = False
        self._ckpt_pending: Optional[Tuple[int, bytes]] = None
        self.dropped_requests = 0
        self.recovered_requests = 0
        self.program: Optional[Program] = None
        self.threads: List[Thread] = []
        self.current: Optional[Thread] = None
        self.stdout: List[str] = []
        self.exit_value: int = 0
        self._token_counter = 0x5245_5400_0000_0000
        self._next_stack = STACK_TOP
        self._executed = 0
        self.natives: Dict[str, Callable] = {}
        #: Per-call MPX bounds of native arguments (set when bounds tracking
        #: is active); libc wrappers consult it like the paper's MPX
        #: wrappers consult bounds registers.
        self.native_arg_bounds: Optional[List] = None
        #: Post-load state recorded by :meth:`snapshot` for :meth:`reset`.
        self._boot: Optional[tuple] = None
        self.scheme.attach(self)
        from repro.vm import libc, natives   # deferred: circular import
        self.natives.update(natives.core_natives())
        self.natives.update(libc.libc_natives())
        self.natives.update(self.scheme.natives())

    # ------------------------------------------------------------------
    # Loading and setup
    # ------------------------------------------------------------------
    def load(self, module: Module) -> Program:
        self.program = load_program(self, module)
        return self.program

    def snapshot(self) -> None:
        """Record the loaded VM's state by value, for :meth:`reset`."""
        self._boot = (
            self.enclave.snapshot(), self.scheme.snapshot(),
            self.rng.getstate() if self.rng is not None else None,
            dict(self.fastpath_stats),
            {name: copy.copy(value) for name, value in vars(self).items()
             if name not in _KEPT_ON_RESET})

    def reset(self) -> None:
        """Return to the state :meth:`snapshot` recorded, as if this VM
        had just been built and loaded (a restarted fleet worker).

        Memory, allocators, caches, EPC, counters and the scheme
        runtime's state are restored in place, and the program and its
        predecoded handlers are kept, so nothing is re-predecoded.  Like
        a new VM, a reset one opens its own telemetry lane.
        """
        if self._boot is None:
            raise VMError("reset() needs a snapshot() of the loaded VM")
        enclave, scheme, rng, stats, fields = self._boot
        self.enclave.restore(enclave)
        self.scheme.restore(scheme)
        if rng is not None:
            self.rng.setstate(rng)
        # Compiled blocks hold this dict, so it is reset in place.
        for kind in self.fastpath_stats:
            self.fastpath_stats[kind] = stats.get(kind, 0)
        for name in [name for name in vars(self)
                     if name not in _KEPT_ON_RESET and name not in fields]:
            delattr(self, name)       # set later, e.g. ``net``
        for name, value in fields.items():
            setattr(self, name, copy.copy(value))
        if self.telemetry is not None:
            self.telemetry.attach_vm(self)

    def _alloc_stack(self) -> Tuple[int, int]:
        top = self._next_stack
        base = top - self.stack_size
        if base < STACK_REGION_BASE:
            raise VMError("out of stack regions for threads")
        self.space.map(base, self.stack_size, name="stack")
        self._next_stack = base - PAGE_SIZE   # guard gap between stacks
        return base, top

    def new_thread(self, fn: Function, args: Sequence[object]) -> Thread:
        base, top = self._alloc_stack()
        thread = Thread(len(self.threads), base, top)
        self.threads.append(thread)
        self._push_frame(thread, fn, list(args), dest=None)
        return thread

    def _push_frame(self, thread: Thread, fn: Function,
                    args: Sequence[object], dest: Optional[int],
                    arg_bounds: Optional[Dict[int, Tuple[int, int]]] = None) -> Frame:
        fsize = fn.frame_size
        new_sp = thread.sp - fsize
        if new_sp < thread.stack_base:
            raise SegmentationFault(new_sp, fsize, "stack overflow")
        ret_slot = new_sp + fsize - Function.RET_SLOT
        self._token_counter += 1
        token = self._token_counter
        self.space.write_u64(ret_slot, token)
        consts = self.program.resolved_consts[fn.name]
        frame = Frame(fn, consts, new_sp, ret_slot, token, dest,
                      self.scheme.uses_register_bounds)
        nparams = len(fn.params)
        if len(args) < nparams:
            args = list(args) + [0] * (nparams - len(args))
        for i in range(nparams):
            frame.regs[i] = args[i]
        if arg_bounds and frame.bounds is not None:
            frame.bounds.update(arg_bounds)
        thread.sp = new_sp
        thread.frames.append(frame)
        if self.telemetry is not None:
            self.telemetry.function_enter(fn.name, thread.tid,
                                          self.counters.instructions)
        return frame

    # ------------------------------------------------------------------
    # Bulk memory helpers for natives (charge per cache line, not per byte)
    # ------------------------------------------------------------------
    def touch_range(self, address: int, size: int, is_write: bool) -> None:
        """Run the cache/EPC model over every line in [address, address+size)."""
        if size <= 0:
            return
        trace = self.space.tracer
        if trace is None:
            return
        first = address & ~(LINE_SIZE - 1)
        last = (address + size - 1) & ~(LINE_SIZE - 1)
        line = first
        while line <= last:
            trace(line, 1, is_write)
            line += LINE_SIZE

    def bulk_read(self, address: int, size: int) -> bytes:
        self.touch_range(address, size, False)
        with self.space.untraced() as space:
            return space.read(address, size)

    def bulk_write(self, address: int, data: bytes) -> None:
        self.touch_range(address, len(data), True)
        with self.space.untraced() as space:
            space.write(address, data)

    def charge(self, instructions: int) -> None:
        """Account for work a native performs on the simulated CPU."""
        self.counters.instructions += instructions

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, entry: str = "main", args: Sequence[object] = ()) -> int:
        """Execute ``entry`` to completion; returns its result."""
        if self.program is None:
            raise VMError("no program loaded")
        fn = self.program.functions.get(entry)
        if fn is None:
            raise VMError(f"no entry function {entry!r}")
        main_thread = self.new_thread(fn, args)
        try:
            while True:
                progressed = False
                order = list(self.threads)
                rng = self.rng
                if rng is not None and len(order) > 1:
                    rng.shuffle(order)
                for thread in order:
                    if thread.state != RUNNABLE:
                        continue
                    progressed = True
                    quantum = self.quantum
                    if rng is not None and quantum >= 8:
                        jitter = quantum // 8
                        quantum += rng.randrange(-jitter, jitter + 1)
                    self.step(thread, quantum)
                    if main_thread.state == DONE:
                        self.exit_value = main_thread.result
                        return self.exit_value
                if not progressed:
                    if all(t.state == DONE for t in self.threads):
                        self.exit_value = main_thread.result
                        return self.exit_value
                    raise VMError("deadlock: all live threads are blocked")
        except ProgramExit as stop:
            self.exit_value = stop.code
            return self.exit_value

    def step(self, thread: Thread, quantum: int) -> None:
        """Run ``thread`` for up to ``quantum`` instructions, containing
        a fault to the request in flight where the policy allows: a
        dropped request (:class:`RequestAborted`) rolls back to its
        checkpoint or else fail-stops on its violation, and under
        drop-request a segfault, hijack or trap rolls back too (a late
        crash: the check was evaded or the scheme missed the overflow).
        Any other fault propagates.  :meth:`run` and the fleet's
        ``EnclaveWorker`` tick loop both advance threads through here."""
        try:
            self._step(thread, quantum)
        except RequestAborted as drop:
            self.current = None
            if not self._recover_request(thread, drop.violation):
                raise drop.violation from None
        except (SegmentationFault, ControlFlowHijack, TrapError) as err:
            self.current = None
            if (self.scheme.policy != violation_policy.DROP_REQUEST
                    or not self._recover_request(thread, err)):
                raise

    def _finish_thread(self, thread: Thread, result: object) -> None:
        thread.state = DONE
        thread.result = result
        for other in self.threads:
            if other.state == BLOCKED and other.wait == ("join", thread.tid):
                other.state = RUNNABLE
                other.wait = None

    def unblock_lock_waiters(self, address: int) -> None:
        for other in self.threads:
            if other.state == BLOCKED and other.wait == ("lock", address):
                other.state = RUNNABLE
                other.wait = None

    def unblock_net_waiters(self, conn: int) -> None:
        """Wake threads parked in a blocking ``net_recv`` on ``conn``."""
        for other in self.threads:
            if other.state == BLOCKED and other.wait == ("net", conn):
                other.state = RUNNABLE
                other.wait = None

    def _recover_request(self, thread: Thread, err: Exception) -> bool:
        """Roll ``thread`` back to its request checkpoint after ``err``.

        Returns False when no checkpoint exists (violation outside request
        handling) — the caller then re-raises fail-stop.
        """
        ckpt = thread.checkpoint
        if ckpt is None:
            return False
        ckpt.restore(thread)
        # Re-arm the return-address tokens: the dropped request may have
        # smashed the stack (e.g. CVE-2013-2028) and recovery must not die
        # on a corrupted token it is about to discard anyway.  Untraced:
        # modelled as part of the flat RECOVERY_COST below.
        with self.space.untraced() as space:
            for frame in thread.frames:
                space.write_u64(frame.ret_slot, frame.token)
        self.charge(RECOVERY_COST)
        self.dropped_requests += 1
        self.recovered_requests += 1
        if self.events is not None:
            self.events.emit(
                "request_dropped", self.counters.instructions,
                wid=self.worker_id, rid=self.request_id, tid=thread.tid,
                depth=len(thread.frames), conn=ckpt.conn,
                reason=type(err).__name__)
        net = getattr(self, "net", None)
        if net is not None and hasattr(net, "fail_request"):
            net.fail_request(ckpt.conn, ckpt.request)
        return True

    def _corrupted_return(self, actual: int) -> None:
        target = actual & ADDRESS_MASK
        if in_code_region(target) and self.program.function_at(target):
            raise ControlFlowHijack(target, "corrupted return address")
        raise SegmentationFault(target, 8, "return to non-code address")

    def _step(self, thread: Thread, quantum: int) -> None:
        """Run ``thread`` for up to ``quantum`` instructions, faults
        uncontained (:meth:`step` contains them).

        Predecoded handler dispatch (see ``repro.vm.fastpath``): one
        telemetry segment per frame activation, ``frame.pc`` written back
        only when the frame didn't yield, an up-front instruction budget.
        The inner loop runs ``handlers[pc]`` — a plain handler or a
        compiled block of ``costs[pc]`` instructions — only while that
        cost fits in the remaining quantum, then finishes the slice on
        plain handlers, so thread switches land on exact instruction
        boundaries.
        """
        self.current = thread
        program = self.program
        telem = self.telemetry
        counters = self.counters

        self._executed += quantum   # upper bound; cheap budget check
        if self._executed > self.max_instructions:
            raise VMError(
                f"instruction budget exceeded ({self.max_instructions}); "
                f"likely an infinite loop in the simulated program")

        fast_for = program.fast_for
        while quantum > 0 and thread.state == RUNNABLE:
            frame = thread.frames[-1]
            fc = fast_for(frame.fn, self)
            handlers = fc.handlers
            costs = fc.costs
            plain = fc.plain
            regs = frame.regs
            pc = frame.pc
            switch = False
            if telem is not None:
                seg_snap = telem.functions.begin(counters)
            while True:
                cost = costs[pc]
                if cost > quantum:
                    break
                npc = handlers[pc](frame, regs, thread)
                quantum -= cost
                if npc >= 0:
                    pc = npc
                else:
                    switch = True
                    break
            if not switch:
                while quantum > 0:
                    npc = plain[pc](frame, regs, thread)
                    quantum -= 1
                    if npc >= 0:
                        pc = npc
                    else:
                        switch = True
                        break
            if telem is not None:
                telem.functions.end(frame.fn.name, counters, seg_snap)
            if not switch:
                frame.pc = pc
        self.current = None

    # ------------------------------------------------------------------
    def output(self) -> str:
        """Everything the program printed."""
        return "".join(self.stdout)


def build_image(module: Module,
                scheme: Optional[SchemeRuntime] = None) -> Module:
    """``scheme``'s passes over ``module`` (a plain clone for native),
    finalized: the image a VM loads.  ``module`` is never mutated."""
    return (scheme.instrument(module) if scheme else module.clone()).finalize()


def build_vm(module: Module, scheme: Optional[SchemeRuntime] = None,
             config: Optional[EnclaveConfig] = None, telemetry=None,
             forensics=None, image: Optional[Module] = None,
             **vm_kwargs) -> Tuple[VM, Module]:
    """The one build path: :func:`build_image` of ``module`` under
    ``scheme``, unless the caller already holds that ``image``, then a
    fresh :class:`Enclave` and :class:`VM` observed by exactly the sinks
    given.  Returns ``(vm, image)``; the caller loads the image.

    Nothing at run time mutates the image, so one build can feed many
    VMs.  ``vm_kwargs`` go to :class:`VM` (``seed``,
    ``max_instructions``).
    """
    if image is None:
        image = build_image(module, scheme)
    vm = VM(enclave=Enclave(config), scheme=scheme, telemetry=telemetry,
            forensics=forensics, **vm_kwargs)
    return vm, image


def report_crash(vm: VM, err: ReproError, forensics=None, **context) -> str:
    """How a run that ``err`` ended is reported: ``"OOM"`` for
    :class:`OutOfMemory` (the paper's missing bars), else the error's
    class name.  With ``forensics`` attached its postmortem is captured
    too, ``context`` (request id, payload, worker id, faulting thread)
    included."""
    reason = "OOM" if isinstance(err, OutOfMemory) else type(err).__name__
    if forensics is not None:
        forensics.capture(vm, err, reason=reason, **context)
    return reason

