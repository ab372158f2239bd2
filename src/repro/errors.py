"""Exception taxonomy for the SGXBounds reproduction.

Every fault the simulated machine can raise derives from :class:`ReproError`
so callers can distinguish "the simulated program misbehaved" from genuine
bugs in the simulator itself (which raise ordinary Python exceptions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the simulated machine."""


class SegmentationFault(ReproError):
    """Access to unmapped or permission-protected simulated memory."""

    def __init__(self, address: int, size: int = 1, kind: str = "access"):
        self.address = address
        self.size = size
        self.kind = kind
        super().__init__(f"segmentation fault: {kind} of {size} byte(s) at 0x{address:08x}")


class GuardPageFault(SegmentationFault):
    """Access landed on a guard (unaddressable) page.

    SGXBounds marks the last 4K page of the enclave unaddressable so that
    hoisted loop checks stay sound under pointer over/underflow (paper §4.4).
    """

    def __init__(self, address: int, size: int = 1):
        super().__init__(address, size, kind="guard-page access")


class BoundsViolation(ReproError):
    """An instrumented bounds check failed (spatial memory-safety violation).

    Carries structured context so the harness can report *what* faulted —
    the address and object bounds, the access direction and size, the
    MiniC function that executed the access, and (once a
    :class:`~repro.vm.scheme.SchemeRuntime` has applied its violation
    policy) the policy and its outcome.  ``context()`` returns everything
    as a plain dict for reports and logs.
    """

    def __init__(self, scheme: str, address: int, lower: int, upper: int,
                 size: int = 1, what: str = "", access: str = "",
                 function: str = ""):
        self.scheme = scheme
        self.address = address
        self.lower = lower
        self.upper = upper
        self.size = size
        self.what = what
        self.access = access          # "read" / "write" when known
        self.function = function      # MiniC function containing the access
        self.policy: str = ""         # violation policy in force, once applied
        self.outcome: str = ""        # what the policy did about it
        detail = f" ({what})" if what else ""
        super().__init__(
            f"[{scheme}] out-of-bounds {size}-byte access at 0x{address:08x}, "
            f"object bounds [0x{lower:08x}, 0x{upper:08x}){detail}"
        )

    def context(self) -> dict:
        """Structured rendering of the violation for reports."""
        return {
            "scheme": self.scheme,
            "address": self.address,
            "lower": self.lower,
            "upper": self.upper,
            "size": self.size,
            "access": self.access,
            "function": self.function,
            "what": self.what,
            "policy": self.policy,
            "outcome": self.outcome,
        }


class RequestAborted(ReproError):
    """A violation under the ``drop-request`` policy.

    Raised by :meth:`repro.vm.scheme.SchemeRuntime.handle_violation` in
    place of the violation itself; the VM catches it, rolls the faulting
    thread back to its last request checkpoint, and keeps the server
    alive.  If no checkpoint exists (the violation happened outside
    request handling) the underlying violation is re-raised fail-stop.
    """

    def __init__(self, violation: Exception):
        self.violation = violation
        super().__init__(f"request aborted: {violation}")


class DoubleFree(ReproError):
    """free() called on a pointer that is not currently allocated."""

    def __init__(self, address: int):
        self.address = address
        super().__init__(f"double/invalid free of 0x{address:08x}")


class OutOfMemory(ReproError):
    """The simulated allocator or enclave ran out of address space.

    Intel MPX inside enclaves dies this way when bounds tables exhaust
    memory (paper Fig. 1, Fig. 7 `dedup`).
    """

    def __init__(self, requested: int, reason: str = ""):
        self.requested = requested
        self.reason = reason
        detail = f": {reason}" if reason else ""
        super().__init__(f"out of memory requesting {requested} bytes{detail}")


class WatchdogTimeout(ReproError):
    """A supervised worker exceeded its per-request instruction budget.

    Raised by the fleet watchdog (:mod:`repro.fleet`) when an enclave
    worker burns through its instruction budget without completing the
    in-flight request — the simulation's analog of a stuck/livelocked
    enclave that the supervisor must kill and restart.
    """

    def __init__(self, budget: int, spent: int, request_id: int = -1):
        self.budget = budget
        self.spent = spent
        self.request_id = request_id
        super().__init__(
            f"watchdog timeout: {spent} instructions spent on one request "
            f"(budget {budget})")


class VMError(ReproError):
    """Ill-formed program reached the interpreter (verifier should prevent)."""


class ProgramExit(ReproError):
    """The simulated program called exit(); carries the exit code."""

    def __init__(self, code: int = 0):
        self.code = code
        super().__init__(f"exit({code})")


class TrapError(VMError):
    """The program executed an explicit trap/abort instruction."""


class CompileError(ReproError):
    """MiniC front-end error (lex/parse/type-check/codegen)."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        where = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{where}")


class IRVerifyError(ReproError):
    """The IR verifier rejected a module."""


class ControlFlowHijack(ReproError):
    """An indirect control transfer reached a non-code or forbidden target.

    Raised when a corrupted return address or function pointer is actually
    *followed* by the VM — i.e. the attack succeeded.  Detection schemes are
    expected to raise :class:`BoundsViolation` before this point.
    """

    def __init__(self, target: int, via: str):
        self.target = target
        self.via = via
        super().__init__(f"control-flow hijack via {via} to 0x{target:08x}")
