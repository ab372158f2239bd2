"""Report formatting: the paper's tables and figures as ASCII.

Figures become tables of the same series the plots show (one row per
workload, one column per scheme); the harness prints them and the
benchmark files tee them into the experiment log.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


def format_cell(value: Optional[float]) -> str:
    if value is None:
        return "crash"
    return f"{value:7.2f}x"


def overhead_table(title: str,
                   table: Dict[str, Dict[str, Optional[float]]],
                   schemes: Sequence[str]) -> str:
    """Render overhead[workload][scheme] with a geometric-mean footer."""
    from repro.harness.runner import geomean
    lines = [title, "=" * len(title)]
    width = max((len(w) for w in table), default=8) + 2
    header = " " * width + "".join(f"{s:>12}" for s in schemes)
    lines.append(header)
    for workload in sorted(table):
        row = table[workload]
        cells = "".join(f"{format_cell(row.get(s)):>12}" for s in schemes)
        lines.append(f"{workload:<{width}}" + cells)
    cells = ""
    for s in schemes:
        values = [row.get(s) for row in table.values()]
        if any(v is None for v in values):
            survivors = [v for v in values if v is not None]
            cells += f"{format_cell(geomean(survivors)):>11}*"
        else:
            cells += f"{format_cell(geomean(values)):>12}"
    lines.append(f"{'gmean':<{width}}" + cells)
    if "*" in cells:
        lines.append("(* = over surviving runs only; 'crash' bars are "
                     "missing, as in the paper)")
    return "\n".join(lines)


def series_table(title: str, columns: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Generic table for sweeps (Fig. 1/8/13, Table 3)."""
    lines = [title, "=" * len(title)]
    widths = [max(len(str(c)), 10) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(_fmt(cell)))
    lines.append("  ".join(f"{str(c):>{w}}" for c, w in zip(columns, widths)))
    for row in rows:
        lines.append("  ".join(f"{_fmt(cell):>{w}}"
                               for cell, w in zip(row, widths)))
    return "\n".join(lines)


#: One row per (policy, rewarm-scale) cell of a fleet campaign sweep.
FLEET_COLUMNS = ["policy", "rewarm", "avail", "served", "errors", "failed",
                 "crashes", "restarts", "deaths", "restart_kcyc",
                 "breaker", "p50_kcyc", "p99_kcyc"]


def fleet_table(title: str, rows: Sequence[Sequence[object]]) -> str:
    """Availability + tail-latency summary of a fleet campaign sweep
    (``repro.fleet``): the §6.4 argument quantified at fleet scale."""
    return series_table(title, FLEET_COLUMNS, rows)


#: One row per (scheme, mode, arrival-rate) cell of an overload sweep.
#: ``goodput`` is timely serves per tick (end-to-end from the first
#: client attempt); ``crit_timely`` is the critical class's
#: timely/submitted fraction — the headline of the brownout argument.
OVERLOAD_COLUMNS = ["scheme", "mode", "rate", "ticks", "goodput", "timely",
                    "served", "rejected", "failed", "retries",
                    "crit_timely", "p99_kcyc"]


def overload_table(title: str, rows: Sequence[Sequence[object]]) -> str:
    """Goodput summary of an overload campaign sweep (``repro.overload``):
    congestion collapse vs admission control + retry budgets."""
    return series_table(title, OVERLOAD_COLUMNS, rows)


def render_violation(context: Dict[str, object]) -> str:
    """One-paragraph rendering of a structured violation context
    (:meth:`repro.errors.BoundsViolation.context`)."""
    access = context.get("access") or "access"
    function = context.get("function") or "?"
    what = context.get("what")
    policy = context.get("policy") or "abort"
    outcome = context.get("outcome") or "raised"
    lines = [
        f"violation: {context.get('scheme', '?')} detected an out-of-bounds "
        f"{access} of {context.get('size', '?')} byte(s)",
        f"  address : 0x{context.get('address', 0):08x} "
        f"(object [0x{context.get('lower', 0):08x}, "
        f"0x{context.get('upper', 0):08x}))",
        f"  in      : {function}()",
        f"  policy  : {policy} -> {outcome}",
    ]
    if what:
        lines.insert(2, f"  detail  : {what}")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if cell is None:
        return "crash"
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


DEFENSE_TABLE = """\
Table 1: Applicability of state-of-the-art defenses under shielded execution
(CF = control-flow hijack, DO = data-only attack, IL = information leak)
------------------------------------------------------------------------
defense                               CF    DO    IL
Control Flow Integrity                yes   no    no
Code Pointer Integrity                yes   no    no
Address Space Randomization           yes*  no    no
Data Integrity                        yes   yes   no
Data Flow Integrity                   yes   yes   no
Software Fault Isolation              yes   yes   yes
Data Space Randomization              yes*  yes*  yes*
Memory safety (this work)             yes   yes   yes
(* = insufficient entropy inside 36-bit SGX enclaves)
"""
