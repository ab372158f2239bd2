"""Seeded MiniC program generator for the interpreter expectations.

Grammar-bounded random programs exercising the predecoder's whole
instruction surface: integer/float arithmetic, guarded division and
shifts, nested bounded loops (``for``/``while``/``do``), ``break`` /
``continue``, function calls, heap and global arrays (masked in-bounds
indices), structs through pointers, and ``printf`` so every program has
observable stdout on top of its exit value.

Determinism contract: ``generate(random.Random(seed))`` returns the same
source for the same seed forever — the fuzz tests in
``tests/test_vm_differential.py`` rely on it, and so does triage
(``python -c "from tests.genprog import generate; import random;
print(generate(random.Random(1234)))"`` reproduces any failing program).

Every generated program terminates: all loop bounds are literals and
loop variables are never reassigned inside their own body.
"""

from __future__ import annotations

import random
from typing import List

#: Power-of-two array length so ``expr & (LEN - 1)`` is always in bounds.
ARRAY_LEN = 16
_MASK = ARRAY_LEN - 1

_BIN_OPS = ("+", "-", "*", "&", "|", "^")
_CMP_OPS = ("<", ">", "<=", ">=", "==", "!=")


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.locals: List[str] = []
        #: Loop counters: readable in expressions, never assignment targets
        #: (that is the termination guarantee).
        self.loop_vars: List[str] = []
        self.helpers: List[str] = []
        self.in_main = False       # heap/sp only exist in main's scope
        self._label = 0

    def fresh(self, prefix: str) -> str:
        self._label += 1
        return f"{prefix}{self._label}"

    # -- expressions ------------------------------------------------------
    def expr(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 3 or roll < 0.30:
            return str(rng.randint(-99, 999))
        if roll < 0.55 and (self.locals or self.loop_vars):
            return rng.choice(self.locals + self.loop_vars)
        if roll < 0.62:
            # Guarded division/modulo: divisor is always in [1, 8].
            op = rng.choice(("/", "%"))
            return (f"({self.expr(depth + 1)} {op} "
                    f"(({self.expr(depth + 1)} & 7) + 1))")
        if roll < 0.69:
            # Bounded shifts keep values in range without trapping.
            op = rng.choice(("<<", ">>"))
            return (f"({self.expr(depth + 1)} {op} "
                    f"({self.expr(depth + 1)} & 7))")
        if roll < 0.76:
            op = rng.choice(_CMP_OPS)
            return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"
        if roll < 0.82 and self.helpers:
            name = rng.choice(self.helpers)
            return f"{name}({self.expr(depth + 1)}, {self.expr(depth + 1)})"
        if roll < 0.88:
            return f"g_arr[({self.expr(depth + 1)}) & {_MASK}]"
        op = rng.choice(_BIN_OPS)
        return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"

    def index(self) -> str:
        return f"({self.expr(1)}) & {_MASK}"

    # -- statements -------------------------------------------------------
    def stmt(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        pad = "    " * (depth + 1)
        if roll < 0.22 and self.locals:
            target = rng.choice(self.locals)
            op = rng.choice(("=", "+=", "-=", "^=", "|=", "&="))
            return f"{pad}{target} {op} {self.expr()};"
        if roll < 0.38:
            dest = rng.choice(("g_arr", "heap")) if self.in_main else "g_arr"
            op = rng.choice(("=", "+=", "^="))
            return f"{pad}{dest}[{self.index()}] {op} {self.expr()};"
        if roll < 0.50 and depth < 2:
            body = self.stmt(depth + 1)
            if rng.random() < 0.5:
                return (f"{pad}if ({self.expr()}) {{\n{body}\n{pad}}} "
                        f"else {{\n{self.stmt(depth + 1)}\n{pad}}}")
            return f"{pad}if ({self.expr()}) {{\n{body}\n{pad}}}"
        if roll < 0.64 and depth < 2:
            var = self.fresh("i")
            bound = rng.randint(2, 12)
            inner = []
            self.loop_vars.append(var)
            for _ in range(rng.randint(1, 3)):
                inner.append(self.stmt(depth + 1))
            if rng.random() < 0.3:
                inner.append(f"{'    ' * (depth + 2)}if ({var} == "
                             f"{rng.randint(0, bound)}) "
                             f"{rng.choice(('break', 'continue'))};")
            self.loop_vars.remove(var)
            body = "\n".join(inner)
            return (f"{pad}for (int {var} = 0; {var} < {bound}; "
                    f"{var}++) {{\n{body}\n{pad}}}")
        if roll < 0.72 and depth < 2:
            var = self.fresh("w")
            bound = rng.randint(2, 10)
            self.loop_vars.append(var)
            body = self.stmt(depth + 1)
            self.loop_vars.remove(var)
            return (f"{pad}int {var} = {bound};\n"
                    f"{pad}while ({var} > 0) {{\n{body}\n"
                    f"{'    ' * (depth + 2)}{var} = {var} - 1;\n{pad}}}")
        if roll < 0.80:
            return (f'{pad}printf("v=%d\\n", '
                    f"({self.expr()}) & 65535);")
        if roll < 0.88 and self.in_main:
            field = rng.choice(("a", "b"))
            return f"{pad}sp->{field} {rng.choice(('=', '+='))} {self.expr()};"
        if self.locals:
            target = rng.choice(self.locals)
            return f"{pad}{target} = {self.expr()};"
        return f"{pad}g_acc += {self.expr()};"

    # -- declarations -----------------------------------------------------
    def helper(self, name: str) -> str:
        saved, self.locals = self.locals, ["a", "b"]
        rng = self.rng
        lines = [f"int {name}(int a, int b) {{"]
        acc = self.fresh("h")
        lines.append(f"    int {acc} = {self.expr()};")
        self.locals.append(acc)
        for _ in range(rng.randint(1, 3)):
            lines.append(self.stmt())
        lines.append(f"    return {acc} & 262143;")
        lines.append("}")
        self.locals = saved
        return "\n".join(lines)


def generate(rng: random.Random) -> str:
    """One complete, terminating, printf-observable MiniC program."""
    gen = _Gen(rng)
    parts = [
        "struct Pair { int a; int b; };",
        f"int g_arr[{ARRAY_LEN}];",
        "int g_acc;",
    ]
    for _ in range(rng.randint(1, 3)):
        name = gen.fresh("f")
        parts.append(gen.helper(name))
        gen.helpers.append(name)

    gen.in_main = True
    lines = ["int main() {"]
    n_locals = rng.randint(2, 4)
    for _ in range(n_locals):
        var = gen.fresh("x")
        lines.append(f"    int {var} = {rng.randint(-50, 200)};")
        gen.locals.append(var)
    lines.append(f"    int *heap = (int*)malloc({ARRAY_LEN} * sizeof(int));")
    lines.append("    struct Pair *sp = "
                 "(struct Pair*)malloc(sizeof(struct Pair));")
    lines.append(f"    for (int s = 0; s < {ARRAY_LEN}; s++) "
                 f"{{ heap[s] = s * {rng.randint(1, 9)}; "
                 f"g_arr[s] = s ^ {rng.randint(0, 255)}; }}")
    lines.append(f"    sp->a = {rng.randint(0, 99)}; "
                 f"sp->b = {rng.randint(0, 99)};")
    lines.append(f"    double fp = {rng.randint(1, 9)}.5;")
    for _ in range(rng.randint(4, 10)):
        lines.append(gen.stmt())
    lines.append(f"    fp = fp * {rng.randint(2, 5)}.25 + "
                 f"(double)(({gen.expr(1)}) & 255);")
    lines.append("    int acc = g_acc + sp->a * 3 + sp->b + (int)fp;")
    lines.append(f"    for (int t = 0; t < {ARRAY_LEN}; t++) "
                 "acc += heap[t] * (t + 1) + g_arr[t];")
    lines.append('    printf("acc=%d\\n", acc & 1048575);')
    lines.append("    free(heap);")
    lines.append("    free(sp);")
    lines.append("    return acc & 65535;")
    lines.append("}")
    parts.append("\n".join(lines))
    return "\n\n".join(parts)


def corpus(seed: int, count: int) -> List[str]:
    """``count`` deterministic programs derived from one master seed."""
    master = random.Random(seed)
    return [generate(random.Random(master.randrange(1 << 30)))
            for _ in range(count)]
