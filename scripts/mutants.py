"""Mutation testing of one module: find the one-point changes no test notices.

Each mutant changes one expression of the module, from a fixed catalogue:

- flip `<` and `<=`, `>` and `>=`, `==` and `!=`;
- swap `and` and `or`, `<<` and `>>`, and `&` and `|`;
- drop a `not` (a unary `not`, or the `not` of `not in` and `is not`);
- add 1 to an integer constant, or take 1 from it;
- swap `min` and `max`, and `math.fsum` and `sum`;
- force the condition of an `if`, an `elif`, a conditional expression or a
  comprehension's filter true, or false.

Nothing inside an annotation or an f-string is mutated.

The mutants are written, one at a time, into a temporary copy of the
repository. The module's own test files run on each mutant; the full tier-1
suite then runs on each mutant those leave alive. Every mutant is reported
by line as killed, survived or timed out. A survivor listed in the file of
equivalent mutants (one `<module>:<line>:<col> <mutation> # <why>` a line)
is reported as equivalent; an entry that matches no surviving mutant is
reported as stale. The exit status is 1 when a mutant survives unlisted, else 0.

Usage:
    python scripts/mutants.py src/figdesc/tmr.py \\
        [--tests tests/test_tmr.py tests/test_ontology.py] \\
        [--equivalent scripts/equivalent_mutants.txt]

The module's tests default to tests/test_<module>.py. Each run is given ten
times the unmutated run's time, and at least 10 s, before it counts as timed
out. Mutants run one after the other, one pytest process at a time.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", ".bench_out", "*.egg-info"
)

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
DROPPED_NOT = {ast.NotIn: ast.In, ast.IsNot: ast.Is}
SWAPPED_BINOPS = {
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}
SWAPPED_CALLS = {"min": "max", "max": "min", "sum": "__import__('math').fsum", "fsum": "sum"}


class Mutant:
    """One mutation: the source span it replaces, the text put there, and a label."""

    __slots__ = ("line", "col", "end_line", "end_col", "text", "label")

    def __init__(self, node: ast.AST, text: str, label: str) -> None:
        self.line, self.col = node.lineno, node.col_offset
        self.end_line, self.end_col = node.end_lineno, node.end_col_offset
        self.text, self.label = text, label

    def key(self, module: str) -> str:
        return f"{module}:{self.line}:{self.col} {self.label}"

    def apply(self, source: str) -> str:
        """The source with this mutant's span replaced; offsets count UTF-8 bytes."""
        lines = source.encode().splitlines(keepends=True)
        head = b"".join(lines[: self.line - 1]) + lines[self.line - 1][: self.col]
        tail = lines[self.end_line - 1][self.end_col :] + b"".join(lines[self.end_line :])
        return (head + self.text.encode() + tail).decode()


def _op(op: ast.AST) -> str:
    """The source text of a comparison, boolean or binary operator."""
    if isinstance(op, ast.boolop):
        return "and" if isinstance(op, ast.And) else "or"
    if isinstance(op, ast.operator):
        return ast.unparse(ast.BinOp(ast.Name("a"), op, ast.Name("b")))[2:-2]
    return ast.unparse(ast.Compare(ast.Name("a"), [op], [ast.Name("b")]))[2:-2]


def _replaced(node: ast.expr, **changes) -> str:
    """The parenthesised source of a copy of node with some fields changed."""
    copy = type(node)(**{**{f: getattr(node, f) for f in node._fields}, **changes})
    return f"({ast.unparse(copy)})"


def _skipped(tree: ast.AST) -> set[int]:
    """ids of the nodes inside f-strings, whose source spans are not reliable,
    and inside annotations, which are types, not behaviour."""
    roots = []
    for j in ast.walk(tree):
        if isinstance(j, ast.JoinedStr):
            roots.append(j)
        elif isinstance(j, (ast.arg, ast.AnnAssign)) and j.annotation is not None:
            roots.append(j.annotation)
        elif isinstance(j, (ast.FunctionDef, ast.AsyncFunctionDef)) and j.returns is not None:
            roots.append(j.returns)
    return {id(n) for root in roots for n in ast.walk(root)}


def mutants(source: str) -> list[Mutant]:
    """Every mutant of the catalogue, in source order."""
    tree = ast.parse(source)
    skip = _skipped(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                swap = FLIPS.get(type(op)) or DROPPED_NOT.get(type(op))
                if swap is not None:
                    ops = [*node.ops[:i], swap(), *node.ops[i + 1 :]]
                    label = f"{_op(op)} -> {_op(swap())}"
                    found.append(Mutant(node, _replaced(node, ops=ops), label))
        elif isinstance(node, ast.BoolOp):
            swap = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            label = f"{_op(node.op)} -> {_op(swap)}"
            found.append(Mutant(node, _replaced(node, op=swap), label))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPPED_BINOPS:
            swap = SWAPPED_BINOPS[type(node.op)]()
            found.append(Mutant(node, _replaced(node, op=swap), f"{_op(node.op)} -> {_op(swap)}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append(Mutant(node, f"({ast.unparse(node.operand)})", "not dropped"))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
        ):
            for step in (1, -1):
                new = node.value + step
                found.append(Mutant(node, f"({new})", f"{node.value} -> {new}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else None
            if isinstance(func, ast.Attribute) and ast.unparse(func) == "math.fsum":
                name = "fsum"
            if name in SWAPPED_CALLS:
                swap = SWAPPED_CALLS[name]
                found.append(Mutant(func, swap, f"{name} -> {swap.split('.')[-1]}"))
        tests = []
        if isinstance(node, (ast.If, ast.IfExp)):
            tests = [node.test]
        elif isinstance(node, ast.comprehension):
            tests = node.ifs
        for test in tests:
            if not isinstance(test, ast.Constant):
                for forced in ("True", "False"):
                    found.append(Mutant(test, forced, f"condition -> {forced}"))
    return sorted(found, key=lambda m: (m.line, m.col, m.label))


def run(argv: list[str], cwd: Path, timeout: float) -> tuple[str, float]:
    """('passed', 'failed' or 'timed out', seconds) of one pytest run in cwd."""
    env = {**os.environ, "PYTHONPATH": str(cwd / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    # A session of its own, so a timeout also ends the processes the tests started.
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=cwd, env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out", time.perf_counter() - start
    return ("passed" if code == 0 else "failed"), time.perf_counter() - start


def load_equivalent(path: Path) -> dict[str, str]:
    """Listed equivalent mutants: key -> the reason it changes no behaviour."""
    listed = {}
    if path.is_file():
        for line in path.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                key, _, why = line.partition(" # ")
                listed[key.strip()] = why.strip()
    return listed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module file, e.g. src/figdesc/tmr.py")
    parser.add_argument("--tests", nargs="+", help="the module's test files")
    parser.add_argument(
        "--equivalent", default=str(ROOT / "scripts" / "equivalent_mutants.txt"),
        help="file of equivalent mutants",
    )
    args = parser.parse_args(argv)
    module = Path(args.module).resolve().relative_to(ROOT)
    tests = args.tests or [f"tests/test_{module.stem}.py"]
    source = (ROOT / module).read_text()
    found = mutants(source)
    listed = load_equivalent(Path(args.equivalent))

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / module
        own = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        verdict, took = run(own, copy, 600)
        if verdict != "passed":
            sys.exit(f"the unmutated module's tests {verdict}: {' '.join(tests)}")
        own_timeout = max(10.0, 10 * took)
        tier1_timeout = None
        results = []
        try:
            for n, mutant in enumerate(found, 1):
                target.write_text(mutant.apply(source))
                verdict, took = run(own, copy, own_timeout)
                stage = "own"
                if verdict == "passed":
                    if tier1_timeout is None:
                        target.write_text(source)
                        clean, took1 = run(TIER1, copy, 3600)
                        if clean != "passed":
                            sys.exit("tier-1 does not pass on the unmutated copy")
                        tier1_timeout = max(60.0, 10 * took1)
                        target.write_text(mutant.apply(source))
                    verdict, took = run(TIER1, copy, tier1_timeout)
                    stage = "tier-1"
                result = {"passed": "survived", "failed": "killed"}.get(verdict, verdict)
                key = mutant.key(module.name)
                if result == "survived" and key in listed:
                    result = "equivalent"
                results.append((mutant, result, stage, took))
                line = f"[{n}/{len(found)}] {key}: {result} ({stage} tests, {took:.1f} s)"
                print(line, flush=True)
        finally:
            target.write_text(source)

    equivalent = {m.key(module.name) for m, r, _, _ in results if r == "equivalent"}
    print(f"\n{module}: {len(found)} mutants")
    for outcome in ("killed", "equivalent", "timed out", "survived"):
        print(f"  {outcome}: {sum(r == outcome for _, r, _, _ in results)}")
    for mutant, result, _, _ in results:
        if result in ("survived", "equivalent"):
            why = f" # {listed[mutant.key(module.name)]}" if result == "equivalent" else ""
            print(f"{result.upper()} {mutant.key(module.name)}{why}")
    for key in sorted(k for k in listed if k.startswith(f"{module.name}:") and k not in equivalent):
        print(f"STALE {key}")
    return int(any(r == "survived" for _, r, _, _ in results))


if __name__ == "__main__":
    sys.exit(main())
