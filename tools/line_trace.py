"""Statements of the package that nothing executes, found by a line trace.

    python3 tools/line_trace.py --seed 42 --seed 11 [--pytest ARG ...]

For every workload of bench/workloads.py and every seed, builds the round's
instances untraced, then runs the workload's op on each instance under
`sys.settrace`. With --pytest, also runs pytest (arguments default to
`-q tests`) with a plugin that traces its session. Prints, per module of
src/sparsemp, each in-function statement that no traced run executed, then
the totals. A statement counts as executed when any line of it (of its
header, for a compound statement) ran; statements that compile to no code,
such as docstrings, are not counted. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sparsemp"


class LineTracer:
    """While active, records the lines executed in files under `root`."""

    def __init__(self, root: Path):
        self.root = str(Path(root).resolve())
        self.hits: dict[str, set[int]] = defaultdict(set)

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.root):
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def __enter__(self) -> LineTracer:
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in `code` and in the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statement_spans(source: str, filename: str = "<source>") -> dict[int, range]:
    """First line -> the lines that execute it, for every statement inside a
    function body that compiles to code: a simple statement's own lines, a
    compound statement's header (decorators included) up to its body."""
    tree = ast.parse(source, filename)
    code_lines = _code_lines(compile(tree, filename, "exec"))
    spans = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for top in func.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.stmt):
                    continue
                start = min([node.lineno] + [d.lineno for d in
                                             getattr(node, "decorator_list", [])])
                body = getattr(node, "body", None)
                end = body[0].lineno - 1 if body else node.end_lineno
                span = range(start, max(start, end) + 1)
                if code_lines.intersection(span):
                    spans[node.lineno] = span
    return spans


def unexecuted(path: Path, hits: set[int]) -> tuple[list[int], int]:
    """The first lines of the in-function statements of `path` that no line
    in `hits` executed, and how many such statements the file holds."""
    spans = statement_spans(Path(path).read_text(), str(path))
    missed = sorted(first for first, span in spans.items() if not hits.intersection(span))
    return missed, len(spans)


class PytestPlugin:
    """Traces a pytest session from its start to its finish."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer

    def pytest_sessionstart(self, session):
        self.tracer.__enter__()

    def pytest_sessionfinish(self, session, exitstatus):
        self.tracer.__exit__()


def trace_workloads(tracer: LineTracer, seeds: list[int]) -> None:
    """Each workload's op on each instance of each seed's round, traced."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    with tempfile.TemporaryDirectory() as scratch:
        for name, workload in workloads.WORKLOADS.items():
            for seed in seeds:
                instances = workload.build(seed)
                with tracer:
                    for instance in instances:
                        workload.op(instance, scratch)
                print(f"traced {name} seed={seed}: {len(instances)} instances",
                      file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 42")
    parser.add_argument("--pytest", nargs=argparse.REMAINDER, metavar="ARG", default=None,
                        help="last option: also trace a pytest run with the arguments "
                             "that follow (default -q tests)")
    args = parser.parse_args(argv)

    tracer = LineTracer(PACKAGE)
    trace_workloads(tracer, args.seed or [42])
    if args.pytest is not None:
        import pytest

        pytest.main(args.pytest or ["-q", "tests"], plugins=[PytestPlugin(tracer)])

    n_missed = n_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        missed, total = unexecuted(path, tracer.hits[str(path.resolve())])
        n_missed, n_total = n_missed + len(missed), n_total + total
        lines = path.read_text().splitlines()
        for first in missed:
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{n_missed} of {n_total} in-function statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
