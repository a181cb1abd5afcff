import importlib.util
import sys
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "line_trace", Path(__file__).resolve().parent.parent / "tools" / "line_trace.py")
line_trace = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(line_trace)

TOY = '''\
"""A toy module."""

LIMIT = 3


def clip(x):
    """Clip x to LIMIT."""
    global LIMIT
    if x > LIMIT:
        return LIMIT
    total = sum(
        [x, 0],
    )
    try:
        y = 1 / x
    except ZeroDivisionError:
        y = 0.0
    return total + 0 * y


def unused():
    def inner():
        return 1
    return inner()
'''


def load_toy(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy_line_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def line_of(text: str) -> int:
    return TOY.splitlines().index(text) + 1


class TestStatementSpans:
    def test_counts_in_function_statements_that_compile_to_code(self):
        spans = line_trace.statement_spans(TOY)
        # docstrings and `global` compile to no code; module level is not counted
        assert line_of('    """Clip x to LIMIT."""') not in spans
        assert line_of("    global LIMIT") not in spans
        assert line_of("LIMIT = 3") not in spans
        # a multi-line statement spans all its lines, a compound one its header
        assert spans[line_of("    total = sum(")] == range(11, 14)
        assert spans[line_of("    if x > LIMIT:")] == range(9, 10)
        assert line_of("        return 1") in spans


class TestTracer:
    def test_reports_the_statements_no_call_reached(self, tmp_path):
        path, toy = load_toy(tmp_path)
        tracer = line_trace.LineTracer(tmp_path)
        with tracer:
            assert toy.clip(2) == 2
        assert sys.gettrace() is not tracer._call
        missed, total = line_trace.unexecuted(path, tracer.hits[str(path.resolve())])
        # an except clause is not a statement; the statements of its body are
        assert missed == [line_of(text) for text in (
            "        return LIMIT", "        y = 0.0",
            "    def inner():", "        return 1", "    return inner()",
        )]
        assert total == len(line_trace.statement_spans(TOY))

    def test_lines_outside_the_root_are_not_recorded(self, tmp_path):
        path, toy = load_toy(tmp_path)
        tracer = line_trace.LineTracer(tmp_path / "elsewhere")
        with tracer:
            toy.clip(5)
        assert not tracer.hits
