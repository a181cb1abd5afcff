import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab_bench)


class TestQuartiles:
    def test_odd_count_interpolates_between_order_statistics(self):
        q = ab_bench.quartiles([5.0, 1.0, 3.0, 2.0, 4.0])
        assert q == {"q1": 2.0, "median": 3.0, "q3": 4.0}

    def test_even_count(self):
        q = ab_bench.quartiles([1.0, 2.0, 3.0, 4.0])
        assert q == pytest.approx({"q1": 1.75, "median": 2.5, "q3": 3.25})

    def test_single_value(self):
        assert ab_bench.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


class TestSummarize:
    def test_lower_is_better(self):
        pairs = [(1.0, 0.5), (1.0, 0.6), (1.0, 1.2), (0.9, 0.9)]
        s = ab_bench.summarize(pairs, "lower")
        assert s["wins"] == {"head": 2, "base": 1}
        assert s["pairs"] == 4
        assert s["base"]["median"] == 1.0
        assert s["head"]["median"] == pytest.approx(0.75)

    def test_higher_is_better(self):
        s = ab_bench.summarize([(1.0, 2.0), (3.0, 2.0)], "higher")
        assert s["wins"] == {"head": 1, "base": 1}

    def test_ties_count_for_neither_side(self):
        s = ab_bench.summarize([(2.0, 2.0)] * 3, "lower")
        assert s["wins"] == {"head": 0, "base": 0}
        assert s["base"] == s["head"]
