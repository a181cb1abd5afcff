import importlib.util
import sys
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


def summary_of(base, head, better="lower"):
    return ab_bench.summarize(list(zip(base, head)), better)


class TestVerdict:
    BASE = [1.00, 0.98, 1.02, 0.99, 1.01, 1.00, 0.97, 1.03, 1.00, 1.00]

    def test_improved_needs_nine_wins_and_a_gap_wider_than_the_spread(self):
        head = [0.8] * 10
        assert ab_bench.verdict(summary_of(self.BASE, head), 0.25) == "improved"
        # Eight wins in ten are not enough, however large the gain.
        head = [0.8] * 8 + [1.2, 1.2]
        assert ab_bench.verdict(summary_of(self.BASE, head), 0.25) == "unchanged"

    def test_gain_inside_the_base_spread_is_unchanged(self):
        # The head wins every pair, but its median moves by less than the
        # base's interquartile range (0.015 here).
        head = [b - 0.005 for b in self.BASE]
        s = summary_of(self.BASE, head)
        assert s["wins"]["head"] == 10
        assert ab_bench.verdict(s, 0.25) == "unchanged"

    def test_worse_beyond_the_bound(self):
        assert ab_bench.verdict(summary_of(self.BASE, [1.3] * 10), 0.25) == "worse"
        assert ab_bench.verdict(summary_of(self.BASE, [1.2] * 10), 0.25) == "unchanged"

    def test_higher_is_better(self):
        assert ab_bench.verdict(summary_of(self.BASE, [1.5] * 10, "higher"), 0.25) == "improved"
        assert ab_bench.verdict(summary_of(self.BASE, [0.7] * 10, "higher"), 0.25) == "worse"

    def test_base_spread_wider_than_the_bound_is_unresolved(self):
        base = [1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 2.0, 1.5]
        assert ab_bench.verdict(summary_of(base, base), 0.25) == "unresolved"
        assert ab_bench.verdict(summary_of(base, base), 1.0) == "unchanged"

    def test_equal_sides_are_unchanged(self):
        assert ab_bench.verdict(summary_of(self.BASE, self.BASE), 0.1) == "unchanged"

    def test_round_off_shift_of_a_deterministic_metric_is_unchanged(self):
        # Zero spread: without a floor, a 1e-12 shift in every pair would
        # read as improved or worse.
        base = [0.914] * 10
        for shift in (-1e-12, 1e-12):
            s = summary_of(base, [b * (1.0 + shift) for b in base])
            assert max(s["wins"].values()) == 10
            assert ab_bench.verdict(s, 0.25) == "unchanged"
        s = summary_of(base, [b * (1.0 - 1e-6) for b in base])
        assert ab_bench.verdict(s, 0.25) == "improved"


class TestSrcLines:
    def test_counts_every_python_file_of_the_package(self, tmp_path):
        package = tmp_path / "src" / "sparsemp"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("x = 1\ny = 2\n")
        (package / "sub" / "b.py").write_text("z = 3\n")
        (package / "notes.txt").write_text("not code\n")
        (tmp_path / "tools.py").write_text("outside = True\n")
        assert ab_bench.src_lines(tmp_path) == 3


# A stand-in for bench/run.py: spins for about 0.2 s of CPU, then prints an
# environment line and a result line as the real benchmark does.
STUB = [sys.executable, "-c", """
import json, time
end = time.process_time() + 0.2
while time.process_time() < end:
    pass
print(json.dumps({"python": "stub"}))
print(json.dumps({"metrics": {"op_s": {"value": 1.0}}, "attempted": 3, "failed": 0}))
"""]


class TestRunBench:
    def test_records_cpu_and_wall_seconds_of_the_run(self, tmp_path):
        result = ab_bench.run_bench(STUB, tmp_path, "w", 42, 1.0)
        assert result["environment"] == {"python": "stub"}
        assert result["attempted"] == 3
        assert 0.2 <= result["cpu_s"] <= result["wall_s"] + 0.05

    def test_measure_gives_quartiles_of_each_sides_cpu_and_wall_seconds(self, tmp_path):
        metrics = [{"name": "op_s", "better": "lower", "bound": 0.25}]
        run = ab_bench.measure(STUB, {"base": tmp_path, "head": tmp_path}, "w", 42, 1.0,
                               2, metrics)
        assert run["ops"]["head"] == {"attempted": 6, "failed": 0}
        for side in ("base", "head"):
            assert set(run["process"][side]) == {"cpu_s", "wall_s"}
            assert run["process"][side]["cpu_s"]["q1"] >= 0.2
