"""Before/after benchmark pairs: a base revision against the working tree.

    python3 tools/ab_bench.py --pr N --base HEAD --pairs 10 \
        --workload rank_path --seed 42 --seed 11 --seconds 40

For every workload and seed, runs `bench/run.py --trace 0` (the command in
BENCHMARK.json) N times on each side, alternating which side goes first in
each pair so that slow drift of the machine hits both equally. The base side
is a detached `git worktree` of --base, removed afterwards, unless --base-dir
names an existing checkout of it. Writes BENCH_<pr>.json at the repository
root: per workload, seed and end-to-end metric, each side's q1/median/q3,
the number of pairs each side won (a tie counts for neither) and a verdict
(see `verdict`), plus the attempted and failed ops of each side, the
quartiles of each side's CPU and wall seconds per run (CPU well below wall
means the host kept the run waiting) and each side's line count of
src/sparsemp. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Median differences within this share of the base median are round-off:
# a deterministic quality metric has zero spread, so any shift would count.
ROUNDOFF_FLOOR = 1e-9


def quartiles(values: list[float]) -> dict:
    """q1, median and q3, interpolated linearly between order statistics."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[tuple[float, float]], better: str) -> dict:
    """Quartiles of each side and wins over (base, head) pairs of a metric."""
    sign = 1.0 if better == "lower" else -1.0
    head_wins = sum(sign * (h - b) < 0 for b, h in pairs)
    base_wins = sum(sign * (h - b) > 0 for b, h in pairs)
    return {
        "better": better,
        "base": quartiles([b for b, _ in pairs]),
        "head": quartiles([h for _, h in pairs]),
        "wins": {"head": head_wins, "base": base_wins},
        "pairs": len(pairs),
    }


def verdict(summary: dict, bound: float) -> str:
    """What a summarized metric shows, `bound` being its relative bound.

    "improved": the head won at least 9 in 10 pairs and its median is better
    than the base median by more than the base's interquartile range and
    by more than ROUNDOFF_FLOOR times the base median;
    "worse": the head median is worse than the base median by more than
    bound times the base median; "unresolved": the base's interquartile
    range is wider than that bound, too wide to tell; "unchanged" otherwise.
    """
    sign = 1.0 if summary["better"] == "lower" else -1.0
    base, head = summary["base"], summary["head"]
    gain = sign * (base["median"] - head["median"])
    spread, limit = base["q3"] - base["q1"], bound * abs(base["median"])
    floor = ROUNDOFF_FLOOR * abs(base["median"])
    if 10 * summary["wins"]["head"] >= 9 * summary["pairs"] and gain > max(spread, floor):
        return "improved"
    if -gain > limit:
        return "worse"
    if spread > limit:
        return "unresolved"
    return "unchanged"


def src_lines(checkout: Path) -> int:
    """Lines of the package's Python source in `checkout`."""
    return sum(len(path.read_text().splitlines())
               for path in (checkout / "src" / "sparsemp").rglob("*.py"))


def run_bench(command: list[str], checkout: Path, workload: str, seed: int,
              seconds: float) -> dict:
    """The result line of one benchmark run in `checkout`, with the
    environment line it starts with under "environment" and the run's
    CPU (user plus system) and wall seconds under "cpu_s" and "wall_s"."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    environment, *_, result = proc.stdout.strip().splitlines()
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {**json.loads(result), "environment": json.loads(environment),
            "cpu_s": cpu, "wall_s": wall}


def measure(command, checkouts: dict, workload: str, seed: int, seconds: float,
            n_pairs: int, metrics: list[dict]) -> dict:
    """n_pairs alternating base/head runs, summarized per end-to-end metric."""
    results = {"base": [], "head": []}
    for k in range(n_pairs):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for side in order:
            results[side].append(run_bench(command, checkouts[side], workload, seed, seconds))
            print(f"{workload} seed={seed} pair {k + 1}/{n_pairs} {side}: "
                  f"{results[side][-1]['metrics']['op_s']['value']:.4g} s", file=sys.stderr)
    summary = {}
    for m in metrics:
        summary[m["name"]] = summarize(
            [(b["metrics"][m["name"]]["value"], h["metrics"][m["name"]]["value"])
             for b, h in zip(results["base"], results["head"])],
            m["better"])
        summary[m["name"]]["verdict"] = verdict(summary[m["name"]], m["bound"])
    ops = {side: {"attempted": sum(r["attempted"] for r in runs),
                  "failed": sum(r["failed"] for r in runs)}
           for side, runs in results.items()}
    process = {side: {key: quartiles([r[key] for r in runs]) for key in ("cpu_s", "wall_s")}
               for side, runs in results.items()}
    return {"workload": workload, "seed": seed, "metrics": summary, "ops": ops,
            "process": process, "environment": results["head"][0]["environment"]}


@contextlib.contextmanager
def base_checkout(rev: str, base_dir: str | None):
    """A checkout of rev: base_dir as given, or a temporary git worktree."""
    if base_dir:
        yield Path(base_dir).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        path = Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(path), rev],
                       cwd=ROOT, check=True, capture_output=True)
        try:
            yield path
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(path)],
                           cwd=ROOT, check=True, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD", help="revision to compare against")
    parser.add_argument("--base-dir", default=None,
                        help="existing checkout of --base to use instead of a worktree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, action="append", help="repeatable; default 42")
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = args.seed or [42]
    rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    with base_checkout(rev, args.base_dir) as base:
        runs = [measure(spec["command"], {"base": base, "head": ROOT}, w, s,
                        args.seconds, args.pairs, spec["end_to_end"])
                for w in workloads for s in seeds]
        lines = {"base": src_lines(base), "head": src_lines(ROOT)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps({
        "base": rev, "head": "working tree", "pairs": args.pairs,
        "seconds": args.seconds, "src_lines": lines, "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
