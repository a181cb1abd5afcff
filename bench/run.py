"""sparsemp benchmark: one workload per invocation, result as the last line.

    python3 bench/run.py --workload lsdp_dense --seed 42 --seconds 40 --trace 0

All workloads, end to end and traced:

    for w in lsdp_dense clsdp_sparse rank_path; do for t in 0 1; do
        python3 bench/run.py --workload $w --seed 42 --seconds 40 --trace $t
    done; done

Run from the root of a source checkout; the package is imported from its
`src/`. Set-up builds a fixed round of instances from the seed; the run
then times whole rounds of the op -- train, evaluate, save, load for the
trainer workloads; compute_path plus rank_features for rank_path -- until
another round would overrun --seconds. Every op is checked; a failed check
or an exception counts as a failed op.

--trace 0 prints the end-to-end metrics: op time (mean over a round's
instances, median over rounds), set-up time, peak RSS and the quality of
the first round. Set-up is repeated SETUP_REPS times before every op and
reported as the median of all builds, so that it samples the machine over
the whole run as op_s does.
--trace 1 times one untraced round, then the same rounds with spans around
the layer functions (see tracing.py), and prints per-layer metrics as the
mean per traced op; trace.overhead_s is the traced minus the untraced mean
op time over the first round.
The line before the result records the environment of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
SETUP_REPS = 5

# (name, unit) of every metric printed; BENCHMARK.json lists the same.
END_TO_END = [
    ("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("objective", "1"), ("res_rms", "rad"), ("n_coef", "count"),
]
PER_LAYER = [
    ("elastic_net.solve.calls", "count"),
    ("elastic_net.solve.busy_s", "s"),
    ("elastic_net.solve.first_s", "s"),
    ("elastic_net.solve.cert_kkt", "count"),
    ("elastic_net.solve.cert_gap", "count"),
    ("elastic_net.solve.cert_loose", "count"),
    ("elastic_net.solve.strict_ratio", "1"),
    ("elastic_net.solve.max_kkt", "1"),
    ("elastic_net.solve.design_mb", "MB"),
    ("elastic_net.to_lasso.busy_s", "s"),
    ("elastic_net.objective.busy_s", "s"),
    ("elastic_net.prune.busy_s", "s"),
    ("elastic_net.prune.dropped", "count"),
    ("feature_opt.bfgs.calls", "count"),
    ("feature_opt.bfgs.busy_s", "s"),
    ("feature_opt.bfgs.self_s", "s"),
    ("feature_opt.bfgs.iters", "count"),
    ("feature_opt.bfgs.converged", "count"),
    ("feature_opt.bfgs.ls_failed", "count"),
    ("feature_opt.theta_dim_max", "count"),
    ("feature_opt.cost_grad.calls", "count"),
    ("feature_opt.cost_grad.busy_s", "s"),
    ("rbf.build_basis.calls", "count"),
    ("rbf.build_basis.busy_s", "s"),
    ("rbf.eval_basis.calls", "count"),
    ("rbf.eval_basis.busy_s", "s"),
    ("reg_path.compute_path.busy_s", "s"),
    ("reg_path.self_s", "s"),
    ("reg_path.grid_points", "count"),
    ("reg_path.rank_features.busy_s", "s"),
    ("trainers.fit.busy_s", "s"),
    ("trainers.self_s", "s"),
    ("trainers.outer_iters", "count"),
    ("trainers.features_initial", "count"),
    ("trainers.features_final", "count"),
    ("trainers.evaluate.busy_s", "s"),
    ("policy.save.busy_s", "s"),
    ("policy.load.busy_s", "s"),
    ("policy.bytes", "bytes"),
    ("trajectory.synth.busy_s", "s"),
    ("trajectory.stack_center.busy_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
    ("src.lines", "count"),
]
# Per-layer names that are not span or counter keys of the same name.
RENAMED = {
    "reg_path.self_s": "reg_path.compute_path.self_s",
    "trainers.self_s": "trainers.fit.self_s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_sparsemp():
    """Import sparsemp from this checkout's src/, never from elsewhere."""
    if not (SRC / "sparsemp" / "__init__.py").is_file():
        sys.exit(f"error: no sparsemp package under {SRC}; run from a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import sparsemp

    if SRC.resolve() not in Path(sparsemp.__file__).resolve().parents:
        sys.exit(f"error: sparsemp imported from {sparsemp.__file__}, not {SRC}")
    return sparsemp


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "python": sys.version.split()[0],
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "sparsemp").rglob("*.py"))


class Runner:
    """Builds and times ops of one workload; counts attempted and failed ops."""

    def __init__(self, workload, seed: int, scratch: str):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.setup_times: list[float] = []

    def build(self):
        """SETUP_REPS timed builds of the instances; returns the last."""
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            instances = self.workload.build(self.seed)
            self.setup_times.append(time.perf_counter() - start)
        return instances

    def op(self, instance, context=contextlib.nullcontext):
        """(seconds, output) of one checked op; output is None if it failed.

        `context()` is entered around the op only, not around its checks.
        """
        self.build()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with context():
                out = self.workload.op(instance, self.scratch)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        problems = self.workload.check(instance, out)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return elapsed, None
        return elapsed, out

    def rounds(self, instances, seconds: float, context=contextlib.nullcontext):
        """Whole rounds until another would overrun.

        Returns the op times of each round and the outputs of the first.
        """
        times, first = [], None
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            results = [self.op(i, context) for i in instances]
            times.append([elapsed for elapsed, _ in results])
            if first is None:
                first = [out for _, out in results]
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                return times, first


def end_to_end(runner, seconds) -> dict:
    instances = runner.build()
    times, outputs = runner.rounds(instances, seconds)
    done = [(i, o) for i, o in zip(instances, outputs) if o is not None]
    if not done:
        sys.exit("error: every op of the first round failed")
    quality = runner.workload.quality(*map(list, zip(*done)))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Too few ops for a percentile with ten samples beyond it: the maximum.
    ops = [t for round_times in times for t in round_times]
    print(json.dumps({"ops": len(ops), "rounds": len(times), "op_s_max": max(ops),
                      "setup_builds": len(runner.setup_times)}))
    # A round mixes instances of unequal cost, so its mean is the sample.
    op_s = statistics.median(statistics.fmean(r) for r in times)
    return {"op_s": op_s, "setup_s": statistics.median(runner.setup_times),
            "peak_rss_mb": peak_kb / 1024.0, **quality}


def per_layer(runner, seconds, sparsemp) -> dict:
    import tracing

    tracer = tracing.Tracer()
    setup_spans = []
    for _ in range(SETUP_REPS):
        tracer.reset()
        with tracing.instrument(tracer, sparsemp):
            instances = runner.workload.build(runner.seed)
        setup_spans.append(tracer.summary())
    untraced = [runner.op(instance)[0] for instance in instances]

    summaries = []

    @contextlib.contextmanager
    def traced():
        tracer.reset()
        with tracing.instrument(tracer, sparsemp):
            yield
        summaries.append(tracer.summary())

    times, _ = runner.rounds(instances, seconds, traced)
    layer = tracing.aggregate(summaries)
    for key in ("trajectory.synth.busy_s", "trajectory.stack_center.busy_s"):
        layer[key] = statistics.median(s.get(key, 0.0) for s in setup_spans)
    calls = layer.get("elastic_net.solve.calls", 0.0)
    strict = layer.get("elastic_net.solve.cert_kkt", 0.0) + layer.get("elastic_net.solve.cert_gap", 0.0)
    layer["elastic_net.solve.strict_ratio"] = strict / calls if calls else 0.0
    layer["trace.op_s"] = statistics.fmean(t for round_times in times for t in round_times)
    layer["trace.overhead_s"] = statistics.fmean(times[0]) - statistics.fmean(untraced)
    layer["src.lines"] = float(src_lines())
    return {name: layer.get(RENAMED.get(name, name), 0.0) for name, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    sparsemp = load_sparsemp()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **environment()}))
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as scratch:
        runner = Runner(workload, args.seed, scratch)
        if args.trace:
            values, names = per_layer(runner, args.seconds, sparsemp), PER_LAYER
        else:
            values, names = end_to_end(runner, args.seconds), END_TO_END
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
