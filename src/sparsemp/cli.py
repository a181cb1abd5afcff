"""Command-line surface: synth, segment, train, rank, eval.

Exit status: 0 success, 1 runtime or numeric failure, 2 usage error.
All commands are deterministic given identical inputs, flags and seeds.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import baselines, elastic_net, policy, reg_path, trainers, trajectory
from .rbf import build_basis
from .trainers import TrainerConfig

# The (lambda1, lambda2) pairs `train --cv-folds` chooses among.
CV_GRID = [(l1, l2) for l1 in np.geomspace(1e-3, 1.0, 5) for l2 in (1e-6, 1e-3)]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


# ---------------------------------------------------------------- synth

def _build_stream(demos: trajectory.DemoSet, window: float) -> trajectory.JointTrajectory:
    """Concatenate demos into one stream, ramping linearly between them.

    Each demo sits between low-velocity ramps at least one window long, so
    segmentation peaks stay separable.
    """
    dt = demos.dt
    pad = int(round(window / dt))
    pieces = []
    prev_end = demos.demos[0].Q[0]
    for demo in demos.demos:
        ramp = np.linspace(prev_end, demo.Q[0], pad, endpoint=False)
        pieces.append(ramp)
        pieces.append(demo.Q)
        prev_end = demo.Q[-1]
    pieces.append(np.tile(prev_end, (pad, 1)))
    Q = np.vstack(pieces)
    t = np.arange(Q.shape[0]) * dt
    return trajectory.JointTrajectory(t=t, Q=Q)


def cmd_synth(args) -> int:
    _require(args.rate > 0, "--rate must be positive")
    _require(args.demos >= 1, "--demos must be >= 1")
    _require(args.samples >= 2, "--samples must be >= 2")
    _require(args.dof >= 1, "--dof must be >= 1")
    _require(args.features >= 1, "--features must be >= 1")
    _require(args.seed >= 0, "--seed must be >= 0")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dt = 1.0 / args.rate
    demos, truth = trajectory.synth_demoset(
        n_demos=args.demos,
        n_dof=args.dof,
        n_samples=args.samples,
        dt=dt,
        k_features=args.features,
        coef_scale=args.coef_scale,
        noise=args.noise,
        seed=args.seed,
    )
    for j, demo in enumerate(demos.demos, start=1):
        trajectory.save_trajectory_csv(out / f"demo_{j}.csv", demo)
    window = args.samples * dt
    stream = _build_stream(demos, window)
    trajectory.save_trajectory_csv(out / "stream.csv", stream)

    # One ground-truth policy per demonstration, in the trained-policy schema.
    from .rbf import RbfParams

    t = demos.demos[0].t
    params = RbfParams(mu=truth.centers, sigma2=truth.widths)
    for j, demo in enumerate(demos.demos, start=1):
        prim = trainers.TrainedPrimitive(
            mode="lsdp",
            intercepts=truth.intercepts[:, j - 1],
            rbf_params=params,
            W=truth.W[:, :, j - 1],
            t=t,
            metadata={"noise": args.noise, "seed": args.seed, "lambda1": 0.0, "lambda2": 0.0},
        )
        prim.metadata["res_norm"] = float(
            np.linalg.norm(demo.Q - trainers.reconstruct(prim, t))
        )
        policy.save_policy(out / f"ground_truth_{j}.json", prim, ground_truth=True)
    print(f"wrote {args.demos} demos, stream.csv and ground truth to {out}")
    return 0


# ---------------------------------------------------------------- segment

def cmd_segment(args) -> int:
    _require(args.count >= 1, "--count must be >= 1")
    _require(args.window > 0, "--window must be positive")
    _require(args.rate > 0, "--rate must be positive")
    stream = trajectory.load_trajectory_csv(args.input)
    if abs(stream.dt - 1.0 / args.rate) > 1e-6:
        raise ValueError(
            f"stream sampled at dt={stream.dt:.6g}, --rate says {1.0 / args.rate:.6g}"
        )
    demos, peaks = trajectory.segment_demonstrations(stream, args.count, args.window)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for k, demo in enumerate(demos.demos, start=1):
        trajectory.save_trajectory_csv(out / f"demo_{k}.csv", demo)
    for k, idx in enumerate(peaks, start=1):
        print(f"demo_{k}: peak index {idx}, peak time {stream.t[idx]:.6g} s")
    return 0


# ---------------------------------------------------------------- train

def _load_demos(paths) -> trajectory.DemoSet:
    demos = [trajectory.load_trajectory_csv(p) for p in paths]
    try:
        return trajectory.DemoSet(demos=demos)
    except ValueError as err:  # demos that do not share one grid
        raise _UsageError(str(err)) from err


def _trainer_config(args) -> TrainerConfig:
    try:
        return TrainerConfig(
            lambda1=args.lambda1,
            lambda2=args.lambda2,
            epsilon=args.epsilon,
            max_outer_iters=args.max_iters,
            bfgs_max_iters=args.bfgs_iters,
            restarts=args.restarts,
            seed=args.seed,
            initial_p=args.initial_p,
        )
    except ValueError as err:  # an out-of-range flag
        raise _UsageError(str(err)) from err


def cmd_train(args) -> int:
    if not args.verbose:
        return _train(args)
    logger = logging.getLogger("sparsemp")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        return _train(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _train(args) -> int:
    method = args.method
    _require(method == "clsdp" or len(args.demos) == 1,
             f"{method} trains on exactly one demonstration; use clsdp for several")
    _require(args.cv_folds is None or args.cv_folds >= 2, "--cv-folds must be >= 2")
    config = _trainer_config(args)  # ridge shares its --lambda2 check
    if method in ("dmp", "ridge"):  # a DMP's phase basis needs two centers
        least = 2 if method == "dmp" else 1
        _require(args.n_basis >= least, f"--n-basis must be >= {least} for {method}")
    demos = _load_demos(args.demos)
    data = demos if method == "clsdp" else demos.demos[0]
    if method == "dmp":
        model = baselines.train_dmp(data, n_basis=args.n_basis)
    elif method == "ridge":
        penalty = {} if args.lambda2 is None else {"lambda2": args.lambda2}
        model = baselines.train_ridge(data, n_basis=args.n_basis, **penalty)
    else:
        if args.cv_folds is not None:
            config.lambda1, config.lambda2 = trainers.select_penalties_cv(
                data, CV_GRID, args.cv_folds, config)
        train = trainers.train_lsdp if method == "lsdp" else trainers.train_clsdp
        model = train(data, config)
    _, nnz, acc, res, _ = _policy_metrics(model, demos)
    policy.save_policy(args.out, model)
    print(f"method={method} nnz={nnz} acc_norm={_fmt(acc)} res_norm={_fmt(res)}")
    if method in ("dmp", "ridge"):  # a baseline's nnz counts its parameters
        print(f"params per DoF: {nnz // model.n_dof}")
    return 0


# ---------------------------------------------------------------- policies on demos

def _model_data(model, demos: trajectory.DemoSet):
    """The demos a policy reads, checked against its shape: all of them for
    a cLSDP primitive, which must be as many as it couples, else the first.
    Every policy must have their DoF count, and all but a DMP their time grid."""
    coupled = isinstance(model, trainers.TrainedPrimitive) and model.mode == "clsdp"
    if coupled and demos.n_demos != model.n_demos:
        raise ValueError(
            f"dimension mismatch on demos axis: policy couples "
            f"{model.n_demos}, got {demos.n_demos}"
        )
    if not isinstance(model, baselines.DmpModel) and demos.n_samples != model.t.size:
        raise ValueError("dimension mismatch on time axis")
    if demos.n_dof != model.n_dof:
        raise ValueError(
            f"dimension mismatch on DoF axis: policy has {model.n_dof}, got {demos.n_dof}"
        )
    return demos if coupled else demos.demos[0]


def _policy_metrics(model, demos: trajectory.DemoSet) -> tuple[str, int, float, float, float]:
    """The row `eval` prints for any policy on its demos: method, nnz,
    acc_norm, res_norm and total cost. A baseline counts its parameters as
    nnz: a ridge policy its p weights and intercept per DoF. A DMP residual
    is taken over the common prefix of rollout and demo, and its total cost
    is the squared residual."""
    data = _model_data(model, demos)
    if isinstance(model, trainers.TrainedPrimitive):
        _, report = trainers.evaluate(model, model.t, trainers.reference(data))
        nnz = ((model.rbf_params.n_features + 1) * model.n_dof if model.mode == "ridge"
               else report.nnz)
        return model.mode, nnz, report.acc_norm, report.res_norm, report.total_cost
    roll = baselines.rollout_dmp(model)
    n = min(data.n_samples, roll.Q.shape[0])
    res = float(np.linalg.norm(data.Q[:n] - roll.Q[:n]))
    acc = float(np.linalg.norm(
        np.gradient(np.gradient(roll.Q, roll.dt, axis=0), roll.dt, axis=0)
    ))
    return "dmp", model.params_per_dof() * model.n_dof, acc, res, res ** 2


# ---------------------------------------------------------------- rank

def cmd_rank(args) -> int:
    _require(args.grid >= 2, "--grid must be >= 2")
    _require(0.0 < args.ratio < 1.0, "--ratio must lie in (0, 1)")
    model = policy.load_policy(args.policy)
    if not isinstance(model, trainers.TrainedPrimitive) or model.mode == "ridge":
        raise ValueError("ranking undefined for this method")
    _, Y, _, _ = trainers.training_data(_model_data(model, _load_demos(args.demos)))
    Phi, PhiAcc = build_basis(model.t, model.rbf_params)
    lam2 = model.metadata.get("lambda2", 0.0)
    prob = elastic_net.to_lasso(Phi, PhiAcc, Y, lam2)
    path = reg_path.compute_path(prob, n_lambdas=args.grid, ratio=args.ratio)
    ranking = reg_path.rank_features(path)
    for rank, (feat, lam) in enumerate(
        zip(ranking.order, ranking.entry_lambdas), start=1
    ):
        print(f"rank {rank}: feature {feat} entry_lambda {lam:.6g}")
    if args.out:
        norms = reg_path.path_row_norms(path)
        with open(args.out, "w") as fh:
            fh.write("lambda,feature_index,row_norm\n")
            for li, lam in enumerate(path.lambdas):
                for j in range(norms.shape[1]):
                    fh.write(f"{float(lam)!r},{j},{float(norms[li, j])!r}\n")
    return 0


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    demos = _load_demos(args.demos)
    lines = ["method,nnz,acc_norm,res_norm,total_cost"]
    for path in args.policies:
        row = _policy_metrics(policy.load_policy(path), demos)
        lines.append(
            f"{row[0]},{row[1]},{_fmt(row[2])},{_fmt(row[3])},{_fmt(row[4])}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


# ---------------------------------------------------------------- driver

class _UsageError(ValueError):
    pass


def _require(ok: bool, message: str) -> None:
    """A usage error (exit 2) with `message` unless `ok`."""
    if not ok:
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsemp",
        description="Sparse RBF movement primitives from demonstrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic fixture")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--demos", type=int, default=5)
    p.add_argument("--dof", type=int, default=7)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--rate", type=float, default=500.0)
    p.add_argument("--features", type=int, default=12)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--coef-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("segment", help="cut demonstrations out of a stream")
    p.add_argument("input")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--window", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=500.0)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("train", help="train a movement primitive")
    p.add_argument("method", choices=["lsdp", "clsdp", "dmp", "ridge"])
    p.add_argument("demos", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=TrainerConfig.epsilon)
    p.add_argument("--max-iters", type=int, default=TrainerConfig.max_outer_iters)
    p.add_argument("--bfgs-iters", type=int, default=None)
    p.add_argument("--restarts", type=int, default=TrainerConfig.restarts)
    p.add_argument("--seed", type=int, default=TrainerConfig.seed)
    p.add_argument("--cv-folds", type=int, default=None)
    p.add_argument("--n-basis", type=int, default=10)
    p.add_argument("--initial-p", type=int, default=None)
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log solver diagnostics to stderr")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="rank policy features along the path")
    p.add_argument("policy")
    p.add_argument("demos", nargs="+")
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--ratio", type=float, default=1e-3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("eval", help="report fit metrics for policies")
    p.add_argument("policies", nargs="+")
    p.add_argument("--demos", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime / numeric failures exit 1
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
