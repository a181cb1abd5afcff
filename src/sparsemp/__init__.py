"""Sparse RBF movement primitives learned from demonstrations."""

from .baselines import DmpModel, rollout_dmp, train_dmp, train_ridge
from .elastic_net import (
    AugmentedProblem,
    ConvergenceError,
    EmptyModelError,
    kkt_violation,
    lambda_max,
    prune,
    solve,
    to_lasso,
)
from .feature_opt import FeatureObjective, bfgs_minimize
from .policy import load_policy, save_policy
from .rbf import RbfParams, StackedRbfParams, basis_and_partials, build_basis, eval_basis
from .reg_path import FeatureRanking, PathResult, compute_path, rank_features
from .trainers import (
    FitReport,
    TrainedPrimitive,
    TrainerConfig,
    evaluate,
    select_penalties_cv,
    train_clsdp,
    train_lsdp,
)
from .trajectory import (
    DemoSet,
    JointTrajectory,
    SegmentationError,
    center,
    segment_demonstrations,
    stack_demoset,
    synth_demoset,
)

__version__ = "0.1.0"
