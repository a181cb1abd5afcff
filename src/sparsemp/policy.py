"""JSON policy files: the trained parameters a controller would load.

Schema version 1. The header holds only what the loader reads: a
primitive's time grid is `n_samples` samples `dt` apart from 0 (its shape
comes from the arrays), and its metadata is the fit record only. A DMP file
holds its weights, goal, start, `dt` and `duration` (its tau); the gains are
constants and the phase basis derives from them. Coefficients are stored as
sorted active rows plus their values; their shape comes from the basis and
the intercepts. Floats go through Python's shortest-repr decimal
serialization, which reproduces every double bit-exactly on load, so a
loaded policy reconstructs bit-identically. A field that cannot describe a
policy (a document or metadata that is not a JSON object, a bad grid,
basis or coefficient block, a value that is not finite, an array of the
wrong shape, a negative penalty) fails on load with a `ValueError` that
names the file and the field.
"""

from __future__ import annotations

import json

import numpy as np

from .baselines import DmpModel
from .elastic_net import active_set
from .rbf import SIGMA2_MIN, RbfParams
from .trainers import TrainedPrimitive

SCHEMA_VERSION = 1


def _floats(a) -> list:
    """An array as nested lists of Python floats."""
    return np.asarray(a, dtype=float).tolist()


def _coef_block(W: np.ndarray) -> dict:
    active = active_set(W)
    return {"active_rows": [int(i) for i in active], "values": _floats(W[active])}


def _check(ok: bool, field: str, need: str) -> None:
    if not ok:
        raise ValueError(f"policy field '{field}' must be {need}")


def _finite(value, field: str, ok, need: str) -> np.ndarray:
    """value as a float array (0-d for a number), finite and passing ok."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, or too big
        a = np.array(np.nan)
    _check(np.isfinite(a).all() and ok(a), field, need)
    return a


def _positive(value, field: str) -> float:
    return float(_finite(value, field, lambda a: a.ndim == 0 and a > 0, "finite and > 0"))


def _coef_from_block(block: dict, p: int, m: int) -> np.ndarray:
    _check(isinstance(block, dict), "coefficients", "a JSON object")
    rows = block["active_rows"]
    _check(all(isinstance(i, int) and 0 <= i < p for i in rows),
           "coefficients.active_rows", f"integers in [0, {p}), {p} the features in 'centers'")
    values = _finite(block["values"], "coefficients.values",
                     lambda a: a.shape == (len(rows), m) or a.size == len(rows) == 0,
                     f"one row of {m} finite numbers per active row, {m} the last axis "
                     "of 'intercepts'")
    W = np.zeros((p, m))
    W[rows] = values.reshape(len(rows), m)
    return W


def primitive_to_dict(prim: TrainedPrimitive, ground_truth: bool = False) -> dict:
    # One shared basis block is written as flat lists, clsdp's one list per DoF.
    centers, widths = prim.rbf_params.mu, prim.rbf_params.sigma2
    if prim.mode != "clsdp":
        centers, widths = centers[0], widths[0]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "method": prim.mode,
        "dt": float(prim.dt),
        "n_samples": int(prim.t.size),
        "intercepts": _floats(prim.intercepts),
        "centers": _floats(centers),
        "widths": _floats(widths),
        "coefficients": _coef_block(prim.W),
        "metadata": _jsonable(prim.metadata),
    }
    if ground_truth:
        doc["ground_truth"] = True
    return doc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _basis(doc: dict) -> RbfParams:
    """The centers and widths of a policy: flat lists, or for clsdp one list
    per DoF, each checked here so that `RbfParams` accepts them."""
    per_dof = doc["method"] == "clsdp"
    for key in ("centers", "widths"):
        lists = doc[key] if per_dof and isinstance(doc[key], list) else []
        if len({len(row) for row in lists if isinstance(row, list)}) > 1:
            raise ValueError(f"policy field '{key}' has inconsistent feature counts across DoFs")
    ndim, layout = (2, "one list per DoF") if per_dof else (1, "a flat list")
    mu = _finite(doc["centers"], "centers", lambda a: a.ndim == ndim and a.size > 0,
                 f"finite numbers, {layout}")
    s2 = _finite(doc["widths"], "widths",
                 lambda a: a.shape == mu.shape and (a >= SIGMA2_MIN).all(),
                 f"numbers >= {SIGMA2_MIN}, one per entry of 'centers'")
    return RbfParams(mu=mu, sigma2=s2)


def primitive_from_dict(doc: dict) -> TrainedPrimitive:
    # The header holds the grid; files written before it did keep n_samples
    # in metadata, and ridge files of the older layout lambda2 at top level.
    # Older files also carry n, d and duration, and their coefficient blocks
    # n_features and n_tasks: all derive from the arrays.
    meta = doc["metadata"] if "metadata" in doc else {
        "lambda1": 0.0, "lambda2": doc["lambda2"]}
    _check(isinstance(meta, dict), "metadata", "a JSON object")
    n_samples = doc["n_samples"] if "n_samples" in doc else meta["n_samples"]
    _check(isinstance(n_samples, int) and n_samples >= 2, "n_samples", "an integer >= 2")
    for key in ("lambda1", "lambda2"):  # eval and rank read them
        _finite(meta.get(key, 0.0), f"metadata.{key}", lambda a: a.ndim == 0 and a >= 0,
                "finite and >= 0")
    intercepts = _finite(doc["intercepts"], "intercepts", lambda a: a.ndim > 0 and a.size > 0,
                         "finite, one entry (clsdp: one row) per DoF")
    params = _basis(doc)
    return TrainedPrimitive(
        mode=doc["method"],
        intercepts=intercepts,
        rbf_params=params,
        W=_coef_from_block(doc["coefficients"], params.n_features, intercepts.shape[-1]),
        t=np.arange(n_samples) * _positive(doc["dt"], "dt"),
        metadata=dict(meta),
    )


def dmp_to_dict(model: DmpModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "method": "dmp",
        "dt": float(model.dt),
        "duration": float(model.tau),
        "weights": _floats(model.weights),
        "goal": _floats(model.goal),
        "y0": _floats(model.y0),
    }


def dmp_from_dict(doc: dict) -> DmpModel:
    # Older files also carry n, d, tau, the gains and the phase basis; all derive.
    weights = _finite(doc["weights"], "weights", lambda a: a.ndim == 2 and a.shape[1] >= 2,
                      "finite, one row of at least 2 weights per DoF")
    n = weights.shape[0]
    goal, y0 = (_finite(doc[key], key, lambda a: a.shape == (n,),
                        f"{n} finite numbers, one per DoF") for key in ("goal", "y0"))
    return DmpModel(weights=weights, goal=goal, y0=y0,
                    tau=_positive(doc["duration"], "duration"), dt=_positive(doc["dt"], "dt"))


def save_policy(path, model, ground_truth: bool = False) -> None:
    if isinstance(model, TrainedPrimitive):
        doc = primitive_to_dict(model, ground_truth=ground_truth)
    elif isinstance(model, DmpModel):
        doc = dmp_to_dict(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_policy(path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        _check(isinstance(doc, dict), "(top level)", "a JSON object")
        version = doc.get("schema_version")
        _check(version == SCHEMA_VERSION, "schema_version",
               f"{SCHEMA_VERSION}, not {version!r}")
        method = doc["method"]
        if method in ("lsdp", "clsdp", "ridge"):
            return primitive_from_dict(doc)
        if method == "dmp":
            return dmp_from_dict(doc)
        raise ValueError(f"unknown method tag {method!r}")
    except KeyError as err:
        raise ValueError(f"{path}: policy file lacks field {err}") from err
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
