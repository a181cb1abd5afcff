"""JSON policy files: the trained parameters a controller would load.

Schema version 1. The header holds only what the loader reads: a
primitive's time grid is `n_samples` samples `dt` apart from 0 (its shape
comes from the arrays), and its metadata is the fit record only. A DMP file
holds its weights, goal, start, `dt` and `duration` (its tau); the gains are
constants and the phase basis derives from them. Coefficients are stored as
sorted active rows plus their values; floats go through Python's
shortest-repr decimal serialization, which reproduces every double
bit-exactly on load, so a loaded policy reconstructs bit-identically. A grid
or coefficient block that cannot describe a policy fails on load with a
`ValueError` that names the file and the field.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .baselines import DmpModel
from .rbf import RbfParams
from .trainers import TrainedPrimitive

SCHEMA_VERSION = 1


def _floats(a) -> list:
    """An array as nested lists of Python floats."""
    return np.asarray(a, dtype=float).tolist()


def _coef_block(W: np.ndarray) -> dict:
    active = np.flatnonzero(np.linalg.norm(np.atleast_2d(W), axis=1) > 0)
    return {
        "n_features": int(W.shape[0]),
        "n_tasks": int(W.shape[1]),
        "active_rows": [int(i) for i in active],
        "values": _floats(W[active]),
    }


def _check(ok: bool, field: str, need: str) -> None:
    if not ok:
        raise ValueError(f"policy field '{field}' must be {need}")


def _dt(doc: dict) -> float:
    dt = float(doc["dt"])
    _check(math.isfinite(dt) and dt > 0, "dt", "finite and > 0")
    return dt


def _coef_from_block(block: dict) -> np.ndarray:
    p, m = block["n_features"], block["n_tasks"]
    rows, values = block["active_rows"], block["values"]
    _check(all(isinstance(i, int) and 0 <= i < p for i in rows),
           "coefficients.active_rows", "integers in [0, n_features)")
    _check(len(values) == len(rows) and all(np.shape(v) == (m,) for v in values),
           "coefficients.values", "one row of n_tasks entries per active row")
    W = np.zeros((p, m))
    for i, row in zip(rows, values):
        W[i] = row
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
    """The centers and widths of a policy: flat lists, or one list per DoF."""
    try:
        mu, s2 = np.array(doc["centers"], dtype=float), np.array(doc["widths"], dtype=float)
    except ValueError as err:  # per-DoF lists of different lengths
        raise ValueError("inconsistent feature counts across DoFs") from err
    return RbfParams(mu=mu, sigma2=s2)


def primitive_from_dict(doc: dict) -> TrainedPrimitive:
    # The header holds the grid; files written before it did keep n_samples
    # in metadata, and ridge files of the older layout lambda2 at top level.
    # Older files also carry n, d and duration, which derive from the arrays.
    meta = doc["metadata"] if "metadata" in doc else {
        "lambda1": 0.0, "lambda2": doc["lambda2"]}
    n_samples = doc["n_samples"] if "n_samples" in doc else meta["n_samples"]
    _check(isinstance(n_samples, int) and n_samples >= 2, "n_samples", "an integer >= 2")
    return TrainedPrimitive(
        mode=doc["method"],
        intercepts=np.array(doc["intercepts"]),
        rbf_params=_basis(doc),
        W=_coef_from_block(doc["coefficients"]),
        t=np.arange(n_samples) * _dt(doc),
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
    return DmpModel(
        weights=np.array(doc["weights"]),
        goal=np.array(doc["goal"]),
        y0=np.array(doc["y0"]),
        tau=doc["duration"],
        dt=_dt(doc),
    )


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
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')}")
    try:
        method = doc["method"]
        if method in ("lsdp", "clsdp", "ridge"):
            return primitive_from_dict(doc)
        if method == "dmp":
            return dmp_from_dict(doc)
    except KeyError as err:
        raise ValueError(f"{path}: policy file lacks field {err}") from err
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    raise ValueError(f"unknown method tag {method!r}")
