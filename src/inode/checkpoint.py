"""Self-contained model checkpoints.

A checkpoint is the binary record format of :mod:`inode.params` with a
few reserved ``__meta__/...`` records carrying everything inference
needs: the time-step statistics, the model geometry, and the run
configuration as JSON, so loading never touches training data.
"""

import json
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import numpy as np

from . import lstm, model
from .errors import FormatError
from .params import ParamStore, load_records, save_store
from .preprocess import TimeStats

META_STATS = "__meta__/time_stats"
META_MODEL = "__meta__/model"
META_CONFIG = "__meta__/config_json"


@dataclass(frozen=True)
class ModelKind:
    """How one model kind is built, run, stored and served.  Functions are
    reached through ``module`` when called, so a wrapper rebinding one is seen."""

    module: ModuleType          # provides init_params, forward and backward_bptt
    init: Callable              # (rng, RunConfig) -> fresh ParamStore
    features: int               # input features per event
    hidden: int                 # default state (ODE) or cell (LSTM) size
    online: type | None         # event-by-event classifier; None if it needs the whole window


# The insertion order is the kind code that checkpoints store:
# inode 0, lstm 1, bilstm 2.  Append new kinds; never reorder.
MODEL_KINDS = {
    "inode": ModelKind(
        model, lambda rng, cfg: model.init_params(rng, cfg.n_classes, state_dim=cfg.hidden,
                                                  learnable_h0=cfg.learnable_h0),
        model.FEATURES, model.STATE_DIM, model.OnlineClassifier),
    "lstm": ModelKind(
        lstm, lambda rng, cfg: lstm.init_params(rng, cfg.n_classes, hidden=cfg.hidden),
        lstm.INPUT_DIM, 72, lstm.OnlineLstm),
    "bilstm": ModelKind(
        lstm, lambda rng, cfg: lstm.init_params(rng, cfg.n_classes, hidden=cfg.hidden,
                                                bidirectional=True),
        lstm.INPUT_DIM, 72, None),
}


def model_kind(name):
    """The table entry of a model kind; ValueError for an unknown name."""
    if name not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {name!r}")
    return MODEL_KINDS[name]


@dataclass
class Checkpoint:
    store: ParamStore
    stats: TimeStats
    kind: str
    n_classes: int
    state_dim: int
    features: int
    sensor_dims: tuple
    config: dict | None = None


def save_checkpoint(path, store, stats, kind, n_classes, state_dim, features,
                    sensor_dims, config=None):
    model_kind(kind)  # ValueError for an unknown kind
    extra = [
        (META_STATS, np.array([[stats.dq, stats.dmax]])),
        (META_MODEL, np.array([[float(list(MODEL_KINDS).index(kind)), float(n_classes),
                                float(state_dim), float(features),
                                float(sensor_dims[0]), float(sensor_dims[1])]])),
    ]
    if config is not None:
        blob = json.dumps(config, sort_keys=True).encode("utf-8")
        extra.append((META_CONFIG, np.frombuffer(blob, dtype=np.uint8)[None, :].astype(np.float64)))
    save_store(store, path, extra=extra)


def load_checkpoint(path):
    records = load_records(path)
    if META_STATS not in records or META_MODEL not in records:
        raise FormatError("checkpoint is missing its metadata records")
    dq, dmax = records.pop(META_STATS)[0]
    kind_code, n_classes, state_dim, features, w, h = records.pop(META_MODEL)[0]
    if not (float(kind_code).is_integer() and 0 <= kind_code < len(MODEL_KINDS)):
        raise FormatError(f"unknown model kind code {kind_code!r}")
    geometry = {"n_classes": n_classes, "state_dim": state_dim, "features": features,
                "sensor width": w, "sensor height": h}
    for field, value in geometry.items():
        if not (float(value).is_integer() and value > 0):
            raise FormatError(f"checkpoint {field} must be a positive integer, got {value!r}")
    config = None
    blob = records.pop(META_CONFIG, None)
    if blob is not None:
        config = json.loads(bytes(blob[0].astype(np.uint8)).decode("utf-8"))
    store = ParamStore()
    for name, value in records.items():
        if name.startswith("__meta__/"):
            continue
        store.add(name, value)
    if "fcc_w" in store and store["fcc_w"].shape[1] != n_classes:
        raise FormatError(f"checkpoint n_classes {int(n_classes)} disagrees with its "
                          f"{store['fcc_w'].shape[1]}-class read-out")
    return Checkpoint(
        store=store,
        stats=TimeStats(dq=float(dq), dmax=float(dmax)),
        kind=list(MODEL_KINDS)[int(kind_code)],
        n_classes=int(n_classes),
        state_dim=int(state_dim),
        features=int(features),
        sensor_dims=(int(w), int(h)),
        config=config,
    )
