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

    module: ModuleType          # provides forward and backward_bptt
    layout: Callable            # (n_classes, hidden, learnable_h0) -> the module's layout
    features: int               # input features per event
    hidden: int                 # default state (ODE) or cell (LSTM) size
    online: type | None         # event-by-event classifier; None if it needs the whole window


# The insertion order is the kind code that checkpoints store:
# inode 0, lstm 1, bilstm 2.  Append new kinds; never reorder.
MODEL_KINDS = {
    "inode": ModelKind(
        model, lambda n_classes, hidden, h0: model.layout(n_classes, hidden, model.WIDTH, h0),
        model.FEATURES, model.STATE_DIM, model.OnlineClassifier),
    "lstm": ModelKind(
        lstm, lambda n_classes, hidden, h0: lstm.layout(n_classes, hidden, False),
        lstm.INPUT_DIM, 72, lstm.OnlineLstm),
    "bilstm": ModelKind(
        lstm, lambda n_classes, hidden, h0: lstm.layout(n_classes, hidden, True),
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


def _check_layout(store, kind, n_classes, state_dim, features):
    """FormatError unless the store holds exactly the weights, by name and
    shape, of the kind's layout for the header's geometry (INODE's ``h0``
    is optional)."""
    if features != MODEL_KINDS[kind].features:
        raise FormatError(f"checkpoint features {features} disagrees with its {kind} model")
    want = {name: shape for name, shape, _ in
            MODEL_KINDS[kind].layout(n_classes, state_dim, "h0" in store)}
    have = {name: value.shape for name, value in store.items()}
    for name in sorted(want.keys() | have.keys()):
        if want.get(name) != have.get(name):
            raise FormatError(f"checkpoint weight {name!r} disagrees with its {kind} header "
                              f"(n_classes {n_classes}, state_dim {state_dim}): stored "
                              f"{have.get(name, 'nothing')}, expected {want.get(name, 'nothing')}")


def save_checkpoint(path, store, stats, kind, n_classes, state_dim, features,
                    sensor_dims, config=None):
    """Write a checkpoint; ValueError for an unknown kind, FormatError for a
    store or geometry that ``load_checkpoint`` would refuse."""
    model_kind(kind)
    _check_layout(store, kind, n_classes, state_dim, features)
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


def _meta_row(records, name, cols):
    """The one row of a metadata record, which must be 1 x ``cols``."""
    value = records.pop(name)
    if value.shape != (1, cols):
        raise FormatError(f"checkpoint record {name!r} is {value.shape}, expected (1, {cols})")
    return value[0]


def load_checkpoint(path):
    records = load_records(path)
    if META_STATS not in records or META_MODEL not in records:
        raise FormatError("checkpoint is missing its metadata records")
    dq, dmax = _meta_row(records, META_STATS, 2)
    kind_code, n_classes, state_dim, features, w, h = _meta_row(records, META_MODEL, 6)
    if not (np.isfinite([dq, dmax]).all() and dq > 0 and dmax > 0):
        raise FormatError(f"checkpoint dq and dmax must be finite and positive, "
                          f"got {dq!r} and {dmax!r}")
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
        if blob.shape[0] != 1 or not np.all((blob >= 0) & (blob < 256) & (blob == np.floor(blob))):
            raise FormatError("checkpoint config is not one row of bytes")
        try:
            config = json.loads(bytes(blob[0].astype(np.uint8)).decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError among them
            raise FormatError(f"checkpoint config is not UTF-8 JSON: {exc}") from None
    store = ParamStore()
    for name, value in records.items():
        try:
            store.add(name, value)
        except ValueError as exc:  # a weight that is not finite
            raise FormatError(f"checkpoint {exc}") from None
    kind = list(MODEL_KINDS)[int(kind_code)]
    _check_layout(store, kind, int(n_classes), int(state_dim), int(features))
    return Checkpoint(
        store=store,
        stats=TimeStats(dq=float(dq), dmax=float(dmax)),
        kind=kind,
        n_classes=int(n_classes),
        state_dim=int(state_dim),
        features=int(features),
        sensor_dims=(int(w), int(h)),
        config=config,
    )
