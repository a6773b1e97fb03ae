"""Per-event online classification of event-camera streams.

A latent-state ODE driven directly by the raw event stream, integrated
with a batched explicit Euler solver sized by normalized inter-event
gaps, next to LSTM baselines, bit-exact AER ingestion, a deterministic
synthetic stream generator, a training/evaluation harness, and a line
protocol for live streaming inference.
"""

from . import engine, events, lstm, model, optim, params, preprocess, stream, synth, training
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import DatasetError, FormatError, NaNLossError, ShapeError
from .events import Dataset, Event, EventSequence, load_dataset, parse_aer, write_aer
from .model import OnlineClassifier
from .preprocess import Batch, TimeStats, compute_dq, normalize_dt, normalize_input
from .synth import moving_dot, moving_dot_dataset
from .training import MetricsRecord, RunConfig, Trainer, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "Batch", "Checkpoint", "Dataset", "DatasetError", "Event", "EventSequence",
    "FormatError", "MetricsRecord", "NaNLossError", "OnlineClassifier", "RunConfig",
    "ShapeError", "TimeStats", "Trainer", "compute_dq", "engine", "evaluate", "events",
    "load_checkpoint", "load_dataset", "lstm", "model", "moving_dot", "moving_dot_dataset",
    "normalize_dt", "normalize_input", "optim", "params", "parse_aer", "preprocess",
    "save_checkpoint", "stream", "synth", "train", "training", "write_aer",
]
