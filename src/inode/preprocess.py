"""Time-step statistics, input normalization, and batch assembly.

Raw inter-event gaps (integer microseconds) are divided by the 98th
quantile of the training pool and clipped at ``dmax``; coordinates map to
[-1, 1] and polarity to {-1, +1}.  Both transforms are exact in float64,
so rescaling every raw timestamp by a common integer factor leaves every
normalized step bit-identical.

A batch holds one window of S steps per sequence, all on one sensor.
``make_batch`` is the one sampler: it picks each window's S+1 events in
one loop, a sequence shorter than that holding its last event, and
normalizes the gathered block once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DatasetError

QUANTILE_PERCENT = 98

# fixed texts, so Python's warning registry keeps one entry each however
# many sessions see the condition
REGRESSION_WARNING = ("timestamp regression: gap clamped to 0; this session counts "
                      "further regressions in .regressions without warning")
CLAMP_WARNING = ("event outside the sensor: coordinates clamped to its edge; this session "
                 "counts further ones in .clamped without warning")


@dataclass(frozen=True)
class TimeStats:
    """Normalization constants: quantile divisor (us) and the step cap."""

    dq: float
    dmax: float = 1.0

    def __post_init__(self):
        if not self.dq > 0:
            raise ValueError(f"dq must be positive, got {self.dq}")
        if not self.dmax > 0:
            raise ValueError(f"dmax must be positive, got {self.dmax}")


def compute_dq(dataset):
    """Nearest-rank 98th percentile of all consecutive training gaps.

    The pool holds every t[i+1]-t[i] over every sequence.  Nearest rank
    means the element at index ceil(0.98*N)-1 of the sorted pool, which
    keeps the statistic exactly equivariant under integer time rescaling.
    A zero quantile falls back to the smallest positive gap.
    """
    pools = [np.diff(seq.ts) for seq in dataset if len(seq) >= 2]
    if not pools:
        raise DatasetError("no sequence with at least two events; cannot pool time gaps")
    pool = np.sort(np.concatenate(pools))
    n = len(pool)
    idx = (QUANTILE_PERCENT * n + 99) // 100 - 1  # ceil(0.98 n) - 1 in exact integer math
    dq = int(pool[idx])
    if dq == 0:
        positive = pool[pool > 0]
        if len(positive) == 0:
            raise DatasetError("all inter-event gaps are zero")
        dq = int(positive[0])
    return TimeStats(dq=float(dq))


def normalize_dt(dt, stats):
    """Normalized, clipped integration step: min(dt/dq, dmax).

    Works elementwise on arrays; monotone in dt and saturating at dmax.
    """
    return np.minimum(np.asarray(dt, dtype=np.float64) / stats.dq, stats.dmax)


def _unit(v, n):
    """Pixel coordinates on an axis of ``n > 1`` pixels mapped to [-1, 1]:
    the same float64 operations on an array or on one Python number."""
    return 2.0 * v / (n - 1.0) - 1.0


def normalize_coords(xs, ys, sensor_dims):
    """Map pixel coordinates to [-1, 1] (endpoints land exactly on +-1)."""
    w, h = sensor_dims
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    xn = _unit(xs, w) if w > 1 else np.zeros_like(xs)
    yn = _unit(ys, h) if h > 1 else np.zeros_like(ys)
    return xn, yn


def clamped_input(event, sensor_dims):
    """Features (x_norm, y_norm, p_signed) of one event as Python floats,
    equal to its row of ``normalize_sequence`` bit for bit, whether its
    coordinates were outside the sensor and clamped to its edge, and the
    pixel and polarity ``(x, y, p)`` that the features are of."""
    w, h = sensor_dims
    x, y, p = event.x, event.y, event.p
    clamped = not (0 <= x < w and 0 <= y < h)
    if clamped:
        x, y = min(max(x, 0), w - 1), min(max(y, 0), h - 1)
    return (_unit(x, w) if w > 1 else 0.0, _unit(y, h) if h > 1 else 0.0,
            2.0 * p - 1.0), clamped, (x, y, p)


def normalize_events(xs, ys, ps, sensor_dims):
    """Features (x_norm, y_norm, p_signed) of integer event columns of one
    common shape, stacked on a new last axis."""
    xn, yn = normalize_coords(xs, ys, sensor_dims)
    return np.stack([xn, yn, 2.0 * ps - 1.0], axis=-1)


def normalize_sequence(seq, lo=0, hi=None):
    """[M x 3] feature matrix of a sequence's events ``lo:hi`` (vectorized)."""
    return normalize_events(seq.xs[lo:hi], seq.ys[lo:hi], seq.ps[lo:hi], seq.sensor_dims)


@dataclass
class Batch:
    """Stacked training window: inputs [B x S x 3], steps [B x S], labels [B]."""

    inputs: np.ndarray
    dtaus: np.ndarray
    labels: np.ndarray

    @property
    def size(self):
        return self.inputs.shape[0]

    @property
    def steps(self):
        return self.inputs.shape[1]

    def features_with_dt(self):
        """[B x S x 4] view with the previous normalized gap as 4th feature.

        Element i carries the gap separating it from element i-1 (zero for
        the window head), so the same feature is computable online from a
        stream without lookahead.
        """
        prev = np.zeros_like(self.dtaus)
        prev[:, 1:] = self.dtaus[:, :-1]
        return np.concatenate([self.inputs, prev[:, :, None]], axis=2)


def make_batch(sequences, s_len, stats, rng):
    """Sample one window of S steps per sequence and stack them into a batch.

    A window of S steps spans S+1 events.  The loop over the sequences
    picks each window's events: those of a random offset, uniform over the
    feasible range and drawn in sequence order, when the sequence has more
    than S events; else all of them, the last one held to fill the window,
    so that the held events' gaps are zero.  The windows are then gathered
    into one block and normalized at once, padded windows included.  The
    sequences must share one sensor; an empty sequence raises
    ``ValueError``, and so does a list that mixes sensors.
    """
    if not sequences:
        return Batch(np.empty((0, s_len, 3)), np.empty((0, s_len)), np.empty(0, dtype=np.int64))
    dims = {seq.sensor_dims for seq in sequences}
    if len(dims) > 1:
        raise ValueError(f"a batch mixes sensors: {sorted(dims)}")
    steps = np.arange(s_len + 1)
    windows = []
    for seq in sequences:
        m = len(seq)
        if m > s_len:
            start = int(rng.integers(0, m - s_len))
            windows.append((seq, slice(start, start + s_len + 1)))
        elif m:
            windows.append((seq, np.minimum(steps, m - 1)))
        else:
            raise ValueError("cannot sample from an empty sequence")
    xs = np.array([seq.xs[at] for seq, at in windows])
    ys = np.array([seq.ys[at] for seq, at in windows])
    ps = np.array([seq.ps[at] for seq, at in windows])
    ts = np.array([seq.ts[at] for seq, at in windows])
    labels = np.array([-1 if seq.label is None else seq.label for seq in sequences],
                      dtype=np.int64)
    return Batch(normalize_events(xs[:, :-1], ys[:, :-1], ps[:, :-1], dims.pop()),
                 normalize_dt(np.diff(ts, axis=1), stats), labels)
