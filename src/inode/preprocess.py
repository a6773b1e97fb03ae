"""Time-step statistics, input normalization, and batch assembly.

Raw inter-event gaps (integer microseconds) are divided by the 98th
quantile of the training pool and clipped at ``dmax``; coordinates map to
[-1, 1] and polarity to {-1, +1}.  Both transforms are exact in float64,
so rescaling every raw timestamp by a common integer factor leaves every
normalized step bit-identical.
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


def sample_subsequence(seq, s_len, rng, stats):
    """Random window of ``s_len`` inputs plus their normalized steps.

    A window of S solver steps spans S+1 timestamps; the offset is uniform
    over the feasible range.  Sequences shorter than S+1 events are padded
    by holding the final event with a zero step.
    """
    m = len(seq)
    if m < 1:
        raise ValueError("cannot sample from an empty sequence")
    feats = normalize_sequence(seq)
    if m >= s_len + 1:
        start = int(rng.integers(0, m - s_len))
        inputs = feats[start:start + s_len]
        gaps = np.diff(seq.ts[start:start + s_len + 1])
        dtaus = normalize_dt(gaps, stats)
        return inputs, dtaus
    inputs = np.empty((s_len, 3))
    inputs[:m] = feats
    inputs[m:] = feats[-1]
    dtaus = np.zeros(s_len)
    if m > 1:
        dtaus[: m - 1] = normalize_dt(np.diff(seq.ts), stats)
    return inputs, dtaus


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
    """Sample one window per sequence and stack them into a batch.

    The loop over the sequences draws each window's offset in sequence
    order and takes its raw slices; the windows of every sequence with at
    least S+1 events on the first sequence's sensor are then normalized as
    one [B x S] block.  The other sequences, padded or on another sensor,
    go through ``sample_subsequence`` in their turn.  Every value and draw
    equals that of one ``sample_subsequence`` per sequence.
    """
    size = len(sequences)
    inputs = np.empty((size, s_len, 3))
    dtaus = np.empty((size, s_len))
    labels = np.empty(size, dtype=np.int64)
    dims = sequences[0].sensor_dims if sequences else None
    rows, windows = [], []
    for i, seq in enumerate(sequences):
        labels[i] = -1 if seq.label is None else seq.label
        if len(seq) > s_len and seq.sensor_dims == dims:
            start = int(rng.integers(0, len(seq) - s_len))
            rows.append(i)
            windows.append((seq, slice(start, start + s_len)))
        else:
            inputs[i], dtaus[i] = sample_subsequence(seq, s_len, rng, stats)
    if rows:
        inputs[rows] = normalize_events(np.array([seq.xs[w] for seq, w in windows]),
                                        np.array([seq.ys[w] for seq, w in windows]),
                                        np.array([seq.ps[w] for seq, w in windows]), dims)
        ts = np.array([seq.ts[w.start:w.stop + 1] for seq, w in windows])
        dtaus[rows] = normalize_dt(np.diff(ts, axis=1), stats)
    return Batch(inputs, dtaus, labels)
