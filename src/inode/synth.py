"""Deterministic synthetic event streams for desk-scale experiments.

A bright dot traverses the sensor along a class-specific direction,
emitting polarity-signed events on its leading (p=1) and trailing (p=0)
edges with exponential inter-event times (mean 100 us).  A configurable
fraction of events is replaced by uniform spatio-temporal noise.
Generation is a pure function of its arguments.
"""

import math

import numpy as np

from .events import Dataset, EventSequence

MEAN_GAP_US = 100.0

# class_id -> motion heading in degrees; 0 deg points +x (left to right),
# 90 deg points -y (bottom to top in image coordinates)
DIRECTIONS = (0, 180, 90, 270, 45, 225, 135, 315, 30, 210, 60, 240)


def num_patterns():
    return len(DIRECTIONS)


def moving_dot(class_id, seed, n_events, sensor_dims=(34, 34), noise_rate=0.0):
    """One labeled synthetic event sequence for the given motion class."""
    if not 0 <= class_id < len(DIRECTIONS):
        raise ValueError(f"unknown class_id {class_id}; have {len(DIRECTIONS)} motion patterns")
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must be in [0, 1]")
    w, h = int(sensor_dims[0]), int(sensor_dims[1])
    rng = np.random.default_rng([int(seed), int(class_id), 0xD07])

    gaps = np.rint(rng.exponential(MEAN_GAP_US, size=n_events)).astype(np.int64)
    ts = np.cumsum(gaps)

    theta = math.radians(DIRECTIONS[class_id])
    dx, dy = math.cos(theta), -math.sin(theta)
    radius = max(1.5, 0.06 * min(w, h))
    margin = 1.0 + radius
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    # half-extent of the straight path through the sensor center
    half = np.inf
    if abs(dx) > 1e-12:
        half = min(half, (cx - margin) / abs(dx))
    if abs(dy) > 1e-12:
        half = min(half, (cy - margin) / abs(dy))
    if not np.isfinite(half) or half <= 0:
        half = 0.0

    span = ts[-1] if ts[-1] > 0 else 1
    s = ts / span  # progress along the path in [0, 1]
    px = (cx - half * dx) + s * (2.0 * half * dx)
    py = (cy - half * dy) + s * (2.0 * half * dy)

    leading = rng.random(n_events) < 0.5
    edge = np.where(leading, radius, -radius)
    jitter = rng.normal(0.0, 0.6, size=(n_events, 2))
    xs = px + edge * dx + jitter[:, 0]
    ys = py + edge * dy + jitter[:, 1]
    ps = leading.astype(np.int64)

    n_noise = int(round(noise_rate * n_events))
    if n_noise:
        idx = rng.choice(n_events, size=n_noise, replace=False)
        xs[idx] = rng.integers(0, w, size=n_noise)
        ys[idx] = rng.integers(0, h, size=n_noise)
        ps[idx] = rng.integers(0, 2, size=n_noise)

    xs = np.clip(np.rint(xs), 0, w - 1).astype(np.int64)
    ys = np.clip(np.rint(ys), 0, h - 1).astype(np.int64)
    return EventSequence(xs, ys, ps, ts, label=class_id, sensor_dims=(w, h))


def moving_dot_dataset(n_classes, per_class, seed, n_events=400, noise_rate=0.05, split=None):
    """Balanced dataset of moving-dot sequences on the default 34 x 34
    sensor, deterministic in ``seed``.  ``split`` is ignored: the
    benchmark's training workload still names the part it draws."""
    if n_classes > len(DIRECTIONS):
        raise ValueError(f"at most {len(DIRECTIONS)} motion classes available")
    sequences = []
    for c in range(n_classes):
        for k in range(per_class):
            sequences.append(
                moving_dot(c, seed=(int(seed) << 20) + k, n_events=n_events,
                           noise_rate=noise_rate)
            )
    return Dataset(sequences, class_count=n_classes)


def scale_coordinates(seq, factor):
    """The same physical scene captured on a ``factor``-times finer grid.

    Coordinates multiply by ``factor`` and the sensor spans
    ``factor*(dim-1)+1`` pixels, so the normalized position of every event
    is preserved exactly.
    """
    if factor < 1 or int(factor) != factor:
        raise ValueError("factor must be a positive integer")
    factor = int(factor)
    w, h = seq.sensor_dims
    return EventSequence(
        seq.xs * factor, seq.ys * factor, seq.ps, seq.ts,
        label=seq.label,
        sensor_dims=(factor * (w - 1) + 1, factor * (h - 1) + 1),
    )
