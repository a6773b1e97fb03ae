"""DVS event model, bit-exact AER codecs, and dataset loading.

Two wire layouts are supported:

``aer`` (5 bytes per event, the classic N-MNIST layout)
    byte0 = x, byte1 = y, byte2 bit 7 = polarity, and the remaining
    23 bits (byte2 bits 6-0, byte3, byte4; big-endian) are the timestamp
    in microseconds.  Timestamps wrap every 2^23 us; a drop of more than
    2^22 against the predecessor adds a cumulative 2^23 offset.

``aer16`` (9 bytes per event, for sensors wider than 255 pixels)
    x u16 LE | y u16 LE | p u8 | t u32 LE, no wrap handling.

Dataset directories look like ``root/<class_name>/<sample>.bin`` with the
lexicographic order of class names defining class indices.  An optional
``manifest.json`` at the root carries ``{"sensor": [w, h], "format": ...}``.
"""

import json
import logging
import math
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DatasetError, FormatError

log = logging.getLogger(__name__)

T_WRAP = 1 << 23
T_DROP = 1 << 22

DEFAULT_SENSOR = (34, 34)
# pixels per axis: the most that the aer16 layout's 16-bit coordinates address
MAX_SENSOR = 1 << 16

_AER16_DTYPE = np.dtype([("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("t", "<u4")])


class Event(NamedTuple):
    """One DVS event: pixel column/row, polarity in {0, 1}, timestamp in us."""

    x: int
    y: int
    p: int
    t: int


class EventSequence:
    """Time-ordered, columnar event record for one sample.

    Arrays are int64 and immutable once constructed; ``label`` is the
    class index or None for unlabeled data.
    """

    __slots__ = ("xs", "ys", "ps", "ts", "label", "sensor_dims")

    def __init__(self, xs, ys, ps, ts, label=None, sensor_dims=DEFAULT_SENSOR, validate=True):
        self.xs = np.ascontiguousarray(xs, dtype=np.int64)
        self.ys = np.ascontiguousarray(ys, dtype=np.int64)
        self.ps = np.ascontiguousarray(ps, dtype=np.int64)
        self.ts = np.ascontiguousarray(ts, dtype=np.int64)
        self.label = None if label is None else int(label)
        self.sensor_dims = (int(sensor_dims[0]), int(sensor_dims[1]))
        if validate:
            self._check()
        for a in (self.xs, self.ys, self.ps, self.ts):
            a.flags.writeable = False

    def _check(self):
        n = len(self.ts)
        if not (len(self.xs) == len(self.ys) == len(self.ps) == n):
            raise ValueError("event field arrays differ in length")
        if n == 0:
            return
        w, h = self.sensor_dims
        if self.xs.min() < 0 or self.xs.max() >= w:
            raise ValueError(f"x outside sensor width {w}")
        if self.ys.min() < 0 or self.ys.max() >= h:
            raise ValueError(f"y outside sensor height {h}")
        if not np.isin(self.ps, (0, 1)).all():
            raise ValueError("polarity must be 0 or 1")
        if self.ts.min() < 0:
            raise ValueError("negative timestamp")
        if n > 1 and np.any(np.diff(self.ts) < 0):
            raise ValueError("timestamps not non-decreasing")

    def __len__(self):
        return len(self.ts)

    def event(self, i):
        return Event(int(self.xs[i]), int(self.ys[i]), int(self.ps[i]), int(self.ts[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self.event(i)

    def truncated(self, n):
        """First ``n`` events (no copy beyond the slices)."""
        if n >= len(self):
            return self
        return EventSequence(
            self.xs[:n], self.ys[:n], self.ps[:n], self.ts[:n],
            label=self.label, sensor_dims=self.sensor_dims, validate=False,
        )


class Dataset:
    """A list of event sequences sharing one sensor plus the class count."""

    def __init__(self, sequences, class_count, split="train"):
        self.sequences = list(sequences)
        self.class_count = int(class_count)
        self.split = split
        for seq in self.sequences:
            if seq.label is None or seq.label >= self.class_count:
                raise DatasetError(f"label {seq.label} outside [0, {self.class_count})")
        dims = {seq.sensor_dims for seq in self.sequences}
        if len(dims) > 1:
            raise DatasetError(f"mixed sensor dims in one dataset: {sorted(dims)}")

    @property
    def sensor_dims(self):
        return self.sequences[0].sensor_dims if self.sequences else DEFAULT_SENSOR

    def __len__(self):
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    def __getitem__(self, i):
        return self.sequences[i]

    def labels(self):
        return np.array([seq.label for seq in self.sequences], dtype=np.int64)


def _decoded(xs, ys, ps, ts, label, sensor_dims):
    """The sequence of a decoded payload; a field that the sequence refuses,
    a coordinate outside the sensor, is a fault of the payload."""
    try:
        return EventSequence(xs, ys, ps, ts, label=label, sensor_dims=sensor_dims)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_aer(data, sensor_dims=DEFAULT_SENSOR, label=None):
    """Decode a 5-byte-per-record AER payload into an event sequence."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size % 5:
        raise FormatError(f"payload of {raw.size} bytes is not a whole number of 5-byte records")
    # each column is widened on its own from the byte view, and the
    # timestamp is assembled in place, so no [N x 5] int64 block exists
    rec = raw.reshape(-1, 5)
    xs = rec[:, 0].astype(np.int64)
    ys = rec[:, 1].astype(np.int64)
    ps = (rec[:, 2] >> 7).astype(np.int64)
    ts = np.left_shift(rec[:, 2] & 0x7F, 16, dtype=np.int64)
    ts |= np.left_shift(rec[:, 3], 8, dtype=np.int64)
    ts |= rec[:, 4]
    if len(ts) > 1:
        wraps = np.zeros(len(ts), dtype=np.int64)
        wraps[1:] = np.diff(ts) < -T_DROP
        np.cumsum(wraps, out=wraps)
        wraps *= T_WRAP
        ts += wraps
        del wraps  # before the sequence's checks and their own temporaries
        if np.any(np.diff(ts) < 0):
            warnings.warn("non-monotone timestamps after overflow extension; sorting", stacklevel=2)
            order = np.argsort(ts, kind="stable")
            xs, ys, ps, ts = xs[order], ys[order], ps[order], ts[order]
    return _decoded(xs, ys, ps, ts, label, sensor_dims)


def write_aer(seq):
    """Encode an event sequence as 5-byte AER records (inverse of parse_aer)."""
    n = len(seq)
    if n == 0:
        return b""
    if seq.xs.max() > 0xFF or seq.ys.max() > 0xFF:
        raise FormatError("coordinate exceeds 255; use the aer16 layout")
    if n > 1 and np.any(np.diff(seq.ts) >= T_WRAP):
        raise FormatError("timestamp step of 2^23 us or more cannot be encoded")
    t = seq.ts & (T_WRAP - 1)
    out = np.empty((n, 5), dtype=np.uint8)
    out[:, 0] = seq.xs
    out[:, 1] = seq.ys
    out[:, 2] = (seq.ps << 7) | (t >> 16)
    out[:, 3] = (t >> 8) & 0xFF
    out[:, 4] = t & 0xFF
    return out.tobytes()


def parse_aer16(data, sensor_dims, label=None):
    """Decode the 9-byte extended layout (u16 coordinates, u32 timestamp)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size % 9:
        raise FormatError(f"payload of {raw.size} bytes is not a whole number of 9-byte records")
    rec = np.frombuffer(data, dtype=_AER16_DTYPE)
    xs = rec["x"].astype(np.int64)
    ys = rec["y"].astype(np.int64)
    ps = rec["p"].astype(np.int64)
    ts = rec["t"].astype(np.int64)
    if not np.isin(ps, (0, 1)).all():
        raise FormatError("polarity byte must be 0 or 1")
    if len(ts) > 1 and np.any(np.diff(ts) < 0):
        warnings.warn("non-monotone timestamps; sorting", stacklevel=2)
        order = np.argsort(ts, kind="stable")
        xs, ys, ps, ts = xs[order], ys[order], ps[order], ts[order]
    return _decoded(xs, ys, ps, ts, label, sensor_dims)


def write_aer16(seq):
    n = len(seq)
    if n == 0:
        return b""
    if seq.xs.max() > 0xFFFF or seq.ys.max() > 0xFFFF or seq.ts.max() > 0xFFFFFFFF:
        raise FormatError("field exceeds the aer16 layout")
    rec = np.empty(n, dtype=_AER16_DTYPE)
    rec["x"] = seq.xs
    rec["y"] = seq.ys
    rec["p"] = seq.ps
    rec["t"] = seq.ts
    return rec.tobytes()


def read_manifest(root):
    """Sensor dims and the decode function of the record format named in
    manifest.json: None when it names no sensor, ``aer`` when it names no
    format.

    The function is looked up on each call, so that a wrapper rebinding
    ``parse_aer`` (a profiler's) is seen.
    """
    path = Path(root) / "manifest.json"
    sensor, fmt = None, "aer"
    if path.exists():
        try:
            meta = json.loads(path.read_text())
        except ValueError as exc:
            raise DatasetError(f"unreadable manifest {path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise DatasetError(f"manifest {path} is not a JSON object")
        if "sensor" in meta:
            sensor = meta["sensor"]
            if not (isinstance(sensor, list) and len(sensor) == 2
                    and all(type(n) is int and 0 < n <= MAX_SENSOR for n in sensor)):
                raise DatasetError(f"manifest sensor must be two integers in 1..{MAX_SENSOR}, "
                                   f"got {sensor!r}")
            sensor = tuple(sensor)
        fmt = meta.get("format", fmt)
        if fmt not in ("aer", "aer16"):
            raise DatasetError(f"unknown record format {fmt!r} in manifest")
    return sensor, parse_aer16 if fmt == "aer16" else parse_aer


def load_dataset(root, truncate_to=None, split="train"):
    """Load ``root/<class_name>/<sample>.bin`` into a labeled dataset.

    Class names sorted lexicographically define the class indices; files
    are visited in sorted order so the sequence order is deterministic.
    Unreadable files, and files that hold no event, are skipped with a
    logged warning; DatasetError when no file is left.
    """
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"no such dataset directory: {root}")
    sensor, decode = read_manifest(root)
    sensor = sensor or DEFAULT_SENSOR
    names = class_names(root)
    if not names:
        raise DatasetError(f"no class directories under {root}")
    sequences = []
    for idx, cdir in enumerate(root / name for name in names):
        files = sorted(cdir.glob("*.bin"))
        if not files:
            raise DatasetError(f"class directory {cdir} holds no .bin files")
        for path in files:
            try:
                seq = decode(path.read_bytes(), sensor_dims=sensor, label=idx)
                if not len(seq):
                    raise FormatError("the file holds no event")
            except (OSError, FormatError, ValueError) as exc:
                log.warning("skipping %s: %s", path, exc)
                continue
            if truncate_to is not None:
                seq = seq.truncated(truncate_to)
            sequences.append(seq)
    if not sequences:
        raise DatasetError(f"no readable sequence under {root}")
    return Dataset(sequences, class_count=len(names), split=split)


def class_names(root):
    """The sorted names of the class directories under ``root``: class i
    of ``load_dataset`` is the i-th."""
    return sorted(d.name for d in Path(root).iterdir() if d.is_dir())


def subset_fraction(dataset, rho, seed):
    """First ceil(rho*N) sequences after a seeded shuffle."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {rho}")
    n = len(dataset)
    keep = math.ceil(round(rho * n, 9))
    order = np.random.default_rng([int(seed), 0x5F]).permutation(n)
    picked = [dataset[i] for i in order[:keep]]
    return Dataset(picked, dataset.class_count, split=dataset.split)


def split_dataset(dataset, train_fraction, seed):
    """Seeded shuffle, then split into (train, test) datasets; DatasetError
    when the test part would be empty."""
    n = len(dataset)
    order = np.random.default_rng([int(seed), 0xA7]).permutation(n)
    cut = math.ceil(round(train_fraction * n, 9))
    if cut >= n:
        raise DatasetError(f"a {train_fraction} split of {n} sequences holds none out "
                           "for testing")
    train = [dataset[i] for i in order[:cut]]
    test = [dataset[i] for i in order[cut:]]
    return (
        Dataset(train, dataset.class_count, split="train"),
        Dataset(test, dataset.class_count, split="test"),
    )
