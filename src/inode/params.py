"""Named parameter collections and their binary serialization.

Every entry is a 2-D float64 array (biases are stored as 1 x n rows).
The wire format is a single binary blob: a 6-byte magic ``INODE1``, a
little-endian u32 version, then one record per entry:

    name_len u32 | name utf-8 | rows u32 | cols u32 | rows*cols f64 (LE)

Records are read until end of file.
"""

import io
import struct

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"INODE1"
VERSION = 1
# the byte boundary on which every stored array starts: the live step's
# single-row products run up to a fifth slower off it
ALIGN = 64


def _empty_aligned(shape):
    """An uninitialised float64 array of ``shape`` that starts on an
    ``ALIGN`` boundary, wherever the heap puts its buffer."""
    size = int(np.prod(shape)) * 8
    raw = np.empty(size + ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGN
    return raw[start:start + size].view(np.float64).reshape(shape)


def _aligned(value):
    """``value`` as a C-contiguous float64 array on an ``ALIGN`` boundary:
    itself when it is one, else a copy.  The store's own arrays are made
    with ``_empty_aligned`` and filled, not copied, as a freed source among
    the weights moves where the heap puts a training epoch's temporaries:
    an LSTM epoch then took 20 times the page faults."""
    if (value.dtype == np.float64 and value.flags.c_contiguous
            and value.ctypes.data % ALIGN == 0):
        return value
    out = _empty_aligned(value.shape)
    out[...] = value
    return out


class ParamStore:
    """Flat, insertion-ordered collection of named weight matrices, each a
    copy of its own that starts on an ``ALIGN``-byte boundary."""

    def __init__(self):
        self._data = {}

    def add(self, name, value):
        value = np.ascontiguousarray(value, dtype=np.float64)
        if value.ndim == 1:
            value = value.reshape(1, -1)
        if value.ndim != 2:
            raise ShapeError(f"parameter {name!r} must be 1-D or 2-D, got {value.ndim}-D")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {name!r} contains non-finite entries")
        if name in self._data:
            raise ValueError(f"duplicate parameter name {name!r}")
        self._data[name] = value = _aligned(value)
        return value

    def __getitem__(self, name):
        return self._data[name]

    def __setitem__(self, name, value):
        if name not in self._data:
            raise KeyError(name)
        if value.shape != self._data[name].shape:
            raise ShapeError(f"cannot reshape {name!r} from {self._data[name].shape} to {value.shape}")
        self._data[name] = _aligned(value)

    def __contains__(self, name):
        return name in self._data

    def __len__(self):
        return len(self._data)

    def names(self):
        return list(self._data)

    def items(self):
        return self._data.items()

    def total_scalars(self, prefix=None):
        """Number of scalar parameters, optionally restricted to a name prefix."""
        return sum(v.size for k, v in self._data.items() if prefix is None or k.startswith(prefix))

    def copy(self):
        out = ParamStore()
        for name, value in self._data.items():
            copied = out._data[name] = _empty_aligned(value.shape)
            copied[...] = value
        return out


def init_store(rng, layout):
    """A fresh store of a layout's ``(name, (rows, cols), drawn)`` weights, in
    its order: drawn ones uniform in +-1/sqrt(rows), the others zero."""
    store = ParamStore()
    for name, shape, drawn in layout:
        bound = 1.0 / np.sqrt(shape[0])
        value = _empty_aligned(shape)
        value[...] = rng.uniform(-bound, bound, size=shape) if drawn else 0.0
        store.add(name, value)
    return store


def write_records(buf, entries):
    """Append (name, 2-D array) records to a binary stream."""
    for name, value in entries:
        raw = name.encode("utf-8")
        rows, cols = value.shape
        buf.write(struct.pack("<I", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<II", rows, cols))
        buf.write(np.ascontiguousarray(value, dtype="<f8").tobytes())


def read_records(buf):
    """Yield (name, array) records until end of a seekable stream.  A length
    field that runs past the end is refused before anything is read."""
    here = buf.tell()
    left = buf.seek(0, io.SEEK_END) - here
    buf.seek(here)

    def take(size, field):
        nonlocal left
        if size > left:
            raise FormatError(f"truncated record {field}")
        left -= size
        return buf.read(size)

    while left:
        (name_len,) = struct.unpack("<I", take(4, "header"))
        raw = take(name_len, "name")
        rows, cols = struct.unpack("<II", take(8, "dimensions"))
        payload = take(rows * cols * 8, "payload")
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"record name {raw!r} is not UTF-8") from None
        value = _empty_aligned((rows, cols))
        value[...] = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
        yield name, value


def save_store(store, path_or_buf, extra=()):
    """Write magic + version + records; ``extra`` records are written first."""
    own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
    buf = open(path_or_buf, "wb") if own else path_or_buf
    try:
        buf.write(MAGIC)
        buf.write(struct.pack("<I", VERSION))
        write_records(buf, extra)
        write_records(buf, store.items())
    finally:
        if own:
            buf.close()


def load_records(path_or_buf):
    """Read all records from a checkpoint blob, returning a name -> array dict."""
    own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
    buf = open(path_or_buf, "rb") if own else path_or_buf
    try:
        magic = buf.read(len(MAGIC))
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        ver = buf.read(4)
        if len(ver) != 4:
            raise FormatError("truncated version field")
        (version,) = struct.unpack("<I", ver)
        if version != VERSION:
            raise FormatError(f"unsupported version {version}")
        out = {}
        for name, value in read_records(buf):
            if name in out:
                raise FormatError(f"duplicate record {name!r}")
            out[name] = value
        return out
    finally:
        if own:
            buf.close()
