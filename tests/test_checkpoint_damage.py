"""A damaged checkpoint loads or raises FormatError, and nothing else.

Hypothesis draws the cuts and single-bit flips of one small checkpoint
of each kind; ``derandomize`` keeps the examples the same on every run.
Half of the flips land in the first 32 bytes of a record, where its
name and dimensions are, since an INODE file is mostly payload.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import record_starts
from inode import lstm, model
from inode.checkpoint import META_MODEL, load_checkpoint, save_checkpoint
from inode.errors import FormatError
from inode.params import ParamStore, load_records, save_store
from inode.preprocess import TimeStats

KINDS = ["inode", "inode_h0", "lstm", "bilstm"]
EXAMPLES = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _checkpoint(kind):
    rng = np.random.default_rng(17)
    if kind.startswith("inode"):
        store = model.init_params(rng, 2, state_dim=2, learnable_h0=kind == "inode_h0")
        geometry = (2, model.FEATURES)
    else:
        store = lstm.init_params(rng, 2, hidden=2, bidirectional=kind == "bilstm")
        geometry = (2, lstm.INPUT_DIM)
    buf = io.BytesIO()
    save_checkpoint(buf, store, TimeStats(dq=250.0), kind=kind.removesuffix("_h0"), n_classes=2,
                    state_dim=geometry[0], features=geometry[1], sensor_dims=(34, 34),
                    config={"seed": 1})
    return buf.getvalue()


BLOBS = {kind: _checkpoint(kind) for kind in KINDS}
HEADS = {kind: sorted({min(start + k, len(blob) - 1) for _, start in record_starts(blob)
                       for k in range(32)})
         for kind, blob in BLOBS.items()}


@pytest.mark.parametrize("kind", KINDS)
@EXAMPLES
@given(data=st.data())
def test_every_cut_raises_format_error(kind, data):
    blob = BLOBS[kind]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(FormatError):
        load_checkpoint(io.BytesIO(blob[:cut]))


@pytest.mark.parametrize("kind", KINDS)
@EXAMPLES
@given(data=st.data())
def test_every_bit_flip_loads_or_raises_format_error(kind, data):
    blob = BLOBS[kind]
    offset = data.draw(st.one_of(st.integers(0, len(blob) - 1), st.sampled_from(HEADS[kind])),
                       label="offset")
    bit = data.draw(st.integers(0, 7), label="bit")
    damaged = blob[:offset] + bytes([blob[offset] ^ (1 << bit)]) + blob[offset + 1:]
    try:
        load_checkpoint(io.BytesIO(damaged))
    except FormatError:
        pass


@pytest.mark.parametrize("sensor", [(65537, 34), (34, 2.0 ** 62)])
def test_a_sensor_past_what_aer16_addresses_raises_format_error(sensor):
    """One flipped exponent bit of the stored width gives such a sensor,
    whose pixel keys would overflow a session's table."""
    records = load_records(io.BytesIO(BLOBS["inode"]))
    records[META_MODEL][0, 4:] = sensor
    buf = io.BytesIO()
    save_store(ParamStore(), buf, extra=list(records.items()))
    with pytest.raises(FormatError, match="65536 pixels per axis"):
        load_checkpoint(io.BytesIO(buf.getvalue()))
    ckpt = load_checkpoint(io.BytesIO(BLOBS["inode"]))
    with pytest.raises(FormatError, match="65536 pixels per axis"):
        save_checkpoint(io.BytesIO(), ckpt.store, ckpt.stats, kind=ckpt.kind,
                        n_classes=ckpt.n_classes, state_dim=ckpt.state_dim,
                        features=ckpt.features, sensor_dims=sensor)
