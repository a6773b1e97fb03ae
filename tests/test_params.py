import io
import tracemalloc

import numpy as np
import pytest

from helpers import record_starts
from inode import lstm, model
from inode.checkpoint import (META_CONFIG, META_MODEL, META_STATS, load_checkpoint,
                              save_checkpoint)
from inode.errors import FormatError, ShapeError
from inode.params import MAGIC, ParamStore, init_store, load_records, save_store
from inode.preprocess import TimeStats


def _example_store():
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("layer_w", rng.standard_normal((3, 5)))
    store.add("layer_b", np.zeros(5))
    return store


def _to_bytes(store):
    buf = io.BytesIO()
    save_store(store, buf)
    return buf.getvalue()


def test_store_rejects_bad_entries():
    store = ParamStore()
    with pytest.raises(ValueError):
        store.add("w", np.array([[np.inf]]))
    with pytest.raises(ShapeError):
        store.add("w", np.zeros((2, 2, 2)))
    store.add("w", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        store.add("w", np.zeros((2, 2)))


def test_bias_rows_become_two_dimensional():
    store = ParamStore()
    store.add("b", np.zeros(4))
    assert store["b"].shape == (1, 4)


def test_serialization_round_trip():
    store = _example_store()
    blob = _to_bytes(store)
    assert blob.startswith(MAGIC)
    records = load_records(io.BytesIO(blob))
    assert set(records) == {"layer_w", "layer_b"}
    for name in store.names():
        assert np.array_equal(records[name], store[name])


def test_wire_layout_is_exact():
    store = ParamStore()
    store.add("ab", np.array([[1.0, 2.0]]))
    blob = _to_bytes(store)
    # magic, version u32, name_len u32, name, rows u32, cols u32, payload
    assert blob[:6] == b"INODE1"
    assert blob[6:10] == (1).to_bytes(4, "little")
    assert blob[10:14] == (2).to_bytes(4, "little")
    assert blob[14:16] == b"ab"
    assert blob[16:20] == (1).to_bytes(4, "little")
    assert blob[20:24] == (2).to_bytes(4, "little")
    assert blob[24:] == np.array([1.0, 2.0]).astype("<f8").tobytes()


def test_bad_magic_and_truncation():
    store = _example_store()
    blob = _to_bytes(store)
    with pytest.raises(FormatError):
        load_records(io.BytesIO(b"NOPE" + blob[4:]))
    with pytest.raises(FormatError):
        load_records(io.BytesIO(blob[:-3]))


def test_init_store_bounds():
    store = init_store(np.random.default_rng(1), [("b", (1, 100), False), ("w", (16, 625), True)])
    assert store.names() == ["b", "w"]
    assert not store["b"].any()
    w = store["w"]
    assert w.shape == (16, 625)
    assert np.abs(w).max() <= 0.25
    assert np.abs(w).max() > 0.2  # actually fills the range


def test_checkpoint_round_trip(tmp_path):
    store = lstm.init_params(np.random.default_rng(0), 7, hidden=5)
    stats = TimeStats(dq=123.0, dmax=1.0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, stats, kind="lstm", n_classes=7, state_dim=5,
                    features=4, sensor_dims=(180, 240), config={"lr": 1e-3, "seed": 4})
    ck = load_checkpoint(path)
    assert ck.kind == "lstm"
    assert ck.n_classes == 7
    assert ck.state_dim == 5
    assert ck.features == 4
    assert ck.sensor_dims == (180, 240)
    assert ck.stats == stats
    assert ck.config == {"lr": 1e-3, "seed": 4}
    assert ck.store.names() == store.names()
    for name in store.names():
        assert np.array_equal(ck.store[name], store[name])


def test_checkpoint_without_metadata_rejected(tmp_path):
    store = _example_store()
    path = tmp_path / "bare.ckpt"
    save_store(store, path)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _saved_checkpoint(path, store=None, kind="lstm", geometry=(5, 4), **config):
    """A valid checkpoint of ``store``, by default a 2-class H = 5 LSTM."""
    if store is None:
        store = lstm.init_params(np.random.default_rng(0), 2, hidden=5)
    save_checkpoint(path, store, TimeStats(dq=1.0), kind=kind, n_classes=2,
                    state_dim=geometry[0], features=geometry[1], sensor_dims=(34, 34), **config)


def _rewrite_records(path, edit):
    """Apply ``edit`` to the record dict of a saved checkpoint and write it back."""
    records = load_records(path)
    edit(records)
    save_store(ParamStore(), path, extra=list(records.items()))


def _patched_checkpoint(path, column, value, store=None):
    """A valid checkpoint whose model record has ``value`` in ``column``."""
    _saved_checkpoint(path, store)

    def patch(records):
        records[META_MODEL][0, column] = value
    _rewrite_records(path, patch)


@pytest.mark.parametrize("code", [3.0, -1.0, 2.5, float("nan")])
def test_corrupt_model_kind_code_rejected(tmp_path, code):
    path = tmp_path / "model.ckpt"
    _patched_checkpoint(path, 0, code)
    with pytest.raises(FormatError, match="kind code"):
        load_checkpoint(path)


# columns of the model record: kind, n_classes, state_dim, features, width, height
@pytest.mark.parametrize("column,value", [
    (4, float("nan")), (4, -5.0), (5, 0.0), (1, float("inf")), (1, 1.5), (2, -1.0),
    (3, float("nan")),
])
def test_corrupt_model_geometry_rejected(tmp_path, column, value):
    path = tmp_path / "model.ckpt"
    _patched_checkpoint(path, column, value)
    with pytest.raises(FormatError, match="positive integer"):
        load_checkpoint(path)


def test_class_count_disagreeing_with_readout_rejected(tmp_path):
    store = lstm.init_params(np.random.default_rng(2), 2, hidden=5)
    path = tmp_path / "model.ckpt"
    _patched_checkpoint(path, 1, 7.0, store)
    with pytest.raises(FormatError, match="disagrees"):
        load_checkpoint(path)
    _patched_checkpoint(path, 1, 2.0, store)
    assert load_checkpoint(path).n_classes == 2


# an H = 5 store whose header says the wrong state_dim or features
@pytest.mark.parametrize("kind, state_dim, features", [
    ("lstm", 30, 3), ("lstm", 30, 4), ("lstm", 5, 3), ("inode", 30, 3), ("inode", 5, 4),
])
def test_geometry_disagreeing_with_the_store_rejected(tmp_path, kind, state_dim, features):
    rng = np.random.default_rng(3)
    if kind == "inode":
        store, right = model.init_params(rng, 2, state_dim=5), (5, 3)
    else:
        store, right = lstm.init_params(rng, 2, hidden=5), (5, 4)
    path = tmp_path / "model.ckpt"
    with pytest.raises(FormatError, match="disagrees"):
        _saved_checkpoint(path, store, kind, (state_dim, features))
    assert not path.exists()
    _saved_checkpoint(path, store, kind, right)

    def patch(records):
        records[META_MODEL][0, 2:4] = state_dim, features
    _rewrite_records(path, patch)
    with pytest.raises(FormatError, match="disagrees"):
        load_checkpoint(path)
    _saved_checkpoint(path, store, kind, right)
    ckpt = load_checkpoint(path)
    assert (ckpt.state_dim, ckpt.features) == right


# a 3-class INODE store (state 30) saved with a header that disagrees
@pytest.mark.parametrize("n_classes, state_dim, features, width", [
    (4, 30, 3, model.WIDTH), (3, 31, 3, model.WIDTH), (3, 30, 4, model.WIDTH), (3, 30, 3, 6),
])
def test_save_refuses_what_load_refuses(n_classes, state_dim, features, width):
    store = model.init_params(np.random.default_rng(4), 3, width=width)
    buf = io.BytesIO()
    with pytest.raises(FormatError, match="disagrees"):
        save_checkpoint(buf, store, TimeStats(dq=1.0), kind="inode", n_classes=n_classes,
                        state_dim=state_dim, features=features, sensor_dims=(34, 34))
    assert buf.getvalue() == b""


@pytest.mark.parametrize("kind", ["inode", "inode_h0", "lstm", "bilstm"])
def test_checkpoint_cut_at_any_record_boundary_rejected(kind):
    rng = np.random.default_rng(5)
    if kind.startswith("inode"):
        store = model.init_params(rng, 3, state_dim=4, learnable_h0=kind == "inode_h0")
        geometry = (4, model.FEATURES)
    else:
        store = lstm.init_params(rng, 3, hidden=5, bidirectional=kind == "bilstm")
        geometry = (5, lstm.INPUT_DIM)
    buf = io.BytesIO()
    save_checkpoint(buf, store, TimeStats(dq=1.0), kind=kind.removesuffix("_h0"), n_classes=3,
                    state_dim=geometry[0], features=geometry[1], sensor_dims=(34, 34),
                    config={"seed": 1})
    blob = buf.getvalue()
    starts = record_starts(blob)
    assert len(starts) == 3 + len(store)
    for _, offset in starts:
        with pytest.raises(FormatError):
            load_checkpoint(io.BytesIO(blob[:offset]))
    assert load_checkpoint(io.BytesIO(blob)).store.names() == store.names()


def test_checkpoint_with_h0_last_still_loads(tmp_path):
    store = model.init_params(np.random.default_rng(6), 2, state_dim=4, learnable_h0=True)
    path = tmp_path / "model.ckpt"
    _saved_checkpoint(path, store, "inode", (4, model.FEATURES))
    _rewrite_records(path, lambda records: records.update(h0=records.pop("h0")))
    assert list(load_records(path))[-1] == "h0"
    loaded = load_checkpoint(path).store
    assert np.array_equal(loaded["h0"], store["h0"])


def test_checkpoint_with_a_weight_of_another_kind_rejected(tmp_path):
    store = lstm.init_params(np.random.default_rng(6), 2, hidden=5)
    store.add("h0", np.zeros(5))
    path = tmp_path / "model.ckpt"
    with pytest.raises(FormatError, match="'h0' disagrees"):
        _saved_checkpoint(path, store)
    _saved_checkpoint(path)
    _rewrite_records(path, lambda records: records.update(h0=np.zeros((1, 5))))
    with pytest.raises(FormatError, match="'h0' disagrees"):
        load_checkpoint(path)


def test_header_asking_for_more_weights_than_stored_rejected(tmp_path):
    # an H = 20,000 LSTM would hold 12.8 GB of recurrent weights; the
    # refusal compares shapes and allocates almost nothing
    path = tmp_path / "model.ckpt"
    _patched_checkpoint(path, 2, 20_000.0, lstm.init_params(np.random.default_rng(7), 2, 5))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="disagrees"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("config", [b"\xff\xfe{", b"{", b'{"a": 1} x'])
def test_config_that_is_not_utf8_json_rejected(tmp_path, config):
    path = tmp_path / "model.ckpt"
    _saved_checkpoint(path, config={"seed": 1})

    def patch(records):
        records[META_CONFIG] = np.frombuffer(config, dtype=np.uint8)[None, :].astype(np.float64)
    _rewrite_records(path, patch)
    with pytest.raises(FormatError, match="config"):
        load_checkpoint(path)


# damaged metadata and weights, each refused with FormatError
@pytest.mark.parametrize("record, value, match", [
    ("fwd_wi", np.full((4, 5), np.nan), "non-finite"),
    ("fcc_b", np.array([[np.inf, 0.0]]), "non-finite"),
    (META_STATS, np.array([[1.0, 1.0, 1.0]]), "expected"),
    (META_STATS, np.array([[0.0, 1.0]]), "finite and positive"),
    (META_STATS, np.array([[1.0, -1.0]]), "finite and positive"),
    (META_STATS, np.array([[np.inf, 1.0]]), "finite and positive"),
    (META_MODEL, np.zeros((0, 6)), "expected"),
    (META_MODEL, np.ones((2, 6)), "expected"),
    (META_CONFIG, np.array([[123.5, 125.0]]), "bytes"),
    (META_CONFIG, np.array([[123.0, np.nan]]), "bytes"),
    (META_CONFIG, np.array([[123.0], [125.0]]), "bytes"),
])
def test_damaged_record_rejected(tmp_path, record, value, match):
    path = tmp_path / "model.ckpt"
    _saved_checkpoint(path, config={"seed": 1})
    _rewrite_records(path, lambda records: records.update({record: value}))
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


def _flipped(blob, offset, bit):
    return blob[:offset] + bytes([blob[offset] ^ (1 << bit)]) + blob[offset + 1:]


def test_record_lengths_past_the_end_rejected_before_reading():
    blob = _to_bytes(_example_store())
    name_len, rows = len(MAGIC) + 4, len(MAGIC) + 4 + 4 + len("layer_w")
    # a name of 2^31 bytes, 2^31 + 3 rows (86 GB), and 2^32 - 1 rows and columns (2^67 B)
    for damaged in (_flipped(blob, name_len + 3, 7), _flipped(blob, rows + 3, 7),
                    blob[:rows] + (2**32 - 1).to_bytes(4, "little") * 2 + blob[rows + 8:]):
        with pytest.raises(FormatError, match="truncated"):
            load_records(io.BytesIO(damaged))


def test_record_name_that_is_not_utf8_rejected():
    blob = _to_bytes(_example_store())
    name = len(MAGIC) + 4 + 4
    with pytest.raises(FormatError, match="UTF-8"):
        load_records(io.BytesIO(_flipped(blob, name, 7)))


def test_every_stored_array_starts_on_a_64_byte_boundary(tmp_path):
    """Fresh, added, replaced, copied and loaded weights alike, whatever
    offset the heap gives the array they come from."""
    rng = np.random.default_rng(12)
    fresh = model.init_params(rng, 3)
    added = ParamStore()
    for k in range(8):  # views 8 bytes apart, so most start off a boundary
        added.add(f"w{k}", np.arange(40.0)[k:k + 30].reshape(5, 6))
    replaced = _example_store()
    replaced["layer_w"] = rng.standard_normal((12, 5))[1::4]
    save_checkpoint(tmp_path / "m.ckpt", fresh, TimeStats(dq=100.0), "inode", 3,
                    model.STATE_DIM, model.FEATURES, (34, 34))
    loaded = load_checkpoint(tmp_path / "m.ckpt").store
    for store in (fresh, added, replaced, fresh.copy(), loaded):
        assert all(v.flags.c_contiguous and v.ctypes.data % 64 == 0 for _, v in store.items())
    assert np.array_equal(added["w3"], np.arange(3.0, 33.0).reshape(5, 6))
