import io

import numpy as np
import pytest

from helpers import record_starts
from inode import lstm, model
from inode.checkpoint import META_CONFIG, META_MODEL, load_checkpoint, save_checkpoint
from inode.errors import FormatError, ShapeError
from inode.params import MAGIC, ParamStore, load_records, save_store, uniform_init
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


def test_uniform_init_bounds():
    rng = np.random.default_rng(1)
    w = uniform_init(rng, 16, (100, 100))
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


@pytest.mark.parametrize("code", [3.0, -1.0, 2.5, float("nan")])
def test_corrupt_model_kind_code_rejected(tmp_path, code):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _example_store(), TimeStats(dq=1.0), kind="lstm", n_classes=2,
                    state_dim=5, features=4, sensor_dims=(34, 34))
    records = load_records(path)
    records[META_MODEL][0, 0] = code
    save_store(ParamStore(), path, extra=list(records.items()))
    with pytest.raises(FormatError, match="kind code"):
        load_checkpoint(path)


def _patched_checkpoint(path, column, value, store=None):
    save_checkpoint(path, store if store is not None else _example_store(), TimeStats(dq=1.0),
                    kind="lstm", n_classes=2, state_dim=5, features=4, sensor_dims=(34, 34))
    records = load_records(path)
    records[META_MODEL][0, column] = value
    save_store(ParamStore(), path, extra=list(records.items()))


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


# an H = 5 store saved with the wrong state_dim or features
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
    save_checkpoint(path, store, TimeStats(dq=1.0), kind=kind, n_classes=2,
                    state_dim=state_dim, features=features, sensor_dims=(34, 34))
    with pytest.raises(FormatError, match="disagrees"):
        load_checkpoint(path)
    save_checkpoint(path, store, TimeStats(dq=1.0), kind=kind, n_classes=2,
                    state_dim=right[0], features=right[1], sensor_dims=(34, 34))
    ckpt = load_checkpoint(path)
    assert (ckpt.state_dim, ckpt.features) == right


@pytest.mark.parametrize("kind", ["inode", "lstm", "bilstm"])
def test_checkpoint_cut_at_any_record_boundary_rejected(kind):
    rng = np.random.default_rng(5)
    if kind == "inode":
        store, geometry = model.init_params(rng, 3, state_dim=4), (4, model.FEATURES)
    else:
        store = lstm.init_params(rng, 3, hidden=5, bidirectional=kind == "bilstm")
        geometry = (5, lstm.INPUT_DIM)
    buf = io.BytesIO()
    save_checkpoint(buf, store, TimeStats(dq=1.0), kind=kind, n_classes=3,
                    state_dim=geometry[0], features=geometry[1], sensor_dims=(34, 34),
                    config={"seed": 1})
    blob = buf.getvalue()
    starts = record_starts(blob)
    assert len(starts) == 3 + len(store)
    for _, offset in starts:
        with pytest.raises(FormatError):
            load_checkpoint(io.BytesIO(blob[:offset]))
    assert load_checkpoint(io.BytesIO(blob)).store.names() == store.names()


def test_checkpoint_with_a_weight_of_another_kind_rejected(tmp_path):
    store = lstm.init_params(np.random.default_rng(6), 2, hidden=5)
    store.add("h0", np.zeros(5))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, TimeStats(dq=1.0), kind="lstm", n_classes=2, state_dim=5,
                    features=4, sensor_dims=(34, 34))
    with pytest.raises(FormatError, match="'h0' disagrees"):
        load_checkpoint(path)


def test_header_asking_for_more_weights_than_stored_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    _patched_checkpoint(path, 2, 20_000.0, lstm.init_params(np.random.default_rng(7), 2, 5))
    with pytest.raises(FormatError, match="asks for more"):
        load_checkpoint(path)


@pytest.mark.parametrize("config", [b"\xff\xfe{", b"{", b'{"a": 1} x'])
def test_config_that_is_not_utf8_json_rejected(tmp_path, config):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, lstm.init_params(np.random.default_rng(8), 2, 5), TimeStats(dq=1.0),
                    kind="lstm", n_classes=2, state_dim=5, features=4, sensor_dims=(34, 34),
                    config={"seed": 1})
    records = load_records(path)
    records[META_CONFIG] = np.frombuffer(config, dtype=np.uint8)[None, :].astype(np.float64)
    save_store(ParamStore(), path, extra=list(records.items()))
    with pytest.raises(FormatError, match="config"):
        load_checkpoint(path)

