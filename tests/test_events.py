import json
import tracemalloc

import numpy as np
import pytest

from inode.errors import DatasetError, FormatError
from inode.events import (
    Dataset, Event, EventSequence, T_WRAP, load_dataset,
    parse_aer, parse_aer16, read_manifest, split_dataset, subset_fraction, write_aer,
    write_aer16,
)


def test_parse_hand_packed_record():
    seq = parse_aer(bytes([0x03, 0x07, 0x80, 0x03, 0xE8]))
    assert seq.event(0) == Event(3, 7, 1, 1000)


def test_parse_all_zero_record():
    seq = parse_aer(bytes(5))
    assert seq.event(0) == Event(0, 0, 0, 0)


def test_write_hand_packed_record():
    seq = EventSequence([3], [7], [1], [1000])
    assert write_aer(seq) == bytes([0x03, 0x07, 0x80, 0x03, 0xE8])


def test_write_empty_sequence():
    assert write_aer(EventSequence([], [], [], [])) == b""


def test_partial_record_rejected():
    with pytest.raises(FormatError):
        parse_aer(bytes(7))


def _random_sequence(rng, n, max_gap=5000):
    xs = rng.integers(0, 34, n)
    ys = rng.integers(0, 34, n)
    ps = rng.integers(0, 2, n)
    ts = np.cumsum(rng.integers(0, max_gap, n))
    return EventSequence(xs, ys, ps, ts, sensor_dims=(34, 34))


def test_round_trip_identity_random_events():
    rng = np.random.default_rng(8)
    seq = _random_sequence(rng, 1000)
    blob = write_aer(seq)
    back = parse_aer(blob)
    assert np.array_equal(back.xs, seq.xs)
    assert np.array_equal(back.ys, seq.ys)
    assert np.array_equal(back.ps, seq.ps)
    assert np.array_equal(back.ts, seq.ts)
    assert write_aer(back) == blob


def test_timestamp_overflow_extension():
    # two events straddling the 2^23 us wrap
    seq = EventSequence([1, 2], [1, 2], [0, 1], [T_WRAP - 10, T_WRAP + 10])
    blob = write_aer(seq)
    back = parse_aer(blob)
    assert list(back.ts) == [T_WRAP - 10, T_WRAP + 10]
    assert np.all(np.diff(back.ts) >= 0)


def test_parse_aer_peak_memory():
    """The decoder widens one column at a time; a whole [N x 5] int64
    block of the records put its peak at 99 B/event."""
    n = 1 << 16
    rng = np.random.default_rng(9)
    seq = EventSequence(rng.integers(0, 34, n), rng.integers(0, 34, n), rng.integers(0, 2, n),
                        np.cumsum(rng.integers(0, 400, n)))
    blob = write_aer(seq)
    tracemalloc.start()
    try:
        back = parse_aer(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.ts[-1] > T_WRAP and np.array_equal(back.ts, seq.ts)
    assert peak <= 56 * n, f"{peak / n:.1f} B/event"


def test_oversized_step_rejected_on_write():
    seq = EventSequence([0, 0], [0, 0], [0, 0], [0, T_WRAP])
    with pytest.raises(FormatError):
        write_aer(seq)


def test_non_monotone_payload_warns_and_sorts():
    records = write_aer(EventSequence([1], [1], [0], [500])) + write_aer(
        EventSequence([2], [2], [1], [100]))
    with pytest.warns(UserWarning):
        seq = parse_aer(records)
    assert list(seq.ts) == [100, 500]
    assert list(seq.xs) == [2, 1]


def test_aer16_round_trip():
    rng = np.random.default_rng(9)
    n = 500
    seq = EventSequence(
        rng.integers(0, 240, n), rng.integers(0, 180, n), rng.integers(0, 2, n),
        np.cumsum(rng.integers(0, 300, n)), sensor_dims=(240, 180))
    blob = write_aer16(seq)
    assert len(blob) == 9 * n
    back = parse_aer16(blob, sensor_dims=(240, 180))
    for field in ("xs", "ys", "ps", "ts"):
        assert np.array_equal(getattr(back, field), getattr(seq, field))


def test_sequence_validation():
    with pytest.raises(ValueError):
        EventSequence([40], [0], [0], [0], sensor_dims=(34, 34))
    with pytest.raises(ValueError):
        EventSequence([0, 0], [0, 0], [0, 0], [10, 5])
    with pytest.raises(ValueError):
        EventSequence([0], [0], [2], [0])


def _write_dataset(root, counts, n_events=30, fmt="aer", sensor=(34, 34)):
    rng = np.random.default_rng(10)
    encode = write_aer if fmt == "aer" else write_aer16
    for cname, n_files in counts.items():
        cdir = root / cname
        cdir.mkdir(parents=True)
        for k in range(n_files):
            seq = _random_sequence(rng, n_events, max_gap=200)
            (cdir / f"s{k:03d}.bin").write_bytes(encode(seq))
    if fmt != "aer" or sensor != (34, 34):
        (root / "manifest.json").write_text(json.dumps({"sensor": list(sensor), "format": fmt}))


def test_load_dataset_counts_and_classes(tmp_path):
    _write_dataset(tmp_path, {"left": 3, "right": 3})
    ds = load_dataset(tmp_path)
    assert len(ds) == 6
    assert ds.class_count == 2


def test_load_dataset_truncates_to_first_2000(tmp_path):
    _write_dataset(tmp_path, {"only": 1}, n_events=6000)
    ds = load_dataset(tmp_path, truncate_to=2000)
    assert len(ds[0]) == 2000
    full = parse_aer(sorted((tmp_path / "only").glob("*.bin"))[0].read_bytes())
    assert np.array_equal(ds[0].ts, full.ts[:2000])


def test_class_order_is_lexicographic(tmp_path):
    _write_dataset(tmp_path, {"b": 1, "a": 1})
    ds = load_dataset(tmp_path)
    by_label = {seq.label for seq in ds}
    assert by_label == {0, 1}
    # directory "a" sorts first and owns label 0
    a_file = sorted((tmp_path / "a").glob("*.bin"))[0]
    a_seq = parse_aer(a_file.read_bytes())
    labeled = [seq for seq in ds if seq.label == 0]
    assert any(np.array_equal(seq.ts, a_seq.ts) for seq in labeled)


def test_empty_class_directory_rejected(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DatasetError):
        load_dataset(tmp_path)


def test_unreadable_file_skipped_with_warning(tmp_path, caplog):
    _write_dataset(tmp_path, {"c": 2})
    (tmp_path / "c" / "broken.bin").write_bytes(bytes(3))  # partial record
    with caplog.at_level("WARNING"):
        ds = load_dataset(tmp_path)
    assert len(ds) == 2
    assert any("skipping" in rec.message for rec in caplog.records)


def test_manifest_selects_aer16(tmp_path):
    _write_dataset(tmp_path, {"x": 2}, fmt="aer16", sensor=(240, 180))
    ds = load_dataset(tmp_path)
    assert ds.sensor_dims == (240, 180)


@pytest.mark.parametrize("sensor", ["ab", 5, [0, -5]])
def test_manifest_rejects_bad_sensor(tmp_path, sensor):
    (tmp_path / "manifest.json").write_text(json.dumps({"sensor": sensor}))
    with pytest.raises(DatasetError, match="sensor"):
        read_manifest(tmp_path)


@pytest.mark.parametrize("sensor", [[65537, 34], [34, 2 ** 62]])
def test_manifest_rejects_a_sensor_past_what_aer16_addresses(tmp_path, sensor):
    """A pixel key of such a sensor would overflow a session's table."""
    (tmp_path / "manifest.json").write_text(json.dumps({"sensor": sensor}))
    with pytest.raises(DatasetError, match="1..65536"):
        read_manifest(tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"sensor": [65536, 65536]}))
    assert read_manifest(tmp_path)[0] == (65536, 65536)


def test_subset_fraction_keeps_ceil(tmp_path):
    seqs = [EventSequence([0], [0], [0], [i], label=0) for i in range(10)]
    ds = Dataset(seqs, class_count=1)
    assert len(subset_fraction(ds, 0.2, seed=1)) == 2
    assert len(subset_fraction(ds, 0.25, seed=1)) == 3
    assert len(subset_fraction(ds, 1.0, seed=1)) == 10
    # seeded shuffle is deterministic
    a = subset_fraction(ds, 0.5, seed=3).sequences
    b = subset_fraction(ds, 0.5, seed=3).sequences
    assert [s.ts[0] for s in a] == [s.ts[0] for s in b]


def test_split_dataset():
    seqs = [EventSequence([0] * n, [0] * n, [0] * n, list(range(n)), label=0)
            for n in (5, 10, 15, 20)]
    ds = Dataset(seqs, class_count=1)
    train, test = split_dataset(ds, 0.75, seed=0)
    assert len(train) == 3 and len(test) == 1
    train_ids = {id(s) for s in train}
    assert all(id(s) not in train_ids for s in test)
