import numpy as np
import pytest

from inode.errors import DatasetError
from inode.events import Dataset, Event, EventSequence
from inode.preprocess import (
    TimeStats, clamped_input, compute_dq, make_batch, normalize_dt, normalize_sequence,
)
from inode.synth import moving_dot, scale_coordinates


def _seq_from_gaps(gaps, label=0):
    ts = np.concatenate([[0], np.cumsum(gaps)])
    n = len(ts)
    return EventSequence(np.zeros(n, int), np.zeros(n, int), np.zeros(n, int), ts, label=label)


def _dataset(gap_lists):
    return Dataset([_seq_from_gaps(g) for g in gap_lists], class_count=1)


def test_nearest_rank_quantile_of_1_to_100():
    ds = _dataset([list(range(1, 101))])
    assert compute_dq(ds).dq == 98.0


def test_constant_pool():
    ds = _dataset([[50] * 40])
    assert compute_dq(ds).dq == 50.0


def test_quantile_order_free():
    rng = np.random.default_rng(0)
    gaps = list(rng.integers(1, 1000, 300))
    a = compute_dq(_dataset([gaps[:100], gaps[100:]]))
    b = compute_dq(_dataset([gaps[200:], gaps[:200]]))
    assert a.dq == b.dq


def test_zero_quantile_falls_back_to_smallest_positive():
    ds = _dataset([[0] * 200 + [3, 7]])
    assert compute_dq(ds).dq == 3.0


def test_all_zero_gaps_rejected():
    with pytest.raises(DatasetError):
        compute_dq(_dataset([[0, 0, 0]]))


def test_empty_pool_rejected():
    ds = Dataset([_seq_from_gaps([])], class_count=1)
    with pytest.raises(DatasetError):
        compute_dq(ds)


def test_normalize_dt_examples():
    stats = TimeStats(dq=200.0, dmax=1.0)
    assert normalize_dt(200, stats) == 1.0
    assert normalize_dt(1000, stats) == 1.0
    assert normalize_dt(0, stats) == 0.0
    assert normalize_dt(100, stats) == 0.5


def test_normalize_dt_monotone_and_saturating():
    stats = TimeStats(dq=100.0, dmax=1.0)
    dts = np.arange(0, 500, 7)
    out = normalize_dt(dts, stats)
    assert np.all(np.diff(out) >= 0)
    assert out.max() == 1.0


def test_rescaling_equivariance_is_exact():
    rng = np.random.default_rng(1)
    gaps = rng.integers(1, 2000, 500)
    base = _dataset([list(gaps)])
    scaled = _dataset([list(gaps * 1000)])
    dq1 = compute_dq(base)
    dq2 = compute_dq(scaled)
    assert dq2.dq == 1000 * dq1.dq
    a = normalize_dt(gaps, dq1)
    b = normalize_dt(gaps * 1000, dq2)
    assert np.array_equal(a, b)  # bit-identical steps


def test_clamped_input_endpoints():
    dims = (34, 34)
    assert clamped_input(Event(0, 17, 0, 0), dims)[0][0] == -1.0
    assert clamped_input(Event(33, 17, 0, 0), dims)[0][0] == 1.0
    assert clamped_input(Event(5, 5, 0, 0), dims)[0][2] == -1.0
    assert clamped_input(Event(5, 5, 1, 0), dims)[0][2] == 1.0
    assert not clamped_input(Event(33, 33, 1, 0), dims)[1]


def test_clamped_input_clamps_to_the_edge():
    v, clamped, pixel = clamped_input(Event(99, 2, 1, 0), (34, 34))
    assert clamped
    assert pixel == (33, 2, 1)
    assert np.array_equal(v, clamped_input(Event(33, 2, 1, 0), (34, 34))[0])


# a sensor of the kind scale_coordinates makes: 3 * (34 - 1) + 1 pixels a side
FINE_SENSOR = scale_coordinates(moving_dot(0, seed=0, n_events=10), 3).sensor_dims


@pytest.mark.parametrize("dims", [(34, 34), (1, 5), FINE_SENSOR], ids=["34x34", "1x5", "fine"])
def test_clamped_features_equal_normalize_sequence_bitwise(dims):
    w, h = dims
    xs, ys = (a.ravel() for a in np.meshgrid(np.arange(w), np.arange(h), indexing="ij"))
    n = len(xs)
    seq = EventSequence(xs, ys, np.arange(n) % 2, np.arange(n), sensor_dims=dims)
    rows = [clamped_input(event, dims) for event in seq]
    assert not any(clamped for _, clamped, _ in rows)
    assert [pixel for _, _, pixel in rows] == [event[:3] for event in seq]
    assert all(type(v) is float for features, _, _ in rows for v in features)
    assert np.array_equal(np.array([features for features, _, _ in rows]),
                          normalize_sequence(seq))
    # outside the sensor: the features of the nearest edge pixel
    for x, y in ((w, 0), (w + 7, h - 1), (0, h), (3 * w, 5 * h), (10 ** 400, 1)):
        edge = Event(min(x, w - 1), min(y, h - 1), 1, 0)
        assert clamped_input(Event(x, y, 1, 0), dims) == (clamped_input(edge, dims)[0], True,
                                                          edge[:3])


def _labeled_sequence(n, label=1, gap=100):
    rng = np.random.default_rng(2)
    return EventSequence(
        rng.integers(0, 34, n), rng.integers(0, 34, n), rng.integers(0, 2, n),
        np.arange(n) * gap, label=label)


def _window(seq, s_len, rng, stats):
    """``(inputs, dtaus)`` of the one window of a one-sequence batch."""
    batch = make_batch([seq], s_len, stats, rng)
    return batch.inputs[0], batch.dtaus[0]


def test_sample_offset_forced_to_zero_when_tight():
    seq = _labeled_sequence(11)
    stats = TimeStats(dq=100.0)
    inputs, dtaus = _window(seq, 10, np.random.default_rng(0), stats)
    assert np.array_equal(inputs, normalize_sequence(seq)[:10])
    assert dtaus.shape == (10,)


def test_sampled_steps_stay_in_range():
    seq = _labeled_sequence(500, gap=333)
    stats = TimeStats(dq=50.0, dmax=1.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        _, dtaus = _window(seq, 64, rng, stats)
        assert np.all(dtaus >= 0.0) and np.all(dtaus <= 1.0)


def test_sampling_is_deterministic_under_seed():
    seq = _labeled_sequence(300)
    stats = TimeStats(dq=100.0)
    a = _window(seq, 50, np.random.default_rng(7), stats)
    b = _window(seq, 50, np.random.default_rng(7), stats)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_short_sequence_padded_by_holding_last_event():
    seq = _labeled_sequence(4)
    stats = TimeStats(dq=100.0)
    inputs, dtaus = _window(seq, 10, np.random.default_rng(0), stats)
    feats = normalize_sequence(seq)
    assert np.array_equal(inputs[:4], feats)
    assert np.all(inputs[4:] == feats[-1])
    assert np.all(dtaus[3:] == 0.0)
    assert np.all(dtaus[:3] == 1.0)  # gap == dq


def test_sampling_never_fabricates_events():
    seq = _labeled_sequence(200)
    stats = TimeStats(dq=100.0)
    feats = {tuple(row) for row in normalize_sequence(seq)}
    inputs, _ = _window(seq, 60, np.random.default_rng(5), stats)
    assert all(tuple(row) in feats for row in inputs)


def test_make_batch_shapes_and_labels():
    seqs = [_labeled_sequence(100, label=k % 3) for k in range(6)]
    stats = TimeStats(dq=100.0)
    batch = make_batch(seqs, 20, stats, np.random.default_rng(0))
    assert batch.inputs.shape == (6, 20, 3)
    assert batch.dtaus.shape == (6, 20)
    assert list(batch.labels) == [0, 1, 2, 0, 1, 2]
    assert batch.size == 6 and batch.steps == 20


def test_features_with_dt_shifts_gaps():
    seqs = [_labeled_sequence(50)]
    stats = TimeStats(dq=100.0)
    batch = make_batch(seqs, 10, stats, np.random.default_rng(1))
    feats = batch.features_with_dt()
    assert feats.shape == (1, 10, 4)
    assert feats[0, 0, 3] == 0.0
    assert np.array_equal(feats[0, 1:, 3], batch.dtaus[0, :-1])


def _sample_subsequence(seq, s_len, rng, stats):
    """One window sampled alone: the offset uniform over the feasible range
    when the sequence has S+1 events or more, else the whole sequence
    padded by holding its last event with zero steps."""
    m = len(seq)
    feats = normalize_sequence(seq)
    if m >= s_len + 1:
        start = int(rng.integers(0, m - s_len))
        return feats[start:start + s_len], normalize_dt(np.diff(seq.ts[start:start + s_len + 1]),
                                                        stats)
    inputs = np.empty((s_len, 3))
    inputs[:m] = feats
    inputs[m:] = feats[-1]
    dtaus = np.zeros(s_len)
    if m > 1:
        dtaus[: m - 1] = normalize_dt(np.diff(seq.ts), stats)
    return inputs, dtaus


def _per_row_batch(sequences, s_len, stats, rng):
    """``make_batch`` spelled out: one ``_sample_subsequence`` per row."""
    rows = [_sample_subsequence(seq, s_len, rng, stats) for seq in sequences]
    labels = [-1 if seq.label is None else seq.label for seq in sequences]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), np.array(labels)


@pytest.mark.parametrize("s_len", [10, 55, 100, 399, 400, 450])
def test_make_batch_equals_per_row_sampling_bitwise(s_len):
    long = [moving_dot(k % 4, seed=k, n_events=400) for k in range(4)]
    unlabeled = EventSequence(long[1].xs, long[1].ys, long[1].ps, long[1].ts)
    wide = moving_dot(2, seed=9, n_events=400, sensor_dims=(64, 48))
    narrow = [long[0], long[1].truncated(s_len + 1), long[2].truncated(s_len), unlabeled,
              long[3].truncated(max(s_len // 2, 1)), long[3]]
    wide = [wide, wide.truncated(s_len + 1), wide.truncated(3), wide.truncated(s_len)]
    stats = TimeStats(dq=77.0, dmax=1.5)
    for rows in (narrow, wide):  # one batch per sensor
        for sequences in (rows, rows[::-1]):
            rng, ref_rng = np.random.default_rng(s_len), np.random.default_rng(s_len)
            batch = make_batch(sequences, s_len, stats, rng)
            inputs, dtaus, labels = _per_row_batch(sequences, s_len, stats, ref_rng)
            assert np.array_equal(batch.inputs, inputs)
            assert np.array_equal(batch.dtaus, dtaus)
            assert np.array_equal(batch.labels, labels)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_make_batch_refuses_mixed_sensors_and_empty_sequences():
    narrow = moving_dot(0, seed=1, n_events=50)
    wide = moving_dot(1, seed=2, n_events=50, sensor_dims=(64, 48))
    empty = narrow.truncated(0)
    stats = TimeStats(dq=100.0)
    for sequences in ([narrow, wide], [wide, narrow], [narrow, empty], [empty]):
        with pytest.raises(ValueError):
            make_batch(sequences, 10, stats, np.random.default_rng(0))


def test_an_empty_list_gives_an_empty_batch():
    batch = make_batch([], 10, TimeStats(dq=100.0), np.random.default_rng(0))
    assert batch.inputs.shape == (0, 10, 3) and batch.dtaus.shape == (0, 10)
    assert batch.labels.shape == (0,) and batch.labels.dtype == np.int64
