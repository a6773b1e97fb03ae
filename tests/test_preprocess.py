import numpy as np
import pytest

from inode.errors import DatasetError
from inode.events import Dataset, Event, EventSequence
from inode.preprocess import (
    TimeStats, clamped_input, compute_dq, make_batch, normalize_dt, normalize_sequence,
    sample_subsequence,
)


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
    v, clamped = clamped_input(Event(99, 2, 1, 0), (34, 34))
    assert clamped
    assert np.array_equal(v, clamped_input(Event(33, 2, 1, 0), (34, 34))[0])


def _labeled_sequence(n, label=1, gap=100):
    rng = np.random.default_rng(2)
    return EventSequence(
        rng.integers(0, 34, n), rng.integers(0, 34, n), rng.integers(0, 2, n),
        np.arange(n) * gap, label=label)


def test_sample_offset_forced_to_zero_when_tight():
    seq = _labeled_sequence(11)
    stats = TimeStats(dq=100.0)
    inputs, dtaus = sample_subsequence(seq, 10, np.random.default_rng(0), stats)
    assert np.array_equal(inputs, normalize_sequence(seq)[:10])
    assert dtaus.shape == (10,)


def test_sampled_steps_stay_in_range():
    seq = _labeled_sequence(500, gap=333)
    stats = TimeStats(dq=50.0, dmax=1.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        _, dtaus = sample_subsequence(seq, 64, rng, stats)
        assert np.all(dtaus >= 0.0) and np.all(dtaus <= 1.0)


def test_sampling_is_deterministic_under_seed():
    seq = _labeled_sequence(300)
    stats = TimeStats(dq=100.0)
    a = sample_subsequence(seq, 50, np.random.default_rng(7), stats)
    b = sample_subsequence(seq, 50, np.random.default_rng(7), stats)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_short_sequence_padded_by_holding_last_event():
    seq = _labeled_sequence(4)
    stats = TimeStats(dq=100.0)
    inputs, dtaus = sample_subsequence(seq, 10, np.random.default_rng(0), stats)
    feats = normalize_sequence(seq)
    assert np.array_equal(inputs[:4], feats)
    assert np.all(inputs[4:] == feats[-1])
    assert np.all(dtaus[3:] == 0.0)
    assert np.all(dtaus[:3] == 1.0)  # gap == dq


def test_sampling_never_fabricates_events():
    seq = _labeled_sequence(200)
    stats = TimeStats(dq=100.0)
    feats = {tuple(row) for row in normalize_sequence(seq)}
    inputs, _ = sample_subsequence(seq, 60, np.random.default_rng(5), stats)
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
