import numpy as np
import pytest

from inode.preprocess import normalize_sequence
from inode.synth import DIRECTIONS, moving_dot, moving_dot_dataset, scale_coordinates


def test_same_arguments_give_identical_sequences():
    a = moving_dot(1, seed=42, n_events=500, noise_rate=0.1)
    b = moving_dot(1, seed=42, n_events=500, noise_rate=0.1)
    for field in ("xs", "ys", "ps", "ts"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_different_seeds_differ():
    a = moving_dot(0, seed=1, n_events=500)
    b = moving_dot(0, seed=2, n_events=500)
    assert not np.array_equal(a.ts, b.ts)


def test_class_zero_drifts_rightward():
    seq = moving_dot(0, seed=7, n_events=1000, noise_rate=0.0)
    k = len(seq) // 10
    assert seq.xs[-k:].mean() > seq.xs[:k].mean()


def test_class_one_drifts_leftward():
    seq = moving_dot(1, seed=7, n_events=1000, noise_rate=0.0)
    k = len(seq) // 10
    assert seq.xs[-k:].mean() < seq.xs[:k].mean()


def test_single_event():
    seq = moving_dot(0, seed=0, n_events=1)
    assert len(seq) == 1
    assert seq.ts[0] >= 0


def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        moving_dot(len(DIRECTIONS), seed=0, n_events=10)
    with pytest.raises(ValueError):
        moving_dot(-1, seed=0, n_events=10)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        moving_dot(0, seed=0, n_events=0)
    with pytest.raises(ValueError):
        moving_dot(0, seed=0, n_events=10, noise_rate=1.5)


def test_timestamps_non_decreasing_and_bounded():
    seq = moving_dot(4, seed=3, n_events=2000, noise_rate=0.3)
    assert np.all(np.diff(seq.ts) >= 0)
    w, h = seq.sensor_dims
    assert seq.xs.min() >= 0 and seq.xs.max() < w
    assert seq.ys.min() >= 0 and seq.ys.max() < h
    # mean inter-event gap sits near 100 us
    assert 80 < np.diff(seq.ts).mean() < 120


def test_mean_polarity_balanced():
    seq = moving_dot(2, seed=5, n_events=4000, noise_rate=0.0)
    assert 0.4 < seq.ps.mean() < 0.6


def test_dataset_builder_balanced_and_labeled():
    ds = moving_dot_dataset(3, per_class=4, seed=6, n_events=50)
    assert len(ds) == 12
    assert ds.class_count == 3
    counts = np.bincount([seq.label for seq in ds], minlength=3)
    assert list(counts) == [4, 4, 4]


def test_scaled_coordinates_preserve_normalized_inputs():
    seq = moving_dot(0, seed=9, n_events=300, noise_rate=0.2)
    doubled = scale_coordinates(seq, 2)
    assert doubled.sensor_dims == (67, 67)
    assert np.array_equal(doubled.xs, 2 * seq.xs)
    a = normalize_sequence(seq)
    b = normalize_sequence(doubled)
    assert np.array_equal(a, b)  # bit-identical features


def test_all_patterns_generate():
    for c in range(len(DIRECTIONS)):
        seq = moving_dot(c, seed=1, n_events=200)
        assert len(seq) == 200
        assert seq.label == c
