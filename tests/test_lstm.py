import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import (central_difference, lstm_ops, lstm_ops_forward, max_rel_err,
                     observed_rows, ops_gradients)
from inode import engine as en
from inode import lstm
from inode.preprocess import Batch, TimeStats, make_batch
from inode.synth import moving_dot


def _store(seed=0, n_classes=3, hidden=5, bidirectional=False):
    return lstm.init_params(np.random.default_rng(seed), n_classes, hidden=hidden,
                            bidirectional=bidirectional)


def _batch(seed=0, b=2, s=5, n_classes=3):
    rng = np.random.default_rng(seed)
    return Batch(
        inputs=rng.uniform(-1, 1, (b, s, 3)),
        dtaus=rng.uniform(0, 1, (b, s)),
        labels=rng.integers(0, n_classes, b),
    )


def test_zero_weights_give_zero_hidden_state():
    store = _store()
    for name in store.names():
        store[name][:] = 0.0
    state = (np.zeros((2, 5)), np.zeros((2, 5)))
    h, c = lstm._Cell(store, "fwd", 2).step(state, np.ones((2, 4)))
    assert np.array_equal(h, np.zeros((2, 5)))
    assert np.array_equal(c, np.zeros((2, 5)))


def test_saturated_forget_gate_preserves_cell():
    store = _store(seed=1)
    for name in store.names():
        if name.startswith("fwd_"):
            store[name][:] = 0.0
    store["fwd_bf"][:] = 10.0
    c0 = np.random.default_rng(2).uniform(-1, 1, (3, 5))
    _, c1 = lstm._Cell(store, "fwd", 3).step((np.zeros((3, 5)), c0), np.ones((3, 4)))
    assert np.abs(c1 - c0).max() < 1e-4


def test_gradients_match_finite_differences():
    store = _store(seed=3)
    batch = _batch(seed=4)
    grads, _ = lstm.backward_bptt(batch, store)
    fd = central_difference(lambda: lstm.forward(batch, store).loss, store)
    assert max_rel_err(grads, fd) < 1e-5


def test_bidirectional_gradients_match_finite_differences():
    store = _store(seed=5, bidirectional=True, hidden=4)
    batch = _batch(seed=6, s=4)
    grads, _ = lstm.backward_bptt(batch, store)
    fd = central_difference(lambda: lstm.forward_bidirectional(batch, store).loss, store)
    assert max_rel_err(grads, fd) < 1e-5


def test_single_step_window_equals_one_cell_application():
    store = _store(seed=7)
    batch = _batch(seed=8, s=1)
    res = lstm.forward(batch, store)
    feats = batch.features_with_dt()
    h, _ = lstm._Cell(store, "fwd", 2).step((np.zeros((2, 5)), np.zeros((2, 5))), feats[:, 0, :])
    z = lstm.classify(h, store)
    assert np.array_equal(res.logits[:, 0, :], z)


def test_bidirectional_palindrome_symmetry():
    store = _store(seed=9, bidirectional=True)
    # a palindromic constant sequence reads the same in both directions
    full = np.tile(np.array([0.3, -0.2, 1.0, 0.5]), (2, 6, 1))
    fwd = (np.zeros((2, 5)), np.zeros((2, 5)))
    bwd = (np.zeros((2, 5)), np.zeros((2, 5)))
    cell = lstm._Cell(store, "fwd", 2).step
    for i in range(6):
        fwd = cell(fwd, full[:, i, :])
        bwd = cell(bwd, full[:, 5 - i, :])
    assert np.abs(fwd[0] - bwd[0]).max() < 1e-12


def test_recurrent_core_parameter_count():
    store = lstm.init_params(np.random.default_rng(10), n_classes=10, hidden=72)
    core = store.total_scalars("fwd_")
    assert core == 4 * (72 * (4 + 72) + 72)  # 22,176
    assert lstm.hidden_dim_of(store) == 72


def test_online_equals_batched_prefix_bitwise():
    stats = TimeStats(dq=100.0)
    store = _store(seed=11, n_classes=2, hidden=6)
    seq = moving_dot(1, seed=12, n_events=120, noise_rate=0.1)
    s = 25
    rng = np.random.default_rng(13)
    batch = make_batch([seq.truncated(s + 1)], s, stats, rng)
    res = lstm.forward(batch, store)
    online = lstm.OnlineLstm(store, stats, seq.sensor_dims)
    for i in range(s):
        pred, posterior = online.observe(seq.event(i))
        assert np.array_equal(posterior, en.softmax(res.logits[0, i:i + 1], axis=1)[0])


@pytest.mark.parametrize("hidden", [5, 6, 7, 72])
def test_replay_rows_equal_observe_bitwise(hidden):
    store = _store(seed=30 + hidden, n_classes=4, hidden=hidden)
    seq = moving_dot(3, seed=hidden, n_events=1000, noise_rate=0.2)
    stats = TimeStats(dq=100.0)
    want = observed_rows(lstm.OnlineLstm(store, stats, seq.sensor_dims), seq, range(len(seq)))
    fresh = lstm.OnlineLstm(store, stats, seq.sensor_dims)
    # a session whose buffers and cell scratch hold another recording's values
    used = lstm.OnlineLstm(store, stats, seq.sensor_dims)
    observed_rows(used, moving_dot(1, seed=hidden + 1, n_events=300), range(300))
    used.reset()
    # chunks around fast_replay's default of 256 events
    for session, chunk in itertools.product((fresh, used), (1, 128, 255, 256, 300, 4096)):
        before = [buffer.copy() for buffer in session.state]
        chunks = [list(rows) for rows in session.replay(seq, chunk=chunk)]
        assert all(map(np.array_equal, session.state, before))
        assert [len(rows) for rows in chunks] == [chunk] * (1000 // chunk) + (
            [1000 % chunk] if 1000 % chunk else [])
        got = [row for rows in chunks for row in rows]
        assert len(got) == len(want)
        for (t, pred, posterior), (want_t, want_pred, want_posterior) in zip(got, want):
            assert (t, pred) == (want_t, want_pred)
            assert np.array_equal(posterior, want_posterior)


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("hidden", [5, 6, 7, 30, 72])
def test_broadcast_matmul_rows_equal_single_row_dot_bitwise(hidden):
    """The replays rest on this property of numpy's matmul over its BLAS:
    a broadcast product over a stack runs one single-row product per item,
    with the bits of that row's own ``np.dot``."""
    rng = np.random.default_rng(hidden)
    w4 = rng.uniform(-1, 1, (4, lstm.INPUT_DIM, hidden))  # the input gate stack
    u4 = rng.uniform(-1, 1, (4, hidden, hidden))           # the recurrent gate stack
    for m in (1, 7, 255, 256):  # the input block of a replay, or observe's one event
        feats = rng.uniform(-1, 1, (m, lstm.INPUT_DIM))
        proj = np.empty((m, 4, 1, hidden))
        np.matmul(feats[:, None, None, :], w4, out=proj)
        for r in range(m):
            for k in range(4):
                assert _bits_equal(proj[r, k], np.dot(feats[r:r + 1], w4[k]))
    h = rng.uniform(-1, 1, (1, hidden))
    z = np.empty((4, 1, hidden))
    np.matmul(h, u4, out=z)
    for k in range(4):
        assert _bits_equal(z[k], np.dot(h, u4[k]))
    for n_classes in (2, 4, 10):  # the read-out of a block or chunk of states
        wc = rng.uniform(-1, 1, (hidden, n_classes))
        for m in (1, 7, 256, 4096):
            states = rng.uniform(-1, 1, (m, hidden))
            logits = np.empty((m, 1, n_classes))
            np.matmul(states[:, None, :], wc, out=logits)
            for r in range(m):
                assert _bits_equal(logits[r], np.dot(states[r:r + 1], wc))


def test_reset_session_equals_fresh_session_bitwise():
    store = _store(seed=31, n_classes=3, hidden=7)
    stats = TimeStats(dq=100.0)
    seq = moving_dot(1, seed=32, n_events=1000, noise_rate=0.1)
    used = lstm.OnlineLstm(store, stats, seq.sensor_dims)
    observed_rows(used, seq, range(500))
    used.reset()
    fresh = lstm.OnlineLstm(store, stats, seq.sensor_dims)
    for (t, pred, posterior), (want_t, want_pred, want_posterior) in zip(
            observed_rows(used, seq, range(500, 1000)),
            observed_rows(fresh, seq, range(500, 1000))):
        assert (t, pred) == (want_t, want_pred)
        assert np.array_equal(posterior, want_posterior)


def test_bidirectional_refuses_online():
    store = _store(seed=14, bidirectional=True)
    stats = TimeStats(dq=100.0)
    try:
        lstm.OnlineLstm(store, stats, (34, 34))
    except ValueError:
        return
    raise AssertionError("bidirectional model must not run online")


def test_training_runs_are_bit_reproducible():
    from inode.optim import AdamState, adam_step

    def run():
        store = _store(seed=15, n_classes=2, hidden=4)
        adam = AdamState(store, lr=1e-3)
        rng = np.random.default_rng(16)
        seqs = [moving_dot(i % 2, seed=i, n_events=80) for i in range(6)]
        stats = TimeStats(dq=100.0)
        for _ in range(3):
            batch = make_batch(seqs, 10, stats, rng)
            grads, _ = lstm.backward_bptt(batch, store)
            adam_step(store, grads, adam)
        return store

    a, b = run(), run()
    for name in a.names():
        assert np.array_equal(a[name], b[name])


def _paper_batch(seed=0, b=100, s=100, n_classes=10):
    rng = np.random.default_rng(seed)
    return Batch(inputs=rng.uniform(-1, 1, (b, s, 3)), dtaus=rng.uniform(0, 1, (b, s)),
                 labels=rng.integers(0, n_classes, b))


@pytest.mark.parametrize("case", ["plain", "bidirectional", "one_step", "zero_weights"])
def test_fused_cell_gradients_equal_generic_tape(case):
    store = _store(seed=17, hidden=6, bidirectional=case == "bidirectional")
    rng = np.random.default_rng(18)
    for name in store.names():
        store[name][:] = 0.0 if case == "zero_weights" else rng.uniform(-0.8, 0.8, store[name].shape)
    batch = _batch(seed=19, b=5, s=1 if case == "one_step" else 7)
    fused, fused_loss = lstm.backward_bptt(batch, store)
    generic, generic_loss = ops_gradients(lstm_ops_forward, batch, store)
    assert fused_loss == generic_loss
    assert list(fused) == list(generic)
    assert sorted(fused) == sorted(store.names())
    for name, want in generic.items():
        scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
        assert np.abs(fused[name] - want).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("bidirectional", [False, True])
def test_fused_cell_forward_equals_generic_ops_bitwise(bidirectional):
    store = _store(seed=20, n_classes=10, hidden=72, bidirectional=bidirectional)
    batch = _paper_batch(seed=21, b=20, s=30)
    run = lstm.forward_bidirectional if bidirectional else lstm.forward
    fused = run(batch, store, tape=en.Tape())
    generic = lstm_ops_forward(batch, store, en.Tape())
    assert np.array_equal(fused.logits, generic.logits)
    assert fused.loss == generic.loss
    assert np.array_equal(fused.logits, run(batch, store).logits)
    assert np.array_equal(fused.logits, lstm_ops_forward(batch, store).logits)


@pytest.mark.parametrize("hidden, bidirectional", [(5, False), (72, False), (6, True)])
def test_fused_cell_with_biases_equals_generic_ops_bitwise(hidden, bidirectional):
    store = _store(seed=26, n_classes=10, hidden=hidden, bidirectional=bidirectional)
    rng = np.random.default_rng(27)
    for name in store.names():  # biases too, which a fresh store leaves at zero
        store[name][:] = rng.uniform(-0.8, 0.8, store[name].shape)
    batch = _paper_batch(seed=28, b=20, s=30)
    fused = lstm.forward(batch, store, tape=en.Tape())
    generic = lstm_ops_forward(batch, store, en.Tape())
    assert np.array_equal(fused.logits, generic.logits)
    assert fused.loss == generic.loss
    # a single row takes the online session's path through the cell
    row = batch.features_with_dt()[:1]
    fused = generic = (np.zeros((1, hidden)), np.zeros((1, hidden)))
    cell = lstm._Cell(store, "fwd", 1).step
    for i in range(row.shape[1]):
        fused = cell(fused, row[:, i, :])
        generic = lstm_ops(generic, row[:, i, :], store)
    assert np.array_equal(fused[0], generic[0])
    assert np.array_equal(fused[1], generic[1])


def test_paper_batch_records_two_nodes_per_cell_step():
    store = _store(seed=22, n_classes=10, hidden=72)
    tape = en.Tape()
    lstm.forward(_paper_batch(seed=23), store, tape=tape)
    assert len(tape.nodes) <= 700


def test_paper_batch_bptt_peak_memory():
    store = _store(seed=24, n_classes=10, hidden=72)
    batch = _paper_batch(seed=25)
    tracemalloc.start()
    try:
        lstm.backward_bptt(batch, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"
