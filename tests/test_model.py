import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (central_difference, inode_ops_forward, large_blocks, max_rel_err,
                     observed_rows, ops_gradients, read_out)
from inode import engine as en
from inode import model
from inode.preprocess import Batch, TimeStats, make_batch, normalize_dt, normalize_sequence
from inode.synth import moving_dot, moving_dot_dataset, scale_coordinates


def _tiny_store(seed=0, n_classes=3, state_dim=4, width=6):
    return model.init_params(np.random.default_rng(seed), n_classes,
                             state_dim=state_dim, width=width)


def _tiny_batch(seed=0, b=2, s=5, n_classes=3):
    rng = np.random.default_rng(seed)
    return Batch(
        inputs=rng.uniform(-1, 1, (b, s, 3)),
        dtaus=rng.uniform(0, 1, (b, s)),
        labels=rng.integers(0, n_classes, b),
    )


def test_f_eval_zero_params_gives_zero():
    store = _tiny_store()
    for name in store.names():
        store[name][:] = 0.0
    out = model.f_eval(np.ones((3, 4)), np.ones((3, 3)), store)
    assert np.array_equal(out, np.zeros((3, 4)))


def test_f_eval_output_shape():
    store = _tiny_store()
    for b in (1, 2, 17):
        out = model.f_eval(np.zeros((b, 4)), np.zeros((b, 3)), store)
        assert out.shape == (b, 4)


def _f_scalar(h_row, u_row, store):
    """Straight-line scalar re-implementation of the dynamics for one row."""
    def fc(vec, w, b):
        return [sum(vec[i] * w[i, j] for i in range(len(vec))) + b[0, j]
                for j in range(w.shape[1])]

    left = fc(h_row, store["fc1_w"], store["fc1_b"])
    right = fc(u_row, store["fcu_w"], store["fcu_b"])
    hidden = [math.tanh(v) for v in left + right]
    hidden = [math.tanh(v) for v in fc(hidden, store["fc2_w"], store["fc2_b"])]
    return np.array(fc(hidden, store["fc3_w"], store["fc3_b"]))


def test_f_eval_matches_scalar_reimplementation():
    store = _tiny_store(seed=5)
    rng = np.random.default_rng(6)
    for _ in range(5):
        h = rng.uniform(-1, 1, 4)
        u = rng.uniform(-1, 1, 3)
        fast = model.f_eval(h[None, :], u[None, :], store)[0]
        slow = _f_scalar(list(h), list(u), store)
        assert np.abs(fast - slow).max() < 1e-12


def test_euler_step_zero_dtau_is_identity():
    store = _tiny_store()
    h = np.random.default_rng(1).uniform(-1, 1, (2, 4))
    out = model.euler_step(h, np.zeros((2, 3)), np.zeros((2, 1)), store)
    assert np.array_equal(out, h)


def test_euler_step_zero_dynamics_is_identity():
    store = _tiny_store()
    for name in store.names():
        store[name][:] = 0.0
    h = np.random.default_rng(2).uniform(-1, 1, (2, 4))
    out = model.euler_step(h, np.ones((2, 3)), np.full((2, 1), 0.7), store)
    assert np.array_equal(out, h)


def test_euler_step_scalar_probe():
    store = _tiny_store()
    forced = lambda h, u, s, t=None: np.full_like(h, 2.0)
    out = model.euler_step(np.ones((1, 4)), np.zeros((1, 3)), np.full((1, 1), 0.5),
                           store, dynamics=forced)
    assert np.all(out == 2.0)


def test_linear_dynamics_match_growth_factor():
    store = _tiny_store()
    a, dtau, n = 0.31, 0.01, 200
    lin = lambda h, u, s, t=None: en.scale(h, a)
    h = np.full((1, 4), 0.5)
    dt = np.full((1, 1), dtau)
    for _ in range(n):
        h = model.euler_step(h, np.zeros((1, 3)), dt, store, dynamics=lin)
    assert np.abs(h - 0.5 * (1 + a * dtau) ** n).max() < 1e-12


def test_untrained_loss_near_log_c():
    batch = _tiny_batch(b=16, s=6, n_classes=3)
    store = _tiny_store(seed=11)
    res = model.forward(batch, store)
    assert abs(res.loss - np.log(3)) < 0.1 * np.log(3)


def test_loss_at_init_within_ten_percent_over_100_seeds():
    batch = _tiny_batch(seed=13, b=8, s=4, n_classes=3)
    target = np.log(3)
    for seed in range(100):
        store = _tiny_store(seed=seed)
        assert abs(model.forward(batch, store).loss - target) < 0.1 * target


def test_s_equals_one_reduces_to_single_step():
    store = _tiny_store(seed=3)
    batch = _tiny_batch(seed=4, b=3, s=1)
    res = model.forward(batch, store)
    h = model.euler_step(np.zeros((3, 4)), batch.inputs[:, 0, :], batch.dtaus[:, :1], store)
    z = read_out(h, store)
    assert np.array_equal(res.logits[:, 0, :], z)
    loss, _ = en.softmax_cross_entropy(z, batch.labels)
    assert float(loss) == res.loss


def test_batched_forward_equals_per_sample_loop():
    store = _tiny_store(seed=8)
    batch = _tiny_batch(seed=9, b=6, s=7)
    res = model.forward(batch, store)
    losses = []
    for i in range(batch.size):
        single = Batch(batch.inputs[i:i + 1], batch.dtaus[i:i + 1], batch.labels[i:i + 1])
        one = model.forward(single, store)
        assert np.abs(one.logits[0] - res.logits[i]).max() < 1e-12
        losses.append(one.loss)
    assert abs(np.mean(losses) - res.loss) < 1e-12


def test_bptt_matches_finite_differences():
    store = _tiny_store(seed=21)
    batch = _tiny_batch(seed=22)
    grads, _ = model.backward_bptt(batch, store)
    fd = central_difference(lambda: model.forward(batch, store).loss, store)
    assert max_rel_err(grads, fd) < 1e-5


def test_learnable_h0_receives_gradient():
    store = model.init_params(np.random.default_rng(0), 3, state_dim=4, width=6,
                              learnable_h0=True)
    batch = _tiny_batch(seed=23)
    grads, _ = model.backward_bptt(batch, store)
    assert "h0" in grads
    assert not np.allclose(grads["h0"], 0)
    fd = central_difference(lambda: model.forward(batch, store).loss, store, names=["h0"])
    assert max_rel_err({"h0": grads["h0"]}, fd) < 1e-5


def test_zero_steps_freeze_dynamics_gradients():
    store = _tiny_store(seed=31)
    batch = _tiny_batch(seed=32)
    frozen = Batch(batch.inputs, np.zeros_like(batch.dtaus), batch.labels)
    grads, _ = model.backward_bptt(frozen, store)
    for name in ("fc1_w", "fc1_b", "fcu_w", "fcu_b", "fc2_w", "fc2_b", "fc3_w", "fc3_b"):
        assert np.allclose(grads[name], 0.0), name
    # the state never leaves zero, so only the classifier bias keeps training
    assert np.allclose(grads["fcc_w"], 0.0)
    assert not np.allclose(grads["fcc_b"], 0.0)


def _paper_batch(seed=0, b=100, s=100, n_classes=10):
    rng = np.random.default_rng(seed)
    return Batch(inputs=rng.uniform(-1, 1, (b, s, 3)), dtaus=rng.uniform(0, 1, (b, s)),
                 labels=rng.integers(0, n_classes, b))


@pytest.mark.parametrize("case", ["plain", "learnable_h0", "zero_dtaus", "one_step"])
def test_fused_step_gradients_equal_generic_tape(case):
    store = model.init_params(np.random.default_rng(91), 3, state_dim=4, width=6,
                              learnable_h0=case == "learnable_h0")
    rng = np.random.default_rng(92)
    for name in store.names():
        store[name][:] = rng.uniform(-0.5, 0.5, store[name].shape)
    batch = _tiny_batch(seed=93, b=5, s=1 if case == "one_step" else 7)
    if case == "zero_dtaus":
        batch = Batch(batch.inputs, np.zeros_like(batch.dtaus), batch.labels)
    fused, fused_loss = model.backward_bptt(batch, store)
    generic, generic_loss = ops_gradients(inode_ops_forward, batch, store)
    assert fused_loss == generic_loss
    assert sorted(fused) == sorted(generic) == sorted(store.names())
    for name, want in generic.items():
        scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
        assert np.abs(fused[name] - want).max() <= 1e-12 * scale, name


def test_fused_step_forward_equals_generic_ops_bitwise():
    store = model.init_params(np.random.default_rng(94), n_classes=10)
    batch = _paper_batch(seed=95, b=20, s=30)
    fused = model.forward(batch, store, tape=en.Tape())
    generic = inode_ops_forward(batch, store, en.Tape())
    assert np.array_equal(fused.logits, generic.logits)
    assert np.array_equal(fused.logits, model.forward(batch, store).logits)


def test_paper_batch_records_one_node_per_euler_step():
    """Each step records its Euler step and its read-out, the read-out's
    cross-entropy and the loss sum fused in one node; add the start state,
    the ten weights and the mean's scale."""
    store = model.init_params(np.random.default_rng(96), n_classes=10)
    tape = en.Tape()
    model.forward(_paper_batch(seed=97), store, tape=tape)
    assert len(tape.nodes) == 2 * 100 + 1 + 10 + 1


@pytest.mark.parametrize("table", [True, False], ids=["table", "per_step"])
def test_traced_window_keeps_a_number_of_large_blocks_that_does_not_grow_with_s(table):
    """A traced pass allocates its steps' arrays once, as [S x B x ...]
    blocks whose rows the tape keeps, so the blocks of 64 KB or more that
    it leaves are as many at S = 100 as at S = 50 (B = 200 puts every
    per-window array of S = 50 over 64 KB)."""
    store = model.init_params(np.random.default_rng(119), n_classes=4)

    def blocks(s):
        batch = (_dot_batch(200, s, seed=120) if table
                 else _paper_batch(seed=120, b=200, s=s, n_classes=4))
        assert (model._Step(store).tabulate(batch.inputs, traced=False) is None) != table
        return large_blocks(lambda: (tape := en.Tape(), model.forward(batch, store, tape=tape)))

    assert 0 < blocks(100) <= blocks(50)


def test_paper_batch_bptt_peak_memory():
    store = model.init_params(np.random.default_rng(98), n_classes=10)
    batch = _paper_batch(seed=99)
    tracemalloc.start()
    try:
        model.backward_bptt(batch, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 42 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def _dot_batch(b, s, seed):
    """A [b x s] window of 34 x 34 moving dots, pixel-valued as in training."""
    data = moving_dot_dataset(4, -(-b // 4), seed=seed, n_events=s + 40)
    return make_batch(data.sequences[:b], s, TimeStats(dq=100.0), np.random.default_rng(seed))


def test_paper_batch_of_pixels_bptt_peak_memory():
    """The projection table of a pixel-valued window stays inside the
    bound of the per-step path."""
    store = model.init_params(np.random.default_rng(98), n_classes=10)
    batch = _dot_batch(100, 100, seed=99)
    assert model._Step(store).tabulate(batch.inputs, traced=True) is not None
    tracemalloc.start()
    try:
        model.backward_bptt(batch, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 42 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def _assert_table_equals_per_step(batch, store, monkeypatch, gradients=True):
    """Untraced and traced logits and BPTT gradients of the window table
    equal those of per-step projections bit for bit."""
    def passes():
        tape = en.Tape()
        traced = model.forward(batch, store, tape=tape)
        return (model.forward(batch, store).logits, traced.logits,
                model.gradients(tape, traced)[0] if gradients else {})

    table = passes()
    with monkeypatch.context() as patch:
        patch.setattr(model, "_TABLE_ROWS", 0)
        assert model._Step(store).tabulate(batch.inputs, traced=False) is None
        per_step = passes()
    assert np.array_equal(table[0], per_step[0])
    assert np.array_equal(table[1], per_step[1])
    assert table[2].keys() == per_step[2].keys()
    assert all(np.array_equal(table[2][name], per_step[2][name]) for name in table[2])


@pytest.mark.parametrize("b, s", itertools.product((1, 2, 100), (1, 10, 100)))
def test_window_table_equals_per_step_projection_bitwise(b, s, monkeypatch):
    """Pins the BLAS property the table rests on: a row of a product has
    the bits it has in a product over any other number of rows (two or
    more), and a broadcast single-row product those of its own."""
    store = model.init_params(np.random.default_rng(110 + b + s), n_classes=4)
    batch = _dot_batch(b, s, seed=b * s)
    assert model._Step(store).tabulate(batch.inputs, traced=False) is not None
    _assert_table_equals_per_step(batch, store, monkeypatch)


def test_window_of_one_distinct_row_equals_per_step_projection_bitwise(monkeypatch):
    """A lone distinct row of a several-row window is projected by a
    several-row product, as its steps project it."""
    store = model.init_params(np.random.default_rng(113), n_classes=3)
    rng = np.random.default_rng(114)
    batch = Batch(np.broadcast_to(rng.uniform(-1, 1, 3), (3, 7, 3)).copy(),
                  rng.uniform(0, 1, (3, 7)), np.array([0, 1, 2]))
    _assert_table_equals_per_step(batch, store, monkeypatch)


@pytest.mark.parametrize("extra", [0, 1])
def test_window_table_at_and_past_the_cap(extra, monkeypatch):
    """A window of exactly ``_TABLE_ROWS`` distinct rows is tabulated, one
    more distinct row sends every step to its own projection, and both
    give the per-step logits bit for bit."""
    cap = model._TABLE_ROWS
    store = model.init_params(np.random.default_rng(115), n_classes=3)
    rng = np.random.default_rng(116)
    b, s = 64, -(-(cap + extra) // 64)
    rows = rng.uniform(-1, 1, (b * s, 3))
    rows[cap + extra:] = rows[:b * s - cap - extra]  # repeats, not new rows
    batch = Batch(rows.reshape(b, s, 3), rng.uniform(0, 1, (b, s)), rng.integers(0, 3, b))
    tabulated = model._Step(store).tabulate(batch.inputs, traced=False)
    assert (tabulated is None) == bool(extra)
    _assert_table_equals_per_step(batch, store, monkeypatch, gradients=False)


def test_rows_sharing_a_key_fall_back_to_per_step_projection(monkeypatch):
    """Distinct rows whose mixed keys collide are caught by the exact
    check and leave the window to per-step projections."""
    store = model.init_params(np.random.default_rng(117), n_classes=3)
    batch = _tiny_batch(seed=118, b=4, s=6)
    want = model.forward(batch, store).logits
    monkeypatch.setattr(model, "_MIX", np.zeros(3, dtype=np.uint64))
    assert model._Step(store).tabulate(batch.inputs, traced=False) is None
    assert np.array_equal(model.forward(batch, store).logits, want)


def test_doubling_loss_scale_doubles_gradients():
    store = _tiny_store(seed=41)
    batch = _tiny_batch(seed=42)
    tape = en.Tape()
    res = model.forward(batch, store, tape=tape)
    doubled = en.scale(res.loss_node, 2.0)
    g1 = en.backward(tape, res.loss_node)
    g2 = en.backward(tape, doubled)
    for name in g1:
        assert np.array_equal(g2[name], 2.0 * g1[name])


def _window_batch(seq, start, s, stats):
    feats = normalize_sequence(seq)
    return Batch(
        feats[start:start + s][None],
        normalize_dt(np.diff(seq.ts[start:start + s + 1]), stats)[None],
        np.array([seq.label]),
    )


@pytest.mark.parametrize("learnable_h0", [False, True], ids=["zero_h0", "h0"])
@pytest.mark.parametrize("state_dim", [1, 4, 30])
@pytest.mark.parametrize("width", [1, 6, 128, 130])
def test_online_matches_offline_bitwise(width, state_dim, learnable_h0):
    """A one-row window's steps and ``observe`` run one step body on
    [1 x n] blocks and on 1-D rows: every step's read-out agrees."""
    stats = TimeStats(dq=100.0)
    store = model.init_params(np.random.default_rng(51), n_classes=2, state_dim=state_dim,
                              width=width, learnable_h0=learnable_h0)
    if learnable_h0:
        store["h0"][:] = np.random.default_rng(50).uniform(-1, 1, (1, state_dim))
    rng = np.random.default_rng(52)
    for trial in range(5):
        seq = moving_dot(trial % 2, seed=trial, n_events=200, noise_rate=0.1)
        s = 30
        start = int(rng.integers(0, len(seq) - s))
        batch = _window_batch(seq, start, s, stats)
        res = model.forward(batch, store)
        clf = model.OnlineClassifier(store, stats, seq.sensor_dims)
        last = clf.observe(seq.event(start))
        for k, i in enumerate(range(start + 1, start + s + 1)):
            last = clf.observe(seq.event(i))
            assert np.array_equal(read_out(clf.state, store)[0], res.logits[0, k])
        assert np.array_equal(last[1], en.softmax(res.logits[0, -1:], axis=1)[0])


@pytest.mark.parametrize("dq, dmax", [(100.0, 1.0), (37.5, 2.5), (1234.5, 0.25),
                                     (3.0, math.inf)])
def test_session_gap_equals_normalize_dt_bitwise(dq, dmax):
    from inode.events import Event
    stats = TimeStats(dq=dq, dmax=dmax)
    clf = model.OnlineClassifier(model.init_params(np.random.default_rng(53), 2), stats, (34, 34))
    cap = int(dq * min(dmax, 1e6))
    for dt in (0, 1, int(dq) - 1, int(dq), cap, cap + 1, 1000 * cap + 7, 2 ** 53 + 1, 2 ** 63 - 1):
        clf.reset()
        assert clf._gap(Event(0, 0, 0, 0)) == 0.0
        gap = clf._gap(Event(0, 0, 0, dt))
        assert type(gap) is float
        assert np.float64(gap).tobytes() == normalize_dt(dt, stats).tobytes(), dt


def test_online_posterior_sums_to_one():
    stats = TimeStats(dq=100.0)
    store = model.init_params(np.random.default_rng(61), n_classes=5)
    seq = moving_dot(3, seed=6, n_events=50)
    clf = model.OnlineClassifier(store, stats, seq.sensor_dims)
    for event in seq:
        _, posterior = clf.observe(event)
        assert abs(posterior.sum() - 1.0) < 1e-12


def _assert_replay_rows_equal_observe(store, seq, other):
    """Replays of fresh and used-then-reset sessions at every chunk size
    give ``observe``'s rows bit for bit and leave the session's state as
    it was; ``other`` is a recording that the used session observed."""
    stats, n = TimeStats(dq=100.0), len(seq)
    want = observed_rows(model.OnlineClassifier(store, stats, seq.sensor_dims), seq, range(n))
    fresh = model.OnlineClassifier(store, stats, seq.sensor_dims)
    # a session whose step buffers hold another recording's values
    used = model.OnlineClassifier(store, stats, seq.sensor_dims)
    observed_rows(used, other, range(len(other)))
    used.reset()
    for session, chunk in itertools.product((fresh, used), (1, 255, 256, 300, 4096)):
        before = session.state.copy()
        chunks = [list(rows) for rows in session.replay(seq, chunk=chunk)]
        assert np.array_equal(session.state, before)
        assert [len(rows) for rows in chunks] == [chunk] * (n // chunk) + (
            [n % chunk] if n % chunk else [])
        got = [row for rows in chunks for row in rows]
        assert [row[:2] for row in got] == [row[:2] for row in want], chunk
        assert all(np.array_equal(row[2], want_row[2]) for row, want_row in zip(got, want)), chunk


@pytest.mark.parametrize("state_dim, learnable_h0", [(30, False), (7, True)])
def test_replay_rows_equal_observe_bitwise(state_dim, learnable_h0):
    """The replay takes each pixel and polarity's projection from its
    table and runs the rest of ``observe``'s step per event."""
    rng = np.random.default_rng(70 + state_dim)
    store = model.init_params(rng, 4, state_dim=state_dim, learnable_h0=learnable_h0)
    if learnable_h0:
        store["h0"] = rng.uniform(-0.5, 0.5, store["h0"].shape)
    seq = moving_dot(3, seed=state_dim, n_events=1000, noise_rate=0.2)
    assert 2 * 34 * 34 <= model._TABLE_ROWS
    _assert_replay_rows_equal_observe(store, seq, moving_dot(1, seed=state_dim + 1,
                                                             n_events=300))


def test_replay_past_the_table_cap_equals_observe_bitwise():
    """On a sensor with more pixel-polarity pairs than the table holds,
    pairs share rows, and the replay projects each chunk's pairs that
    their rows do not hold."""
    dims = (346, 260)
    assert 2 * dims[0] * dims[1] > model._TABLE_ROWS
    store = model.init_params(np.random.default_rng(74), 3)
    seq = moving_dot(2, seed=75, n_events=1000, noise_rate=0.2, sensor_dims=dims)
    _assert_replay_rows_equal_observe(store, seq, moving_dot(0, seed=76, n_events=300,
                                                             sensor_dims=dims))


@pytest.mark.parametrize("rows", [1, 7])
def test_replay_with_rows_colliding_in_a_chunk_equals_observe_bitwise(rows, monkeypatch):
    """With a table of a row or a few, the pairs of one chunk share rows."""
    monkeypatch.setattr(model, "_TABLE_ROWS", rows)
    store = model.init_params(np.random.default_rng(96), 3)
    seq = moving_dot(1, seed=97, n_events=600, noise_rate=0.2)
    _assert_replay_rows_equal_observe(store, seq, moving_dot(2, seed=98, n_events=200))


def test_replay_between_observes_keeps_the_held_row(monkeypatch):
    """A replay may evict the row that ``observe`` holds; the session then
    goes on as one that never replayed."""
    monkeypatch.setattr(model, "_TABLE_ROWS", 1)
    store, stats = model.init_params(np.random.default_rng(99), 3), TimeStats(dq=100.0)
    seq = moving_dot(0, seed=100, n_events=300, noise_rate=0.2)
    session, reference = (model.OnlineClassifier(store, stats, (34, 34)) for _ in range(2))
    for online in (session, reference):
        observed_rows(online, seq, range(200))
    for rows in session.replay(moving_dot(3, seed=101, n_events=500, noise_rate=0.2), 256):
        list(rows)
    got, want = (observed_rows(online, seq, range(200, 300)) for online in (session, reference))
    assert [g[:2] for g in got] == [w[:2] for w in want]
    assert all(np.array_equal(g[2], w[2]) for g, w in zip(got, want))
    assert np.array_equal(session.state, reference.state)


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_observe_refuses_a_polarity_other_than_0_or_1(kind):
    """Polarity 2 at (x, y) would alias the key of (x, y + 1) at polarity
    0; the event is refused before any state changes."""
    from inode import lstm
    from inode.events import Event
    stats, rng = TimeStats(dq=100.0), np.random.default_rng(102)
    clf = (model.OnlineClassifier(model.init_params(rng, 3), stats, (34, 34)) if kind == "inode"
           else lstm.OnlineLstm(lstm.init_params(rng, 3, hidden=8), stats, (34, 34)))
    clf.observe(Event(3, 4, 1, 1000))
    with pytest.warns(UserWarning):
        clf.observe(Event(40, 5, 0, 900))  # clamped, and a regression

    def snapshot():
        held = (clf.state, clf._held_p) if kind == "inode" else clf.state
        return [a.tobytes() for a in held], clf.regressions, clf.clamped, clf._last_t

    before = snapshot()
    with pytest.raises(ValueError, match="polarity"):
        clf.observe(Event(0, 0, 2, 800))
    assert snapshot() == before


def _count_projected_rows(monkeypatch):
    """A list that grows by the number of rows of each ``_Step.project`` call."""
    rows, project = [], model._Step.project

    def counted(self, u, *outs):
        rows.append(math.prod(u.shape[:-1]))
        project(self, u, *outs)

    monkeypatch.setattr(model._Step, "project", counted)
    return rows


def test_observe_projects_each_pixel_and_polarity_once_per_session(monkeypatch):
    store = model.init_params(np.random.default_rng(90), 3)
    seq = moving_dot(1, seed=91, n_events=3000, noise_rate=0.2)
    pairs = {event[:3] for event in seq}
    assert seq.sensor_dims == (34, 34) and len(pairs) < len(seq) // 2
    session = model.OnlineClassifier(store, TimeStats(dq=100.0), seq.sensor_dims)
    projected = _count_projected_rows(monkeypatch)
    want = observed_rows(session, seq, range(len(seq)))
    assert projected == [1] * len(pairs)
    projected.clear()
    session.reset()  # the table depends on the weights and the sensor alone
    got = observed_rows(session, seq, range(len(seq)))
    assert projected == []
    assert all(np.array_equal(g[2], w[2]) and g[:2] == w[:2] for g, w in zip(got, want))


def test_observe_past_the_cap_projects_a_pair_once_while_its_row_holds_it(monkeypatch):
    """On a sensor past the cap, pairs whose rows differ stay in the table."""
    from inode.events import EventSequence
    dims, rng = (346, 260), np.random.default_rng(103)
    xs, ys, ps = (rng.integers(0, n, 400) for n in (*dims, 2))
    rows = ((xs * dims[1] + ys) * 2 + ps) % model._TABLE_ROWS
    _, one = np.unique(rows, return_index=True)  # one pair per row
    pick = rng.choice(one[:60], 2000)
    seq = EventSequence(xs[pick], ys[pick], ps[pick], np.cumsum(rng.integers(1, 50, 2000)),
                        sensor_dims=dims)
    session = model.OnlineClassifier(model.init_params(rng, 3), TimeStats(dq=100.0), dims)
    projected = _count_projected_rows(monkeypatch)
    observed_rows(session, seq, range(len(seq)))
    assert projected == [1] * len(set(pick))


def test_replay_after_observe_shares_the_table_and_equals_observe_bitwise(monkeypatch):
    """A replay reads the rows that ``observe`` projected and projects the
    rest into the same table, which ``observe`` then reads."""
    from inode.events import EventSequence
    store, stats = model.init_params(np.random.default_rng(94), 3), TimeStats(dq=100.0)
    head = moving_dot(0, seed=92, n_events=400, noise_rate=0.2)
    tail = moving_dot(1, seed=93, n_events=1500, noise_rate=0.2)
    # the tail's first event at the head's last timestamp: a zero first gap
    tail = EventSequence(tail.xs, tail.ys, tail.ps, tail.ts - tail.ts[0] + head.ts[-1])
    session, reference = (model.OnlineClassifier(store, stats, (34, 34)) for _ in range(2))
    for online in (session, reference):
        observed_rows(online, head, range(len(head)))
    want = observed_rows(reference, tail, range(len(tail)))
    projected = _count_projected_rows(monkeypatch)
    got = [row for rows in session.replay(tail, chunk=256) for row in rows]
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert all(np.array_equal(g[2], w[2]) for g, w in zip(got, want))
    # the replay projects the last event's pair only as a held input of a later chunk
    new = {event[:3] for event in tail.truncated(len(tail) - 1)} - {event[:3] for event in head}
    assert sum(projected) == len(new) > 0
    projected.clear()
    observed_rows(session, tail, range(len(tail) - 1))
    assert projected == []


def test_timestamp_regression_clamps_with_warning():
    stats = TimeStats(dq=100.0)
    store = model.init_params(np.random.default_rng(63), n_classes=2)
    clf = model.OnlineClassifier(store, stats, (34, 34))
    from inode.events import Event
    clf.observe(Event(1, 1, 1, 1000))
    with pytest.warns(UserWarning):
        pred, posterior = clf.observe(Event(2, 2, 0, 500))
    assert abs(posterior.sum() - 1.0) < 1e-12


def test_resolution_scaling_preserves_logits_bitwise():
    stats = TimeStats(dq=100.0)
    store = model.init_params(np.random.default_rng(71), n_classes=2)
    seq = moving_dot(0, seed=8, n_events=120, noise_rate=0.1)
    doubled = scale_coordinates(seq, 2)
    b1 = _window_batch(seq, 0, 40, stats)
    b2 = _window_batch(doubled, 0, 40, stats)
    assert np.array_equal(b1.inputs, b2.inputs)
    r1 = model.forward(b1, store)
    r2 = model.forward(b2, store)
    assert np.array_equal(r1.logits, r2.logits)


def test_count_params_blocks():
    store = model.init_params(np.random.default_rng(81), n_classes=10)
    assert store.total_scalars("fc1_") == 30 * 128 + 128  # 3,968
    f_net = sum(store.total_scalars(p) for p in ("fc1_", "fcu_", "fc2_", "fc3_"))
    assert f_net == 41_246
    total = store.total_scalars()
    assert 41_000 <= total <= 43_000
    assert total == f_net + 30 * 10 + 10
