"""Acceptance gate: one test per release criterion, each printing a verdict.

Run as  pytest tests/test_acceptance.py -v -s  to see one line per criterion.
The long-running full-dataset check is skipped automatically when the real
dataset directory is absent.
"""

import io
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import central_difference, max_rel_err, read_out
from inode import engine as en
from inode import lstm, model, stream
from inode.checkpoint import Checkpoint
from inode.events import Event, EventSequence, parse_aer, write_aer
from inode.preprocess import Batch, TimeStats, compute_dq, make_batch, normalize_dt
from inode.synth import moving_dot, moving_dot_dataset
from inode.training import RunConfig, Trainer, evaluate, metrics_csv, train

SEED = 2024


def _verdict(num, ok, text):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@pytest.fixture(scope="module")
def trained_two_class():
    """Criterion 4 training run, shared with criterion 5.

    Runs at least 10 epochs so the short-budget end of the accuracy curve
    settles, recording the epoch at which the 0.95 bar was first cleared.
    """
    train_set = moving_dot_dataset(2, 1000, seed=SEED, n_events=400, noise_rate=0.05)
    test_set = moving_dot_dataset(2, 250, seed=SEED + 7_000_003, n_events=400,
                                  noise_rate=0.05)
    config = RunConfig(model="inode", hidden=30, n_classes=2, s_len=100, epochs=50,
                       lr=1e-3, batch_size=100, seed=SEED, eval_lengths=(100,))
    trainer = Trainer(config, train_set, test_set)
    started = time.perf_counter()
    best, first_reach = 0.0, None
    for epoch in range(config.epochs):
        record = trainer.run_epoch()
        best = max(best, record.accuracies[100])
        if first_reach is None and record.accuracies[100] >= 0.95:
            first_reach = record.epoch
        if first_reach is not None and record.epoch >= 10:
            break
    elapsed = time.perf_counter() - started
    return trainer, best, first_reach, elapsed


def test_criterion_01_gradient_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    batch = Batch(inputs=rng.uniform(-1, 1, (2, 5, 3)),
                  dtaus=rng.uniform(0, 1, (2, 5)),
                  labels=np.array([0, 2]))

    ode_store = model.init_params(np.random.default_rng(SEED + 1), n_classes=3,
                                  state_dim=4, width=6)
    ode_grads, _ = model.backward_bptt(batch, ode_store)
    ode_fd = central_difference(lambda: model.forward(batch, ode_store).loss,
                                ode_store, h=1e-6)
    ode_err = max_rel_err(ode_grads, ode_fd)

    lstm_store = lstm.init_params(np.random.default_rng(SEED + 2), n_classes=3, hidden=5)
    lstm_grads, _ = lstm.backward_bptt(batch, lstm_store)
    lstm_fd = central_difference(lambda: lstm.forward(batch, lstm_store).loss,
                                 lstm_store, h=1e-6)
    lstm_err = max_rel_err(lstm_grads, lstm_fd)

    elapsed = time.perf_counter() - started
    _verdict(1, ode_err < 1e-5 and lstm_err < 1e-5 and elapsed < 10.0,
             f"BPTT vs central differences: ode {ode_err:.2e}, lstm {lstm_err:.2e} "
             f"(< 1e-5) in {elapsed:.1f}s (< 10s)")


def test_criterion_02_solver_linear_oracle():
    store = model.init_params(np.random.default_rng(SEED), n_classes=2, state_dim=4, width=6)
    a, dtau, n = 0.37, 0.002, 1000
    rigged = lambda h, u, s, t=None: en.scale(h, a)
    h = np.full((1, 4), 1.25)
    dt = np.full((1, 1), dtau)
    for _ in range(n):
        h = model.euler_step(h, np.zeros((1, 3)), dt, store, dynamics=rigged)
    expected = 1.25 * (1.0 + a * dtau) ** n
    err = float(np.abs(h - expected).max())
    _verdict(2, err < 1e-10, f"1000 Euler steps of rigged linear dynamics err {err:.2e} (< 1e-10)")


def test_criterion_03_online_offline_bitwise():
    stats = TimeStats(dq=100.0)
    store = model.init_params(np.random.default_rng(SEED + 3), n_classes=2)
    rng = np.random.default_rng(SEED + 4)
    checked = 0
    for trial in range(100):
        seq = moving_dot(trial % 2, seed=trial, n_events=160, noise_rate=0.1)
        s = int(rng.integers(10, 61))
        start = int(rng.integers(0, len(seq) - s))
        from inode.preprocess import normalize_sequence
        batch = Batch(normalize_sequence(seq)[start:start + s][None],
                      normalize_dt(np.diff(seq.ts[start:start + s + 1]), stats)[None],
                      np.array([seq.label]))
        offline = model.forward(batch, store)
        clf = model.OnlineClassifier(store, stats, seq.sensor_dims)
        last = None
        for i in range(start, start + s + 1):
            last = clf.observe(seq.event(i))
        same_logits = np.array_equal(read_out(clf.state, store)[0],
                                     offline.logits[0, -1])
        same_posterior = np.array_equal(last[1], en.softmax(offline.logits[0, -1:], axis=1)[0])
        if same_logits and same_posterior:
            checked += 1
    _verdict(3, checked == 100,
             f"online equals offline final logits bitwise on {checked}/100 sequences")


def test_criterion_04_synthetic_learning(trained_two_class):
    _, best, first_reach, elapsed = trained_two_class
    _verdict(4, best >= 0.95 and first_reach is not None and first_reach <= 50
             and elapsed <= 600.0,
             f"2-class task reached acc@100 {best:.3f} (>= 0.95) at epoch {first_reach} "
             f"(<= 50) in {elapsed:.0f}s (<= 600s)")


def test_criterion_05_monotone_event_budget(trained_two_class):
    trainer, _, _, _ = trained_two_class
    lengths = tuple(range(10, 101, 10))
    table = trainer.evaluate(lengths=lengths, repeats=3)
    accs = [table[n] for n in lengths]
    steps_ok = all(b >= a - 0.02 for a, b in zip(accs, accs[1:]))
    ends_ok = accs[-1] >= accs[0]
    profile = " ".join(f"{v:.2f}" for v in accs)
    _verdict(5, steps_ok and ends_ok,
             f"accuracy over budgets 10..100 [{profile}] non-decreasing within 0.02/step")


def test_criterion_06_chance_level_sanity():
    # one random init can tilt a few points off 1/C, so the chance-level
    # reference is estimated as the mean over several untrained models
    stats_set = moving_dot_dataset(10, 20, seed=SEED + 50, n_events=300, noise_rate=0.05)
    test_set = moving_dot_dataset(10, 50, seed=SEED + 5, n_events=300, noise_rate=0.05)
    stats = compute_dq(stats_set)
    tables = []
    for k in range(5):
        store = model.init_params(np.random.default_rng(SEED + 6 + k), n_classes=10)
        tables.append(evaluate(store, stats, "inode", test_set, (20, 100), seed=SEED + k))
    means = {n: round(float(np.mean([t[n] for t in tables])), 4) for n in (20, 100)}
    ok = all(0.05 <= means[n] <= 0.15 for n in (20, 100))
    _verdict(6, ok, f"untrained 10-class accuracy (mean of 5 inits) {means} within [0.05, 0.15]")


def test_criterion_07_parser_round_trip():
    rng = np.random.default_rng(SEED + 7)
    n = 10_000
    seq = EventSequence(rng.integers(0, 256, n), rng.integers(0, 256, n),
                        rng.integers(0, 2, n), np.cumsum(rng.integers(0, 4000, n)),
                        sensor_dims=(256, 256))
    back = parse_aer(write_aer(seq), sensor_dims=(256, 256))
    fields_equal = all(np.array_equal(getattr(back, f), getattr(seq, f))
                       for f in ("xs", "ys", "ps", "ts"))
    hand = parse_aer(bytes([0x03, 0x07, 0x80, 0x03, 0xE8]))
    hand_ok = (hand.event(0) == Event(3, 7, 1, 1000)
               and write_aer(hand) == bytes([0x03, 0x07, 0x80, 0x03, 0xE8]))
    _verdict(7, fields_equal and hand_ok,
             "10,000-event AER round trip is the identity and the hand-packed vector matches")


def test_criterion_08_time_rescaling_invariance():
    base = moving_dot_dataset(2, 20, seed=SEED + 8, n_events=200)
    scaled = type(base)(
        [EventSequence(s.xs, s.ys, s.ps, s.ts * 1000, label=s.label,
                       sensor_dims=s.sensor_dims) for s in base],
        base.class_count)
    stats_a = compute_dq(base)
    stats_b = compute_dq(scaled)
    dq_exact = stats_b.dq == 1000.0 * stats_a.dq
    batch_a = make_batch(base.sequences, 50, stats_a, np.random.default_rng(SEED))
    batch_b = make_batch(scaled.sequences, 50, stats_b, np.random.default_rng(SEED))
    dtaus_exact = np.array_equal(batch_a.dtaus, batch_b.dtaus)
    store = model.init_params(np.random.default_rng(SEED + 9), n_classes=2)
    logits_exact = np.array_equal(model.forward(batch_a, store).logits,
                                  model.forward(batch_b, store).logits)
    _verdict(8, dq_exact and dtaus_exact and logits_exact,
             "scaling every timestamp by 1000 leaves all steps and logits bit-identical")


def test_criterion_09_reproducibility():
    train_set = moving_dot_dataset(2, 30, seed=SEED + 10, n_events=150)
    test_set = moving_dot_dataset(2, 10, seed=SEED + 11, n_events=150)
    config = RunConfig(model="inode", hidden=8, n_classes=2, s_len=25, epochs=3,
                       batch_size=20, seed=SEED, eval_lengths=(10, 25))

    def one_csv():
        return metrics_csv(train(config, train_set, test_set).log).encode()

    _verdict(9, one_csv() == one_csv(),
             "two runs with identical config and seed give byte-identical metrics CSV")


def _nmnist_root():
    root = Path(os.environ.get("INODE_NMNIST", "data/nmnist"))
    if (root / "Train").is_dir() and (root / "Test").is_dir():
        return root
    return None


@pytest.mark.skipif(_nmnist_root() is None,
                    reason="real NMNIST dataset not present (set INODE_NMNIST)")
def test_criterion_10_nmnist_two_digit_long_mode():
    from inode.events import Dataset, load_dataset

    def two_classes(split, count):
        ds = load_dataset(_nmnist_root() / split, truncate_to=2000)
        kept = [s for s in ds if s.label in (0, 1)][:count]
        return Dataset(kept, class_count=2)

    train_set = two_classes("Train", 2000)
    test_set = two_classes("Test", 400)
    config = RunConfig(model="inode", hidden=30, n_classes=2, s_len=100, epochs=100,
                       lr=1e-3, batch_size=100, seed=SEED, eval_lengths=(100,))
    started = time.perf_counter()
    trainer = train(config, train_set, test_set)
    elapsed = time.perf_counter() - started
    accuracy = trainer.log[-1].accuracies[100]
    _verdict(10, accuracy >= 0.90 and elapsed <= 3600.0,
             f"NMNIST digits 0/1: acc@100 {accuracy:.3f} (>= 0.90) in {elapsed:.0f}s (<= 1h)")


def test_criterion_11_stream_throughput():
    store = model.init_params(np.random.default_rng(SEED + 12), n_classes=2)
    ckpt = Checkpoint(store=store, stats=TimeStats(dq=100.0), kind="inode",
                      n_classes=2, state_dim=30, features=3, sensor_dims=(34, 34))
    seq = moving_dot(0, seed=SEED, n_events=50_000, noise_rate=0.1)
    sink = io.StringIO()
    n, seconds = stream.fast_replay(seq, ckpt, sink)
    rate = n / seconds
    lines = sink.getvalue().count("\n")
    _verdict(11, rate >= 50_000 and lines == n,
             f"fast replay processed {n} events at {rate:,.0f} events/s (>= 50,000)")
