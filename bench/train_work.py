"""Training phase of a workload: INODE or the LSTM baseline.

Both models learn 4-class moving-dot data (34x34 sensor, 400 events per
sequence, 5% noise) with the paper's batches of 100 windows x 100
events.  A round is one ``Trainer.run_epoch`` followed by one timed
``Trainer.evaluate`` over the budgets 10..100; rounds repeat until the
phase's time is spent.  Every timed operation is restated at the
reference host speed (``common.Stopwatch``).
"""

import time

import numpy as np

import common
import oracles
from inode import engine, lstm, model, preprocess, synth, training

N_CLASSES = 4
TRAIN_PER_CLASS = 100      # 400 sequences: 4 batches of 100 per epoch
TEST_PER_CLASS = 25        # 100 held-out sequences
N_EVENTS = 400
NOISE = 0.05
SETUPS = 15                # set-up (about 0.15 s) is repeated and its median reported
LEARNING_RATE = 3e-3       # the LSTM baseline learns too little in 30 s at 1e-3
MIN_ROUNDS = 10            # learning checks need this many epochs on a slow host
ACCURACY_MARGIN = 0.15     # mean accuracy at budget 100 over the last
FINAL_EPOCHS = 3           # FINAL_EPOCHS evaluations must exceed chance by this
GRAD_TOL = 1e-5            # central differences, relative with a 1e-3 floor
REF_TOL = 1e-10            # forward logits against the numpy recursion

KINDS = {
    "inode": (30, model, oracles.inode_logits),
    "lstm": (72, lstm, oracles.lstm_logits),
}


def _setup(kind, hidden, seed):
    train_set = synth.moving_dot_dataset(N_CLASSES, TRAIN_PER_CLASS, seed=seed,
                                         n_events=N_EVENTS, noise_rate=NOISE, split="train")
    test_set = synth.moving_dot_dataset(N_CLASSES, TEST_PER_CLASS, seed=seed + 7_000_003,
                                        n_events=N_EVENTS, noise_rate=NOISE, split="test")
    config = training.RunConfig(model=kind, hidden=hidden, n_classes=N_CLASSES, s_len=100,
                                batch_size=100, seed=seed, lr=LEARNING_RATE)
    return training.Trainer(config, train_set, test_set)


def run(kind, seed, seconds, tracer=None):
    hidden, module, reference = KINDS[kind]
    clock = common.Stopwatch()
    for _ in range(SETUPS):
        with clock.timing("setup"):
            trainer = _setup(kind, hidden, seed)

    windows = len(trainer.test_set) * len(trainer.config.eval_lengths)
    records, accuracies = [], []
    attempted = failed = 0
    measured_from = time.perf_counter()
    deadline = measured_from + seconds
    while not failed and (len(records) < MIN_ROUNDS
                          or common.room_for_round(measured_from, deadline, len(records))):
        for op, name, results in ((trainer.run_epoch, "epoch", records),
                                  (trainer.evaluate, "eval", accuracies)):
            attempted += 1
            try:
                with clock.timing(name):
                    results.append(op())
            except Exception as exc:  # counted as failed; the run stops here
                print(f"# train {kind}: {op.__name__} failed: {exc!r}", flush=True)
                failed += 1
                break
    measured_to = time.perf_counter()

    metrics = {
        "setup_s": (clock.median("setup"), "s"),
        "train_epoch_s": (clock.median("epoch"), "s"),
        "eval_windows_per_s": (windows / clock.median("eval"), "windows/s"),
    }
    layers, accounting = {}, None
    if tracer is not None:
        layers, accounting = _layer_metrics(tracer, module, trainer, len(records),
                                            measured_from, measured_to)
    checks = _checks(trainer, module, reference, records, accuracies, seed) if not failed else []
    info = {
        "rounds": len(records),
        **clock.info(),
        "train_loss_first_last": [records[0].train_loss, records[-1].train_loss],
        "final_accuracy_100": accuracies[-1][100] if accuracies else None,
        "epoch_accounting": accounting,
    }
    return metrics, layers, checks, attempted, failed, info


def _checks(trainer, module, reference, records, accuracies, seed):
    """Each entry is (name, passed, detail)."""
    out = []
    store, stats = trainer.store, trainer.stats
    rng = np.random.default_rng([seed, 0xC4EC])
    seqs = trainer.test_set.sequences

    # BPTT gradients against central differences on a small batch
    small = preprocess.make_batch(seqs[:3], 6, stats, rng)
    grads, _ = module.backward_bptt(small, store)
    spots = []
    for name in store.names():
        shape = store[name].shape
        for _ in range(2):
            spots.append((name, tuple(int(rng.integers(0, n)) for n in shape)))
    numeric = oracles.central_difference_spots(lambda: module.forward(small, store).loss,
                                               store, spots)
    worst = max(abs(grads[name][idx] - num) / max(abs(grads[name][idx]), abs(num), 1e-3)
                for (name, idx), num in zip(spots, numeric))
    out.append(("bptt_vs_central_differences", worst <= GRAD_TOL,
                f"worst relative error {worst:.2e} over {len(spots)} weights"))

    batch = preprocess.make_batch(seqs[:20], 100, stats, rng)
    plain = module.forward(batch, store).logits
    traced = module.forward(batch, store, tape=engine.Tape()).logits
    out.append(("traced_equals_untraced", bool(np.array_equal(plain, traced)),
                "bitwise over a 20 x 100 batch"))

    ref = reference(batch.inputs, batch.dtaus, store)
    err = float(np.max(np.abs(ref - plain) / np.maximum(np.abs(ref), 1.0)))
    out.append(("forward_matches_reference", err <= REF_TOL, f"max error {err:.2e}"))

    first, last = records[0].train_loss, records[-1].train_loss
    out.append(("loss_falls", last < first, f"first epoch {first:.4f}, last {last:.4f}"))

    same = all(acc == rec.accuracies for acc, rec in zip(accuracies, records))
    out.append(("evaluate_repeats_epoch_eval", same, "timed evaluate equals the epoch's own"))

    # one held-out evaluation moves by about 0.1 from epoch to epoch
    chance = 1.0 / N_CLASSES
    final = float(np.mean([acc[100] for acc in accuracies[-FINAL_EPOCHS:]]))
    out.append(("accuracy_above_chance", final >= chance + ACCURACY_MARGIN,
                f"acc@100 {final:.3f} over the last {FINAL_EPOCHS} epochs against chance "
                f"{chance:.3f} + {ACCURACY_MARGIN}"))
    return out


def _layer_metrics(tracer, module, trainer, rounds, t0, t1):
    import tracemalloc

    import tracing

    # spans carry the module's name; the metrics name the workload's model
    prefix = "model" if module is model else "lstm"
    totals = tracing.by_name(tracer.spans)
    per_round = lambda name: totals.get(name, (0, 0.0))[1] / rounds  # noqa: E731
    gcs = [(s, e, g) for s, e, g in tracer.gc_events if t0 <= s <= t1]
    in_epoch = tracing.by_name(tracer.spans, within="training.run_epoch")
    epoch_self = in_epoch["training.run_epoch"][1] / rounds

    rng = np.random.default_rng([trainer.config.seed, 0xB7])
    batch = preprocess.make_batch(trainer.train_set.sequences[:100], 100, trainer.stats, rng)
    tracemalloc.start()
    module.backward_bptt(batch, trainer.store)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    layers = {
        "model.backward_bptt_s": (per_round(f"{prefix}.backward_bptt"), "s"),
        "model.forward_traced_s": (per_round(f"{prefix}.forward_traced"), "s"),
        "model.forward_untraced_s": (per_round(f"{prefix}.forward_untraced"), "s"),
        "model.bptt_peak_mb": (peak / 2**20, "MB"),
        "engine.backward_s": (per_round("engine.backward"), "s"),
        "engine.tape_nodes": (common.median(tracer.tape_nodes), "count"),
        "optim.adam_step_s": (per_round("optim.adam_step"), "s"),
        "preprocess.make_batch_s": (per_round("preprocess.make_batch"), "s"),
        "training.test_loss_s": (per_round("training.test_loss"), "s"),
        "training.evaluate_s": (per_round("training.evaluate"), "s"),
        "training.run_epoch_self_s": (epoch_self, "s"),
        "runtime.gc_pause_s": (sum(e - s for s, e, _ in gcs) / rounds, "s"),
        "runtime.gc_collections": (len(gcs) / rounds, "count"),
        "runtime.gc_gen2_collections": (sum(g == 2 for *_, g in gcs) / rounds, "count"),
        "synth.dataset_s": (totals["synth.dataset"][1] / SETUPS, "s"),
        "preprocess.compute_dq_s": (totals["preprocess.compute_dq"][1] / SETUPS, "s"),
    }
    epoch_total = sum(e - s for _, _, name, s, e in tracer.spans if name == "training.run_epoch")
    covered = sum(t for name, (_, t) in in_epoch.items() if name != "training.run_epoch")
    accounting = {
        "epoch_s_total": epoch_total,
        "wrapped_self_s_total": covered,
        "remainder_share": 1.0 - covered / epoch_total,
        "self_s_in_epochs": {name: t for name, (_, t) in sorted(in_epoch.items())},
    }
    return layers, accounting
