import xml.etree.ElementTree as ET

import numpy as np
import pytest

from inode import model
from inode.checkpoint import load_checkpoint
from inode.errors import NaNLossError
from inode.preprocess import TimeStats
from inode.synth import moving_dot_dataset
from inode.training import (
    MetricsRecord, RunConfig, Trainer, evaluate, metrics_csv, metrics_json,
    metrics_svg, parse_metrics_csv, report, train,
)


def _tiny_sets(seed=0, per_class=8, n_events=80):
    train_set = moving_dot_dataset(2, per_class, seed=seed, n_events=n_events)
    test_set = moving_dot_dataset(2, per_class // 2, seed=seed + 999, n_events=n_events)
    return train_set, test_set


def _tiny_config(**kw):
    base = dict(model="inode", hidden=6, n_classes=2, s_len=12, epochs=2, lr=1e-3,
                batch_size=4, seed=1, eval_lengths=(5, 10))
    base.update(kw)
    return RunConfig(**base)


def test_steps_per_epoch_rounds_up():
    train_set, test_set = _tiny_sets()
    trainer = Trainer(_tiny_config(batch_size=6), train_set, test_set)
    assert trainer.steps_per_epoch() == 3  # ceil(16 / 6)


def test_loss_decreases_on_synthetic_task():
    train_set, test_set = _tiny_sets(per_class=12, n_events=150)
    config = _tiny_config(model="inode", hidden=8, s_len=30, epochs=20, lr=3e-3,
                          batch_size=8, eval_lengths=(10,))
    trainer = Trainer(config, train_set, test_set)
    first = trainer.run_epoch().train_loss
    last = None
    for _ in range(config.epochs - 1):
        last = trainer.run_epoch().train_loss
    assert last < first


def test_rho_shrinks_data_and_batch():
    train_set, test_set = _tiny_sets(per_class=5)  # 10 sequences
    trainer = Trainer(_tiny_config(rho=0.2, batch_size=5), train_set, test_set)
    assert len(trainer.train_set) == 2  # ceil(0.2 * 10)
    assert trainer.batch_size == 1      # 0.2 * 5
    assert trainer.steps_per_epoch() == 2


def test_metrics_are_bit_reproducible():
    train_set, test_set = _tiny_sets()

    def run():
        trainer = train(_tiny_config(epochs=3), train_set, test_set)
        return metrics_csv(trainer.log)

    assert run() == run()


def test_nan_loss_aborts_with_location():
    train_set, test_set = _tiny_sets()
    trainer = Trainer(_tiny_config(), train_set, test_set)
    trainer.store["fcc_b"][:] = np.inf
    with pytest.raises(NaNLossError) as info, np.errstate(invalid="ignore"):
        trainer.run_epoch()
    assert info.value.epoch == 1
    assert info.value.batch_index == 0


def test_constant_predictor_scores_class_prevalence():
    _, test_set = _tiny_sets(per_class=10)
    store = model.init_params(np.random.default_rng(0), n_classes=2, state_dim=6, width=6)
    for name in store.names():
        store[name][:] = 0.0
    store["fcc_b"][0, 0] = 5.0  # always predicts class 0
    table = evaluate(store, TimeStats(dq=100.0), "inode", test_set, (5, 10), seed=0)
    prevalence = float(np.mean([seq.label == 0 for seq in test_set]))
    assert table[5] == prevalence
    assert table[10] == prevalence


def test_evaluate_is_deterministic():
    _, test_set = _tiny_sets()
    store = model.init_params(np.random.default_rng(1), n_classes=2, state_dim=6, width=6)
    stats = TimeStats(dq=100.0)
    a = evaluate(store, stats, "inode", test_set, (5, 10), seed=3)
    b = evaluate(store, stats, "inode", test_set, (5, 10), seed=3)
    assert a == b


def test_evaluate_repeats_average_more_windows():
    _, test_set = _tiny_sets()
    store = model.init_params(np.random.default_rng(2), n_classes=2, state_dim=6, width=6)
    table = evaluate(store, TimeStats(dq=100.0), "inode", test_set, (5,), seed=3, repeats=4)
    assert 0.0 <= table[5] <= 1.0


def test_split_isolation():
    train_set, test_set = _tiny_sets()
    trainer = Trainer(_tiny_config(), train_set, test_set)
    train_ids = {id(s) for s in trainer.train_set}
    assert all(id(s) not in train_ids for s in trainer.test_set)


def _fake_log(n):
    return [MetricsRecord(epoch=e + 1, train_loss=1.0 / (e + 1), test_loss=1.1 / (e + 1),
                          accuracies={10: 0.5 + 0.01 * e, 100: 0.6 + 0.01 * e},
                          wall_seconds=0.5)
            for e in range(n)]


def test_csv_single_record_single_row():
    text = metrics_csv(_fake_log(1))
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == "epoch,train_loss,test_loss,acc@10,acc@100"


def test_csv_round_trip_is_exact():
    log = _fake_log(4)
    back = parse_metrics_csv(metrics_csv(log))
    for a, b in zip(log, back):
        assert a.epoch == b.epoch
        assert a.train_loss == b.train_loss
        assert a.test_loss == b.test_loss
        assert a.accuracies == b.accuracies


def test_svg_is_well_formed_xml():
    root = ET.fromstring(metrics_svg(_fake_log(5)))
    assert root.tag.endswith("svg")


def test_report_writes_three_files(tmp_path):
    paths = report(_fake_log(2), tmp_path / "metrics")
    for p in paths:
        assert (tmp_path / p.split("/")[-1]).exists()
    import json
    rows = json.loads((tmp_path / "metrics.json").read_text())
    assert len(rows) == 2
    assert rows[0]["accuracies"]["10"] == 0.5


def test_empty_log_rejected():
    with pytest.raises(ValueError):
        metrics_csv([])
    with pytest.raises(ValueError):
        metrics_svg([])


def test_grad_clip_and_learnable_h0_are_reproducible(tmp_path):
    train_set, test_set = _tiny_sets()
    config = _tiny_config(grad_clip=0.05, learnable_h0=True)
    runs = [train(config, train_set, test_set, out_path=tmp_path / f"{name}.ckpt")
            for name in ("a", "b")]
    assert metrics_csv(runs[0].log) == metrics_csv(runs[1].log)
    for name in runs[0].store.names():
        assert np.array_equal(runs[0].store[name], runs[1].store[name])
    unclipped = train(_tiny_config(learnable_h0=True), train_set, test_set)
    assert not np.array_equal(runs[0].store["fc1_w"], unclipped.store["fc1_w"])
    ck = load_checkpoint(tmp_path / "a.ckpt")
    assert ck.config["grad_clip"] == 0.05 and ck.config["learnable_h0"]
    assert np.any(ck.store["h0"] != 0)


def test_train_writes_checkpoints(tmp_path):
    train_set, test_set = _tiny_sets()
    out = tmp_path / "run.ckpt"
    trainer = train(_tiny_config(epochs=2), train_set, test_set, out_path=out,
                    best_path=tmp_path / "run.ckpt.best")
    assert out.exists()
    assert (tmp_path / "run.ckpt.best").exists()
    ck = load_checkpoint(out)
    assert ck.kind == "inode"
    assert ck.config["epochs"] == 2
    assert ck.stats == trainer.stats


def test_lstm_and_bilstm_trainers_run():
    train_set, test_set = _tiny_sets(per_class=4)
    for kind in ("lstm", "bilstm"):
        config = _tiny_config(model=kind, hidden=4, epochs=1, eval_lengths=(5,))
        trainer = Trainer(config, train_set, test_set)
        rec = trainer.run_epoch()
        assert np.isfinite(rec.train_loss)
        assert 0.0 <= rec.accuracies[5] <= 1.0


def test_eval_seconds_reach_the_json_and_stay_out_of_the_csv():
    train_set, test_set = _tiny_sets()
    trainer = Trainer(_tiny_config(), train_set, test_set)
    record = trainer.run_epoch()
    assert 0.0 < record.eval_seconds < record.wall_seconds
    import json
    assert json.loads(metrics_json(trainer.log))[0]["eval_seconds"] == record.eval_seconds
    assert "eval" not in metrics_csv(trainer.log)


@pytest.mark.parametrize("grad_clip", [None, 1e-3], ids=["unclipped", "clipped"])
def test_grad_norm_is_the_epochs_largest_pre_clip_norm_in_the_json_only(monkeypatch, grad_clip):
    norms, bptt = [], model.backward_bptt

    def spy(batch, store):
        grads, loss = bptt(batch, store)
        norms.append(np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values())))
        return grads, loss

    monkeypatch.setattr(model, "backward_bptt", spy)
    train_set, test_set = _tiny_sets()
    trainer = Trainer(_tiny_config(grad_clip=grad_clip), train_set, test_set)
    record = trainer.run_epoch()
    assert len(norms) == trainer.steps_per_epoch() > 1
    assert record.grad_norm == max(norms) > 1e-3  # so a clipped run clipped it
    import json
    assert json.loads(metrics_json(trainer.log))[0]["grad_norm"] == record.grad_norm
    assert "grad" not in metrics_csv(trainer.log)
