"""The model-kind table: stored kind codes, and every kind through
training, checkpoint and the streaming endpoint."""

import numpy as np
import pytest

from inode import model, stream
from inode.checkpoint import META_MODEL, MODEL_KINDS, load_checkpoint, save_checkpoint
from inode.params import load_records
from inode.preprocess import TimeStats, make_batch
from inode.synth import moving_dot_dataset
from inode.training import RunConfig, Trainer


def _trainer(kind):
    train_set = moving_dot_dataset(2, 4, seed=0, n_events=60, split="train")
    test_set = moving_dot_dataset(2, 2, seed=1, n_events=60, split="test")
    config = RunConfig(model=kind, hidden=5, n_classes=2, s_len=10, batch_size=4, seed=2,
                       eval_lengths=(5, 10))
    return Trainer(config, train_set, test_set)


@pytest.mark.parametrize("kind, code", [("inode", 0), ("lstm", 1), ("bilstm", 2)])
def test_kind_codes_are_pinned(tmp_path, kind, code):
    path = tmp_path / "m.ckpt"
    _trainer(kind).save(path)
    assert load_records(path)[META_MODEL][0, 0] == code
    assert load_checkpoint(path).kind == kind


@pytest.mark.parametrize("kind", ["inode", "lstm", "bilstm"])
def test_every_kind_trains_saves_loads_and_serves(tmp_path, kind):
    trainer = _trainer(kind)
    trainer.run_epoch()
    path = tmp_path / "m.ckpt"
    trainer.save(path)
    ckpt = load_checkpoint(path)
    assert (ckpt.kind, ckpt.state_dim, ckpt.features) == (kind, 5, MODEL_KINDS[kind].features)
    batch = make_batch(trainer.test_set.sequences, 10, ckpt.stats, np.random.default_rng(3))
    forward = MODEL_KINDS[kind].module.forward
    assert forward(batch, ckpt.store).loss == forward(batch, trainer.store).loss
    if kind == "bilstm":
        with pytest.raises(ValueError):
            stream.make_session(ckpt)
        return
    session = stream.LineSession(stream.make_session(ckpt))
    fields = session.handle("E 3 4 1 100").split()
    assert fields[0] == "100" and len(fields) == 2 + ckpt.n_classes


def test_unknown_model_kind_raises_value_error(tmp_path):
    with pytest.raises(ValueError, match="unknown model"):
        _trainer("gru")
    store = model.init_params(np.random.default_rng(0), 2)
    with pytest.raises(ValueError, match="unknown model"):
        save_checkpoint(tmp_path / "m.ckpt", store, TimeStats(dq=1.0), kind="gru", n_classes=2,
                        state_dim=30, features=3, sensor_dims=(34, 34))
