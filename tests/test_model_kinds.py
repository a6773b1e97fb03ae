"""The model-kind table: stored kind codes, and every kind through
training, checkpoint and the streaming endpoint."""

import numpy as np
import pytest

from inode import engine as en
from inode import lstm, model, stream
from inode.checkpoint import META_MODEL, MODEL_KINDS, load_checkpoint, save_checkpoint
from inode.params import load_records
from inode.engine import softmax_cross_entropy
from inode.preprocess import Batch, TimeStats, make_batch
from inode.synth import moving_dot_dataset
from inode.training import RunConfig, Trainer


def _trainer(kind):
    train_set = moving_dot_dataset(2, 4, seed=0, n_events=60)
    test_set = moving_dot_dataset(2, 2, seed=1, n_events=60)
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


def _final_only_store(kind, rng):
    if kind == "bilstm":
        return lstm.init_params(rng, 3, 5, bidirectional=True)
    if kind == "lstm":
        return lstm.init_params(rng, 3, 5)
    store = model.init_params(rng, 3, state_dim=4, width=6, learnable_h0=kind == "inode_h0")
    if "h0" in store:  # a start state away from the zeros of a fresh store
        store["h0"] = rng.uniform(-0.5, 0.5, store["h0"].shape)
    return store


@pytest.mark.parametrize("kind", ["inode", "inode_h0", "lstm", "bilstm"])
def test_final_only_forward_equals_the_last_read_out_bitwise(kind):
    rng = np.random.default_rng(8)
    store = _final_only_store(kind, rng)
    batch = make_batch(moving_dot_dataset(3, 2, seed=4, n_events=50).sequences, 12,
                       TimeStats(dq=90.0), rng)
    module = lstm if "lstm" in kind else model
    full = module.forward(batch, store)
    final = module.forward(batch, store, final_only=True)
    assert final.logits.shape == (6, 1, 3)
    assert np.array_equal(final.logits[:, 0, :], full.logits[:, -1, :])
    assert full.loss_node is not None
    assert final.loss == float(softmax_cross_entropy(final.logits[:, 0, :], batch.labels)[0])
    unlabeled = Batch(batch.inputs, batch.dtaus, np.full(batch.size, -1))
    assert module.forward(unlabeled, store, final_only=True).loss_node is None


@pytest.mark.parametrize("b", [1, 2, 100])
@pytest.mark.parametrize("kind", ["inode", "inode_past_the_cap", "lstm", "bilstm"])
def test_untraced_and_traced_passes_give_equal_logits_and_losses_bitwise(kind, b, monkeypatch):
    """An untraced pass runs every step in one set of buffers, a traced one
    in its own rows of per-window blocks; INODE's steps read the window's
    projection table or, past the cap, project their own."""
    rng = np.random.default_rng(10 + b)
    if kind == "inode_past_the_cap":
        monkeypatch.setattr(model, "_TABLE_ROWS", 0)
    if kind.startswith("inode"):
        store, module = model.init_params(rng, 3), model
    else:
        store, module = lstm.init_params(rng, 3, 8, bidirectional=kind == "bilstm"), lstm
    sequences = moving_dot_dataset(3, -(-b // 3), seed=b, n_events=60).sequences[:b]
    batch = make_batch(sequences, 40, TimeStats(dq=90.0), rng)
    if module is model:
        tabulated = model._Step(store).tabulate(batch.inputs, traced=False) is not None
        assert tabulated == (kind == "inode")
    for final_only in (False, True):
        plain = module.forward(batch, store, final_only=final_only)
        traced = module.forward(batch, store, tape=en.Tape(), final_only=final_only)
        assert np.array_equal(plain.logits, traced.logits)
        assert plain.loss == traced.loss
