"""What the benchmark under ``bench/`` needs of the program.

``bench/tracing.py`` wraps functions by rebinding them wherever an
``inode`` module holds them, and reads the tape argument of the forward
passes by keyword or position; ``bench/stream_work.py`` writes checkpoints
with fixed keywords, looks up the spans of the functions it expects to be
called and checks the replies against ``bench/oracles.py``.  A renamed
target, a moved argument or a call that bypasses a module global breaks
a benchmark run, so these tests check each of them.  They read
``bench/`` and change nothing there.
"""

import ast
import importlib
import inspect
import io
import types
from pathlib import Path

import numpy as np
import pytest

from inode import checkpoint, engine, lstm, model, stream, training
from inode.checkpoint import Checkpoint
from inode.preprocess import TimeStats
from inode.synth import moving_dot, moving_dot_dataset

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(filename):
    # executed from its source, so that no bytecode cache lands in bench/
    path = BENCH / filename
    module = types.ModuleType(f"bench_{path.stem}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _tracing():
    return _bench_module("tracing.py")


def _calls(filename, name):
    """Calls of ``name`` or ``x.name`` in a bench file, from its syntax tree."""
    tree = ast.parse((BENCH / filename).read_text())
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def test_every_traced_target_resolves():
    targets = _tracing().TARGETS
    assert targets
    for module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path}"


@pytest.mark.parametrize("fn, position", [(model.forward, 3), (lstm.forward, 2)])
def test_forward_passes_take_the_tape_where_the_tracer_reads_it(fn, position):
    """``position`` is where the tracer looks for a tape passed by position;
    a keyword-only tape it reads by keyword."""
    parameters = inspect.signature(fn).parameters
    namers = {f"{module}.{path}": name for module, path, name in _tracing().TARGETS}
    namer = namers[f"{fn.__module__}.{fn.__name__}"]
    if parameters["tape"].kind is inspect.Parameter.KEYWORD_ONLY:
        assert namer((None, None), {"tape": engine.Tape()}).endswith("_traced")
        assert namer((None, None), {}).endswith("_untraced")
        return
    assert list(parameters).index("tape") == position
    args = (None,) * position + (engine.Tape(),)
    assert namer(args, {}).endswith("_traced")
    assert namer(args[:position], {}).endswith("_untraced")


@pytest.mark.parametrize("filename, name, fn", [
    ("stream_work.py", "save_checkpoint", checkpoint.save_checkpoint),
    ("train_work.py", "RunConfig", training.RunConfig),
])
def test_program_accepts_the_benchmark_calls(filename, name, fn):
    calls = _calls(filename, name)
    assert calls
    for call in calls:
        inspect.signature(fn).bind(*call.args, **{kw.arg: None for kw in call.keywords})


def _ckpt(kind):
    rng = np.random.default_rng(4)
    if kind == "inode":
        store, geometry = model.init_params(rng, 3), (model.STATE_DIM, model.FEATURES)
    else:
        store, geometry = lstm.init_params(rng, 3, 6), (6, lstm.INPUT_DIM)
    return Checkpoint(store=store, stats=TimeStats(dq=100.0), kind=kind, n_classes=3,
                      state_dim=geometry[0], features=geometry[1], sensor_dims=(34, 34))


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_fast_replay_formats_every_event_through_the_module_global(monkeypatch, kind):
    calls = _counting(monkeypatch, stream, "format_prediction")
    seq = moving_dot(1, seed=5, n_events=300)
    n, _ = stream.fast_replay(seq, _ckpt(kind), io.StringIO(), chunk=128)
    assert n == len(calls) == 300


@pytest.mark.parametrize("kind, online", [("inode", model.OnlineClassifier),
                                          ("lstm", lstm.OnlineLstm)])
def test_line_session_calls_the_traced_observe_per_event(monkeypatch, kind, online):
    calls = _counting(monkeypatch, online, "observe")
    session = stream.LineSession(stream.make_session(_ckpt(kind)))
    for t in range(20):
        session.handle(f"E 3 4 1 {100 * t}")
    assert len(calls) == 20


@pytest.mark.parametrize("kind, module", [("inode", model), ("lstm", lstm)])
def test_training_reaches_the_model_through_its_module(monkeypatch, kind, module):
    backward = _counting(monkeypatch, module, "backward_bptt")
    forward = _counting(monkeypatch, module, "forward")
    config = training.RunConfig(model=kind, hidden=5, n_classes=2, s_len=8, batch_size=4,
                                seed=1, eval_lengths=(4, 8))
    trainer = training.Trainer(config, moving_dot_dataset(2, 4, seed=2, n_events=40),
                               moving_dot_dataset(2, 2, seed=3, n_events=40))
    trainer.run_epoch()
    assert len(backward) == trainer.steps_per_epoch() == 2
    # one traced pass per batch, then the test loss and one pass per budget
    assert len(forward) == 2 + 1 + 2


def _bench_constant(filename, name):
    """A module-level literal of a bench file, read from its syntax tree."""
    for node in ast.parse((BENCH / filename).read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{filename} sets no {name}")


def _posteriors(lines):
    fields = [line.split() for line in lines]
    return (np.array([int(f[0]) for f in fields]), np.array([int(f[1]) for f in fields]),
            np.array([[float(v) for v in f[2:]] for f in fields]))


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_replies_pass_the_benchmark_output_check(kind):
    """Replay and live replies meet the references and the tolerance that
    the benchmark checks them against, on a model with its small read-out:
    for INODE, replay against the split-FC2 recursion and live against the
    unsplit one; for the LSTM, both against the one LSTM recursion."""
    oracles = _bench_module("oracles.py")
    tol = _bench_constant("stream_work.py", "POSTERIOR_TOL")
    ckpt = _ckpt(kind)
    ckpt.store["fcc_w"] = ckpt.store["fcc_w"] * _bench_constant("stream_work.py", "READOUT_SCALE")
    seq = moving_dot(2, seed=6, n_events=4000, noise_rate=0.05)
    args = (seq.xs, seq.ys, seq.ps, seq.ts, ckpt.store, ckpt.stats.dq, ckpt.stats.dmax,
            ckpt.sensor_dims)
    if kind == "inode":
        replay_ref = oracles.inode_stream_posteriors(*args, split_fc2=True)
        live_ref = oracles.inode_stream_posteriors(*args, split_fc2=False)
    else:
        replay_ref = live_ref = oracles.lstm_stream_posteriors(*args)
    out = io.StringIO()
    stream.fast_replay(seq, ckpt, out)
    session = stream.LineSession(stream.make_session(ckpt))
    live = [session.handle(f"E {e.x} {e.y} {e.p} {e.t}") for e in seq]
    for lines, ref in ((out.getvalue().splitlines(), replay_ref), (live, live_ref)):
        ts, preds, post = _posteriors(lines)
        assert np.array_equal(ts, seq.ts)
        assert np.abs(post - ref).max() <= tol
        top2 = np.sort(ref, axis=1)[:, -2:]
        clear = (top2[:, 1] - top2[:, 0]) > tol
        assert np.array_equal(preds[clear], np.argmax(ref[clear], axis=1))
