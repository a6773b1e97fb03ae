import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inode
from helpers import record_starts
from inode.checkpoint import META_CONFIG, load_checkpoint
from inode.params import ParamStore, load_records, save_store
from inode.stream import LineSession, make_session

TINY_DATA = ["--synthetic", "movedot2", "--train-count", "24", "--test-count", "12",
             "--synth-events", "120"]
TINY = TINY_DATA + ["--s-len", "20", "--batch", "12"]


# the child process runs the same package the tests import
SRC = str(Path(inode.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, stdin=None, timeout=300):
    return subprocess.run([sys.executable, "-m", "inode.cli", *args], env=CHILD_ENV,
                          capture_output=True, text=True, input=stdin, timeout=timeout)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "model.ckpt"
    proc = run_cli("train", *TINY, "--model", "inode", "--hidden", "8",
                   "--epochs", "2", "--seed", "5", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


def test_train_smoke_writes_artifacts(trained):
    base = trained.with_suffix("")
    assert trained.exists()
    assert trained.with_suffix(".ckpt.best").exists()
    for ext in (".csv", ".json", ".svg"):
        assert base.with_suffix(ext).exists()


def test_train_missing_out_exits_2():
    proc = run_cli("train", *TINY, "--epochs", "1")
    assert proc.returncode == 2


def test_unknown_flag_exits_2():
    proc = run_cli("train", *TINY, "--epochs", "1", "--out", "/tmp/x.ckpt", "--bogus")
    assert proc.returncode == 2


def test_bad_synthetic_task_exits_2():
    proc = run_cli("train", "--synthetic", "wiggle", "--epochs", "1", "--out", "/tmp/x.ckpt")
    assert proc.returncode == 2


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--epochs", "0"), ("train", "--rho", "0"), ("train", "--s-len", "0"),
    ("train", "--hidden", "0"), ("train", "--synth-events", "0"),
    ("train", "--synth-noise", "2"), ("train", "--seed", "-1"), ("train", "--truncate", "-5"),
    ("eval", "--repeats", "0"), ("stream", "--listen", "127.0.0.1:99999"),
    ("train", "--s-len", "10001"), ("train", "--s-len", str(10 ** 18)),
    ("eval", "--lengths", "10,10001"), ("train", "--train-count", "1"),
    ("eval", "--test-count", "1"),
    ("stream", "--fast", None),
])
def test_bad_numbers_exit_2_with_usage(trained, tmp_path, command, flag, value):
    args = {"train": [*TINY, "--out", str(tmp_path / "x.ckpt")],
            "eval": ["--ckpt", str(trained), *TINY_DATA],
            "stream": ["--ckpt", str(trained)]}[command]
    proc = run_cli(command, *args, flag, *([value] if value is not None else []), stdin="")
    assert proc.returncode == 2
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_training_is_reproducible(tmp_path):
    csvs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.ckpt"
        proc = run_cli("train", *TINY, "--hidden", "8", "--epochs", "2",
                       "--seed", "9", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        csvs.append((out.with_suffix("").with_suffix(".csv")).read_bytes())
    assert csvs[0] == csvs[1]


def test_eval_prints_table_and_json(trained, tmp_path):
    json_out = tmp_path / "table.json"
    proc = run_cli("eval", "--ckpt", str(trained), *TINY_DATA,
                   "--lengths", "5,10,20", "--seed", "3", "--json-out", str(json_out))
    assert proc.returncode == 0, proc.stderr
    rows = [ln for ln in proc.stdout.strip().split("\n") if not ln.startswith("wrote")]
    assert len(rows) == 3
    table = json.loads(json_out.read_text())
    for row in rows:
        n, acc = row.split()
        assert abs(table[n] - float(acc)) < 5e-5  # printed at 4 decimals


def test_eval_single_length(trained):
    proc = run_cli("eval", "--ckpt", str(trained), *TINY_DATA, "--lengths", "20")
    assert proc.returncode == 0
    rows = [ln for ln in proc.stdout.strip().split("\n") if not ln.startswith("wrote")]
    assert len(rows) == 1


def test_eval_missing_checkpoint_exits_2(tmp_path):
    proc = run_cli("eval", "--ckpt", str(tmp_path / "nope.ckpt"), *TINY_DATA)
    assert proc.returncode == 2


def test_stream_stdin_round_trip(trained):
    lines = ["E 3 7 1 1000", "E 5 5 0 " + "9" * 400, "E 5 5 0 1100", "R", "E 3 7 1 1000", "E a b"]
    proc = run_cli("stream", "--ckpt", str(trained), stdin="\n".join(lines) + "\n")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip().split("\n")
    assert len(out) == 5
    assert out[0].split()[0] == "1000"
    assert out[1] == "ERR range"
    assert out[4] == "ERR parse"
    # reset semantics: line after R equals the first line
    assert out[3] == out[0]
    # the out-of-range line left the state as a session that never saw it
    session = LineSession(make_session(load_checkpoint(trained)))
    assert [session.handle(lines[0]), session.handle(lines[2])] == [out[0], out[2]]


def test_stream_stdin_answers_an_overlong_line_and_goes_on(trained):
    """stdin reads a line at most ``MAX_LINE`` bytes at a time, as TCP does."""
    lines = ["E 1 2 1 " + "9" * (1 << 20), "E 3 7 1 1000"]
    proc = run_cli("stream", "--ckpt", str(trained), stdin="\n".join(lines) + "\n")
    assert proc.returncode == 0, proc.stderr
    session = LineSession(make_session(load_checkpoint(trained)))
    assert proc.stdout.split("\n") == ["ERR long", session.handle(lines[1]), ""]


def test_stream_missing_checkpoint_exits_2(tmp_path):
    proc = run_cli("stream", "--ckpt", str(tmp_path / "nope.ckpt"), stdin="")
    assert proc.returncode == 2


def _assert_clean_exit_2(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["eval", "stream"])
def test_corrupt_checkpoint_exits_2(tmp_path, command):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    data = TINY_DATA if command == "eval" else []
    _assert_clean_exit_2(run_cli(command, "--ckpt", str(bad), *data, stdin=""))


def _cut_before_readout(blob):
    return blob[:dict(record_starts(blob))["fcc_w"]]


def _config_not_utf8(blob):
    records = load_records(io.BytesIO(blob))
    records[META_CONFIG] = np.array([[255.0, 254.0, 123.0]])
    buf = io.BytesIO()
    save_store(ParamStore(), buf, extra=list(records.items()))
    return buf.getvalue()


def _rows_flipped(blob):
    """2^31 more rows in fc1_w's header: 2 TB of payload that the file lacks."""
    top = dict(record_starts(blob))["fc1_w"] + 4 + len("fc1_w") + 3
    return blob[:top] + bytes([blob[top] ^ 0x80]) + blob[top + 1:]


@pytest.mark.parametrize("corrupt", [_cut_before_readout, _config_not_utf8, _rows_flipped])
def test_damaged_checkpoint_exits_2(trained, tmp_path, corrupt):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(corrupt(trained.read_bytes()))
    _assert_clean_exit_2(run_cli("stream", "--ckpt", str(bad), stdin="E 1 2 1 100\n"))


def test_corrupt_replay_file_exits_2(trained, tmp_path):
    replay = tmp_path / "replay.bin"
    replay.write_bytes(b"abc")
    _assert_clean_exit_2(run_cli("stream", "--ckpt", str(trained), "--replay", str(replay),
                                 "--fast"))


@pytest.fixture(scope="module")
def bilstm(tmp_path_factory):
    from inode import lstm
    from inode.checkpoint import save_checkpoint
    from inode.preprocess import TimeStats
    path = tmp_path_factory.mktemp("bilstm") / "bi.ckpt"
    store = lstm.init_params(np.random.default_rng(1), 2, hidden=4, bidirectional=True)
    save_checkpoint(path, store, TimeStats(dq=100.0), kind="bilstm", n_classes=2,
                    state_dim=4, features=4, sensor_dims=(34, 34))
    return path


@pytest.mark.parametrize("mode", [[], ["--listen", "127.0.0.1:0"]], ids=["stdin", "listen"])
def test_stream_of_a_kind_without_an_online_session_exits_2(bilstm, mode):
    # refused before the server listens: a server would accept and then
    # drop every connection
    proc = run_cli("stream", "--ckpt", str(bilstm), *mode, stdin="E 1 2 1 100\n", timeout=60)
    _assert_clean_exit_2(proc)
    assert "bilstm" in proc.stderr
    assert proc.stdout == ""


def test_replay_of_a_recording_outside_the_sensor_exits_2(trained, tmp_path):
    from inode.events import write_aer
    from inode.synth import moving_dot
    seq = moving_dot(0, seed=2, n_events=200, sensor_dims=(64, 64))
    assert seq.xs.max() >= 34  # the checkpoint's sensor is 34 x 34
    replay = tmp_path / "wide.bin"
    replay.write_bytes(write_aer(seq))
    for fast in ([], ["--fast"]):
        proc = run_cli("stream", "--ckpt", str(trained), "--replay", str(replay), *fast)
        _assert_clean_exit_2(proc)
        assert "sensor" in proc.stderr


@pytest.mark.parametrize("manifest, code", [('{"sensor": [28, 28]}', 2),
                                            ('{"sensor": [34, 34]}', 0), ('{}', 0)])
def test_replay_on_a_sensor_that_the_manifest_does_not_name_exits_2(trained, tmp_path,
                                                                    manifest, code):
    from inode.events import write_aer
    from inode.synth import moving_dot
    # every coordinate fits both sensors: only the manifest tells them apart
    seq = moving_dot(0, seed=3, n_events=100, sensor_dims=(28, 28))
    replay = tmp_path / "small.bin"
    replay.write_bytes(write_aer(seq))
    (tmp_path / "manifest.json").write_text(manifest)
    for fast in ([], ["--fast"]):
        proc = run_cli("stream", "--ckpt", str(trained), "--replay", str(replay), *fast)
        if code:
            _assert_clean_exit_2(proc)
            assert "(28, 28) sensor" in proc.stderr
        else:
            assert proc.returncode == 0, proc.stderr
            assert len(proc.stdout.splitlines()) == 100


def test_stream_replay_fast(trained, tmp_path):
    from inode.events import write_aer
    from inode.synth import moving_dot
    seq = moving_dot(0, seed=2, n_events=200)
    replay = tmp_path / "replay.bin"
    replay.write_bytes(write_aer(seq))
    proc = run_cli("stream", "--ckpt", str(trained), "--replay", str(replay), "--fast")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip().split("\n")
    assert len(out) == 200
    assert "events/s" in proc.stderr
    ts = [int(ln.split()[0]) for ln in out]
    assert ts == list(np.asarray(seq.ts))


@pytest.mark.parametrize("kind, learnable_h0", [("inode", False), ("inode", True),
                                               ("lstm", False)],
                         ids=["inode", "learnable_h0", "lstm"])
def test_paced_and_fast_replay_write_the_per_event_text(tmp_path, kind, learnable_h0):
    """With and without --fast the replay writes the same bytes, those of
    ``observe`` on each event of the recording."""
    from helpers import observed_rows
    from inode import lstm, model
    from inode.checkpoint import save_checkpoint
    from inode.events import write_aer
    from inode.preprocess import TimeStats
    from inode.stream import format_prediction
    from inode.synth import moving_dot
    rng = np.random.default_rng(4)
    if kind == "inode":
        store = model.init_params(rng, 3, state_dim=6, learnable_h0=learnable_h0)
        if learnable_h0:
            store["h0"] = rng.uniform(-0.5, 0.5, store["h0"].shape)
    else:
        store = lstm.init_params(rng, 3, hidden=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, store, TimeStats(dq=100.0), kind=kind, n_classes=3, state_dim=6,
                    features=3 if kind == "inode" else 4, sensor_dims=(34, 34))
    seq = moving_dot(2, seed=8, n_events=300, noise_rate=0.2)
    replay = tmp_path / "replay.bin"
    replay.write_bytes(write_aer(seq))
    texts = []
    for fast in ([], ["--fast"]):
        proc = run_cli("stream", "--ckpt", str(path), "--replay", str(replay), *fast)
        assert proc.returncode == 0, proc.stderr
        texts.append(proc.stdout)
    rows = observed_rows(make_session(load_checkpoint(path)), seq, range(len(seq)))
    assert texts == ["".join(format_prediction(*row) + "\n" for row in rows)] * 2


def _data_root(root, per_class):
    """``root/<class>/<sample>.bin`` of moving-dot recordings, no train/ or test/."""
    from inode.events import write_aer
    from inode.synth import moving_dot
    for c, count in enumerate(per_class):
        (root / f"c{c}").mkdir(parents=True)
        for k in range(count):
            seq = moving_dot(c, seed=100 * c + k, n_events=40)
            (root / f"c{c}" / f"s{k:02d}.bin").write_bytes(write_aer(seq))
    return root


def test_eval_of_a_split_data_root_scores_the_items_training_held_out(tmp_path, monkeypatch,
                                                                         capsys):
    from inode import cli
    from inode.checkpoint import save_checkpoint
    from inode.events import load_dataset, split_dataset
    root = _data_root(tmp_path / "data", [10, 10])
    ckpt = tmp_path / "m.ckpt"
    assert cli.main(["train", "--data", str(root), "--s-len", "10", "--batch", "6",
                     "--hidden", "4", "--epochs", "1", "--seed", "0", "--out", str(ckpt)]) == 0
    scored = []
    monkeypatch.setattr(cli, "evaluate", lambda store, stats, kind, test_set, lengths, **kw:
                        scored.append(test_set) or {n: 0.0 for n in lengths})
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(root), "--lengths", "5",
                     "--seed", "1", "--json-out", str(tmp_path / "t.json")]) == 0
    train_set, test_set = split_dataset(load_dataset(root), 0.9, 0)
    key = lambda seqs: sorted(seq.ts.tobytes() + seq.xs.tobytes() for seq in seqs)  # noqa: E731
    assert key(scored[0]) == key(test_set)
    assert not set(key(scored[0])) & set(key(train_set))

    loaded = load_checkpoint(ckpt)
    save_checkpoint(ckpt, loaded.store, loaded.stats, kind=loaded.kind,
                    n_classes=loaded.n_classes, state_dim=loaded.state_dim,
                    features=loaded.features, sensor_dims=loaded.sensor_dims)
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(root)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert len(scored) == 1


def test_a_split_without_held_out_items_exits_2(trained, tmp_path):
    root = _data_root(tmp_path / "data", [3, 2])  # ceil(0.9 * 5) = 5 for training
    for proc in (run_cli("train", "--data", str(root), "--s-len", "10", "--epochs", "1",
                         "--out", str(tmp_path / "m.ckpt")),
                 run_cli("eval", "--ckpt", str(trained), "--data", str(root))):
        _assert_clean_exit_2(proc)
        assert "holds none out" in proc.stderr


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_test_split_without_a_readable_file_exits_2(trained, tmp_path, command):
    root = tmp_path / "data"
    _data_root(root / "train", [3, 3])
    for c in range(2):
        (root / "test" / f"c{c}").mkdir(parents=True)
        (root / "test" / f"c{c}" / "s00.bin").write_bytes(bytes(7))  # not whole records
    args = {"train": ["--s-len", "10", "--epochs", "1", "--out", str(tmp_path / "m.ckpt")],
            "eval": ["--ckpt", str(trained)]}[command]
    proc = run_cli(command, "--data", str(root), *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    # each skipped file is logged before the error
    assert proc.stderr.count("skipping") == 2
    assert proc.stderr.splitlines()[-1].startswith("error: no readable sequence under")


def test_eval_reads_only_the_test_split(trained, tmp_path):
    """eval scores test/ and decodes no file of train/: a train/ of
    unreadable files leaves it untouched, and its class names are still
    checked against test/'s."""
    root = tmp_path / "data"
    _data_root(root / "test", [3, 3])
    for c in range(2):
        (root / "train" / f"c{c}").mkdir(parents=True)
        (root / "train" / f"c{c}" / "s00.bin").write_bytes(bytes(7))  # not whole records
    json_out = tmp_path / "eval.json"
    proc = run_cli("eval", "--ckpt", str(trained), "--data", str(root), "--lengths", "5",
                   "--json-out", str(json_out))
    assert proc.returncode == 0, proc.stderr
    assert "skipping" not in proc.stderr
    assert json_out.exists()
    (root / "train" / "c1").rename(root / "train" / "d1")
    proc = run_cli("eval", "--ckpt", str(trained), "--data", str(root), "--lengths", "5")
    _assert_clean_exit_2(proc)
    assert "only in train/ ['d1']" in proc.stderr


def test_an_empty_recording_is_skipped_and_training_goes_on(tmp_path):
    root = _data_root(tmp_path / "data", [6, 6])
    (root / "c0" / "empty.bin").write_bytes(b"")
    proc = run_cli("train", "--data", str(root), "--epochs", "1", "--batch", "4", "--s-len", "20",
                   "--hidden", "4", "--out", str(tmp_path / "m.ckpt"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("skipping") == 1 and "empty.bin" in proc.stderr


def test_a_root_of_empty_recordings_exits_2(tmp_path):
    root = tmp_path / "data"
    for c in range(2):
        (root / f"c{c}").mkdir(parents=True)
        (root / f"c{c}" / "s00.bin").write_bytes(b"")
    proc = run_cli("train", "--data", str(root), "--s-len", "10", "--epochs", "1",
                   "--out", str(tmp_path / "m.ckpt"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("skipping") == 2
    assert proc.stderr.splitlines()[-1].startswith("error: no readable sequence under")


def test_eval_on_more_classes_than_the_checkpoint_has_exits_2(trained):
    proc = run_cli("eval", "--ckpt", str(trained), "--synthetic", "movedot3", "--train-count",
                   "6", "--test-count", "6", "--synth-events", "60", "--lengths", "5")
    _assert_clean_exit_2(proc)
    assert "3 classes" in proc.stderr


@pytest.mark.parametrize("test_classes", [("c0", "c1", "c2"), ("c0", "d1")],
                         ids=["more_classes", "renamed_class"])
def test_train_on_splits_whose_classes_differ_exits_2_before_the_first_epoch(tmp_path,
                                                                              test_classes):
    """Each split indexes its classes by its own sorted directory names, so
    a test/ with more classes, or with a class named otherwise, would be
    scored against the wrong labels."""
    from inode.events import write_aer
    from inode.synth import moving_dot
    root = tmp_path / "data"
    _data_root(root / "train", [4, 4])
    for c, name in enumerate(test_classes):
        (root / "test" / name).mkdir(parents=True)
        (root / "test" / name / "s00.bin").write_bytes(write_aer(moving_dot(c, seed=c,
                                                                            n_events=40)))
    proc = run_cli("train", "--data", str(root), "--s-len", "10", "--epochs", "1",
                   "--hidden", "4", "--out", str(tmp_path / "m.ckpt"))
    _assert_clean_exit_2(proc)
    assert "class directories" in proc.stderr and "only in test/ ['" in proc.stderr
    assert "epoch" not in proc.stdout
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("renamed", [None, "e0"], ids=["same_names", "renamed_class"])
def test_eval_on_a_root_whose_class_names_are_not_trainings_exits_2(tmp_path, renamed):
    """A root indexes its classes by its own sorted names: with c0 renamed
    e0, class 0 would be c1's recordings, scored against c0's read-out."""
    root = _data_root(tmp_path / "data", [6, 6])
    ckpt = tmp_path / "m.ckpt"
    proc = run_cli("train", "--data", str(root), "--s-len", "10", "--batch", "6", "--hidden", "4",
                   "--epochs", "1", "--out", str(ckpt))
    assert proc.returncode == 0, proc.stderr
    assert load_checkpoint(ckpt).config["class_names"] == ["c0", "c1"]
    if renamed:
        (root / "c0").rename(root / renamed)
    json_out = tmp_path / "eval.json"
    proc = run_cli("eval", "--ckpt", str(ckpt), "--data", str(root), "--lengths", "5",
                   "--json-out", str(json_out))
    if renamed:
        _assert_clean_exit_2(proc)
        assert "only in the checkpoint ['c0']" in proc.stderr and "['e0']" in proc.stderr
        assert proc.stdout == "" and not json_out.exists()
    else:
        assert proc.returncode == 0, proc.stderr
        assert json_out.exists()


def test_eval_of_a_checkpoint_whose_class_names_are_not_names_exits_2(trained, tmp_path):
    from inode.checkpoint import save_checkpoint
    loaded = load_checkpoint(trained)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, loaded.store, loaded.stats, kind=loaded.kind,
                    n_classes=loaded.n_classes, state_dim=loaded.state_dim,
                    features=loaded.features, sensor_dims=loaded.sensor_dims,
                    config={**loaded.config, "class_names": "c0c1"})
    proc = run_cli("eval", "--ckpt", str(ckpt), "--data", str(_data_root(tmp_path / "d", [6, 6])))
    _assert_clean_exit_2(proc)
    assert "class names" in proc.stderr
