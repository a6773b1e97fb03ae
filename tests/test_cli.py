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
from inode.checkpoint import META_CONFIG
from inode.params import ParamStore, load_records, save_store

TINY_DATA = ["--synthetic", "movedot2", "--train-count", "24", "--test-count", "12",
             "--synth-events", "120"]
TINY = TINY_DATA + ["--s-len", "20", "--batch", "12"]


# the child process runs the same package the tests import
SRC = str(Path(inode.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "inode.cli", *args], env=CHILD_ENV,
                          capture_output=True, text=True, input=stdin, timeout=300)


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
    lines = "E 3 7 1 1000\nE 5 5 0 1100\nR\nE 3 7 1 1000\nE a b\n"
    proc = run_cli("stream", "--ckpt", str(trained), stdin=lines)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.strip().split("\n")
    assert len(out) == 4
    assert out[0].split()[0] == "1000"
    assert out[3] == "ERR parse"
    # reset semantics: line after R equals the first line
    assert out[2] == out[0]


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
