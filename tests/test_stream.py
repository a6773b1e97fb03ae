import io
import socket
import sys
import threading
import warnings

import numpy as np
import pytest

from helpers import observed_rows
from inode import model, stream
from inode.checkpoint import Checkpoint, save_checkpoint, load_checkpoint
from inode.preprocess import TimeStats
from inode.synth import moving_dot
from inode.errors import DatasetError
from inode.events import EventSequence, write_aer


def _ckpt(n_classes=2, seed=0, kind="inode", state_dim=30, learnable_h0=False):
    rng = np.random.default_rng(seed)
    if kind == "inode":
        store = model.init_params(rng, n_classes, state_dim=state_dim, learnable_h0=learnable_h0)
        if learnable_h0:  # a start state away from the zeros of a fresh store
            store["h0"] = rng.uniform(-0.5, 0.5, store["h0"].shape)
    else:
        from inode import lstm
        store = lstm.init_params(rng, n_classes, hidden=state_dim)
    return Checkpoint(store=store, stats=TimeStats(dq=100.0), kind=kind,
                      n_classes=n_classes, state_dim=state_dim,
                      features=3 if kind == "inode" else 4, sensor_dims=(34, 34))


def _session(ckpt):
    return stream.LineSession(stream.make_session(ckpt))


def _observed_text(ckpt, seq):
    """The per-event path's text of a recording: ``observe`` on a fresh
    session, one line per event."""
    rows = observed_rows(stream.make_session(ckpt), seq, range(len(seq)))
    return "".join(stream.format_prediction(*row) + "\n" for row in rows)


def test_event_line_produces_one_prediction():
    session = _session(_ckpt())
    reply = session.handle("E 3 7 1 1000")
    fields = reply.split()
    assert fields[0] == "1000"
    assert fields[1] in ("0", "1")
    probs = [float(v) for v in fields[2:]]
    assert len(probs) == 2
    assert abs(sum(probs) - 1.0) < 1e-9


def test_malformed_lines_get_err_and_leave_state_alone():
    ckpt = _ckpt()
    session = _session(ckpt)
    before = session.handle("E 1 2 1 10")
    assert session.handle("E a b") == "ERR parse"
    assert session.handle("bogus") == "ERR parse"
    assert session.handle("E 1 2 3 10") == "ERR range"
    assert session.handle("E 1 2 1") == "ERR parse"
    assert session.handle("E -1 2 1 10") == "ERR range"
    # a leading "-" is a range error even on a zero
    for line in ("E -0 0 0 0", "E 0 -0 0 0", "E 0 0 -0 0", "E 0 0 0 -0", "E -00 0 1 5"):
        assert session.handle(line) == "ERR range"
    # only ASCII digits: no sign, underscore or other script, nor more than int() converts
    for line in ("E 1_0 2 1 1_000", "E +3 2 1 10", "E \u0663 2 1 20", "E 1 2 1 " + "9" * 5000):
        assert session.handle(line) == "ERR parse"
    # timestamps past the int64 range of the AER codecs
    for t in (2 ** 63, 2 ** 64 + 5, 10 ** 400 - 1):
        assert session.handle(f"E 3 4 0 {t}") == "ERR range"
    # identical second event sequence on a fresh session proves state untouched
    fresh = _session(ckpt)
    fresh.handle("E 1 2 1 10")
    assert session.handle("E 5 5 0 30") == fresh.handle("E 5 5 0 30")
    last = f"E 5 5 0 {2 ** 63 - 1}"
    assert session.handle(last) == fresh.handle(last)


def test_blank_lines_are_ignored():
    session = _session(_ckpt())
    assert session.handle("") is None
    assert session.handle("   ") is None


def test_reset_restores_fresh_state():
    ckpt = _ckpt()
    session = _session(ckpt)
    for k in range(5):
        session.handle(f"E {k} {k} 1 {100 * k}")
    assert session.handle("R") is None
    fresh = _session(ckpt)
    line = "E 9 9 0 12345"
    assert session.handle(line) == fresh.handle(line)


def test_one_outbound_line_per_event_in_order():
    session = _session(_ckpt())
    seq = moving_dot(0, seed=1, n_events=40)
    out = io.BytesIO()
    n = stream.serve_lines(session, infile=io.BytesIO(
        "".join(f"E {e.x} {e.y} {e.p} {e.t}\n" for e in seq).encode()), outfile=out)
    lines = out.getvalue().decode().strip().split("\n")
    assert n == 40
    assert len(lines) == 40
    assert [ln.split()[0] for ln in lines] == [str(t) for t in seq.ts]


def test_stream_matches_offline_evaluation_prediction():
    from inode.events import Dataset
    from inode.training import evaluate

    ckpt = _ckpt(seed=3)
    n, eval_seed = 30, 5
    correct = 0
    for trial in range(6):
        seq = moving_dot(trial % 2, seed=4 + trial, n_events=120, noise_rate=0.1)
        test_set = Dataset([seq], class_count=2)
        table = evaluate(ckpt.store, ckpt.stats, "inode", test_set, (n,), seed=eval_seed)
        # rebuild the exact window evaluate() sampled for this item
        rng = np.random.default_rng([eval_seed, 0xE7A1, n, 0])
        start = int(rng.integers(0, len(seq) - n))
        session = _session(ckpt)
        last = None
        for i in range(start, start + n + 1):
            e = seq.event(i)
            last = session.handle(f"E {e.x} {e.y} {e.p} {e.t}")
        streamed_pred = int(last.split()[1])
        offline_says_correct = table[n] == 1.0
        assert (streamed_pred == seq.label) == offline_says_correct
        correct += streamed_pred == seq.label
    assert 0 <= correct <= 6


def test_timestamp_regression_clamped():
    session = _session(_ckpt())
    session.handle("E 1 1 1 1000")
    with pytest.warns(UserWarning):
        reply = session.handle("E 2 2 0 400")
    assert reply.split()[0] == "400"


def test_tcp_server_round_trip_and_isolation():
    ckpt = _ckpt(seed=7)
    server = stream.StreamServer(("127.0.0.1", 0), ckpt)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        def ask(fh, lines):
            replies = []
            for ln in lines:
                fh.write(ln + "\n")
                fh.flush()
                if ln.split() and ln.split()[0] == "E":
                    replies.append(fh.readline().strip())
            return replies

        def dialog(lines):
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                return ask(sock.makefile("rw", newline="\n"), lines)

        local = _session(ckpt)
        lines = ["E 3 7 1 1000", "E 5 5 0 1100", "R", "E 3 7 1 1000"]
        want = [local.handle(ln) for ln in lines]
        want = [w for w in want if w is not None]
        got = dialog(lines)
        assert got == want
        # a second connection starts from a fresh state
        assert dialog(["E 3 7 1 1000"]) == [want[0]]

        # a timestamp past int64 on one open connection gets ERR range, and
        # both connections go on answering as sessions that never saw it
        with socket.create_connection(("127.0.0.1", port), timeout=5) as a, \
                socket.create_connection(("127.0.0.1", port), timeout=5) as b:
            fa, fb = (sock.makefile("rw", newline="\n") for sock in (a, b))
            assert ask(fa, lines[:2]) == want[:2]
            assert ask(fa, ["E 1 1 1 " + "9" * 400]) == ["ERR range"]
            assert ask(fb, lines[:2]) == want[:2]
            tail = ["E 8 2 0 1250", "E 30 31 1 1900"]
            mirror = _session(ckpt)
            want_tail = [mirror.handle(ln) for ln in lines[:2] + tail][2:]
            assert ask(fa, tail) == want_tail
            assert ask(fb, tail) == want_tail
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_server_answers_a_long_line_with_err_long_and_goes_on():
    ckpt = _ckpt(seed=7)
    server = stream.StreamServer(("127.0.0.1", 0), ckpt)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    event = "E 3 7 1 1000"
    # the longest line the server takes, its newline included, and one byte more
    longest = event + " " * (stream.MAX_LINE - len(event) - 1)
    lines = [longest, "E 1 2 1 " + "9" * (1 << 20), longest + " ", "E 5 5 0 1100"]
    try:
        with socket.create_connection(server.server_address, timeout=5) as sock:
            fh = sock.makefile("rw", newline="\n")
            fh.write("".join(line + "\n" for line in lines))
            fh.flush()
            got = [fh.readline() for _ in lines]
    finally:
        server.shutdown()
        server.server_close()
    local = _session(ckpt)
    assert got == [local.handle(event) + "\n", "ERR long\n", "ERR long\n",
                   local.handle(lines[-1]) + "\n"]


def test_replay_file_round_trip(tmp_path):
    ckpt = _ckpt(seed=8)
    seq = moving_dot(0, seed=9, n_events=60)
    path = tmp_path / "events.bin"
    path.write_bytes(write_aer(seq))
    loaded = stream.load_replay(path, ckpt.sensor_dims)
    out = io.StringIO()
    n, _ = stream.fast_replay(loaded, ckpt, out)
    assert n == 60
    assert len(out.getvalue().strip().split("\n")) == 60
    assert out.getvalue() == _observed_text(ckpt, seq)


@pytest.mark.parametrize("manifest", ['{"format": "aer32"}', '{"format": "aer16"', '["aer16"]'])
def test_replay_rejects_bad_manifest(tmp_path, manifest):
    path = tmp_path / "events.bin"
    path.write_bytes(write_aer(moving_dot(0, seed=9, n_events=10)))
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(DatasetError):
        stream.load_replay(path, (34, 34))


@pytest.mark.parametrize("kind, learnable_h0", [("inode", False), ("inode", True),
                                               ("lstm", False)],
                         ids=["plain", "learnable_h0", "lstm"])
def test_fast_replay_agrees_with_per_event_path(kind, learnable_h0):
    """``fast_replay`` writes the per-event session's text byte for byte."""
    ckpt = _ckpt(seed=10, n_classes=3, kind=kind, state_dim=30 if kind == "inode" else 7,
                 learnable_h0=learnable_h0)
    seq = moving_dot(1, seed=11, n_events=400, noise_rate=0.2)
    fast_out = io.StringIO()
    n, _ = stream.fast_replay(seq, ckpt, fast_out)
    assert n == 400
    assert fast_out.getvalue() == _observed_text(ckpt, seq)


@pytest.mark.parametrize("kind, learnable_h0", [("inode", False), ("inode", True),
                                               ("lstm", False)],
                         ids=["plain", "learnable_h0", "lstm"])
def test_paced_replay_writes_the_fast_replay_text(kind, learnable_h0):
    ckpt = _ckpt(seed=10, n_classes=3, kind=kind, state_dim=30 if kind == "inode" else 7,
                 learnable_h0=learnable_h0)
    seq = moving_dot(1, seed=11, n_events=400, noise_rate=0.2)  # 40 ms of events
    paced_out, fast_out = io.StringIO(), io.StringIO()
    stream.paced_replay(seq, ckpt, paced_out)
    stream.fast_replay(seq, ckpt, fast_out)
    assert paced_out.getvalue() == fast_out.getvalue()


class _FakeClock:
    """``time.monotonic`` and ``time.sleep`` on a clock that moves only when
    slept on, each sleep ``overshoot`` seconds longer than asked, and by
    ``cost`` seconds for each line written to its ``sink``."""

    def __init__(self, overshoot=0.0, cost=0.0):
        self.now, self.overshoot, self.cost = 1000.0, overshoot, cost
        self.sleeps, self.log = [], []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds + self.overshoot

    def write(self, text):
        self.log.append(("write", self.now, text))
        self.now += self.cost
        return len(text)

    def flush(self):
        self.log.append(("flush", self.now, None))


def test_paced_replay_writes_each_line_on_time_and_does_not_drift(monkeypatch):
    """Each line waits for its event's time since the first event and is
    flushed; with every sleep 100 us long, the run ends within the span,
    one overshoot and one chunk's work.  Sleeping each gap from the line
    before would drift by 100 us per event, half a second here."""
    ckpt = _ckpt(seed=5)
    seq = moving_dot(0, seed=3, n_events=5000)
    fast_out = io.StringIO()
    stream.fast_replay(seq, ckpt, fast_out)
    clock = _FakeClock(overshoot=100e-6, cost=2e-6)
    monkeypatch.setattr(stream, "time", clock)
    started = clock.now
    stream.paced_replay(seq, ckpt, clock)
    writes = [(at, text) for kind, at, text in clock.log if kind == "write"]
    assert [kind for kind, _, _ in clock.log] == ["write", "flush"] * len(seq)
    assert "".join(text for _, text in writes) == fast_out.getvalue()
    due = (seq.ts - seq.ts[0]) / 1e6
    late = [at - started - when for (at, _), when in zip(writes, due)]
    bound = clock.overshoot + stream.CHUNK * clock.cost
    assert min(late) >= 0 and max(late) <= bound
    assert 0 < sum(clock.sleeps) <= due[-1]
    assert clock.now - started <= due[-1] + bound


def test_an_empty_recording_replays_to_nothing_without_sleeping(monkeypatch):
    ckpt = _ckpt(seed=5)
    empty = EventSequence(*(np.zeros(0, np.int64) for _ in range(4)))
    clock = _FakeClock(overshoot=100e-6)
    monkeypatch.setattr(stream, "time", clock)
    stream.paced_replay(empty, ckpt, clock)
    assert clock.log == [] and clock.sleeps == []


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_fast_replay_refuses_a_recording_from_another_sensor(kind):
    ckpt = _ckpt(seed=19, kind=kind, state_dim=6)
    seq = moving_dot(0, seed=20, n_events=300, sensor_dims=(64, 64))
    with pytest.raises(ValueError, match="sensor"):
        stream.fast_replay(seq, ckpt, io.StringIO())


def test_fast_replay_handles_lstm_checkpoints(tmp_path):
    ckpt = _ckpt(seed=12, kind="lstm", state_dim=6)
    seq = moving_dot(0, seed=13, n_events=50)
    out = io.StringIO()
    n, _ = stream.fast_replay(seq, ckpt, out)
    assert n == 50


def _event_lines(seq):
    return [f"E {e.x} {e.y} {e.p} {e.t}" for e in seq]


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_sessions_on_one_store_equal_each_alone(kind):
    ckpt = _ckpt(seed=21, n_classes=3, kind=kind, state_dim=7)
    seqs = [moving_dot(c % 3, seed=22 + c, n_events=200, noise_rate=0.2) for c in range(4)]
    alone = []
    for seq in seqs:
        session = _session(ckpt)
        alone.append([session.handle(line) for line in _event_lines(seq)])

    sessions = [_session(ckpt) for _ in seqs]
    interleaved = [[] for _ in seqs]
    for lines in zip(*map(_event_lines, seqs)):
        for j, line in enumerate(lines):
            interleaved[j].append(sessions[j].handle(line))
    assert interleaved == alone

    threaded = [None] * len(seqs)

    def run(j):
        session = _session(ckpt)
        threaded[j] = [session.handle(line) for line in _event_lines(seqs[j])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(len(seqs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == alone


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_timestamp_regressions_warn_once_and_are_counted(kind):
    session = _session(_ckpt(seed=16, kind=kind, state_dim=6))
    session.handle("E 1 1 1 5000")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        session.handle("E 2 2 0 4000")
        registry = len(getattr(stream, "__warningregistry__", {}))
        for t in range(3999, 3000, -1):
            session.handle(f"E 2 2 0 {t}")
        assert len(getattr(stream, "__warningregistry__", {})) == registry
    assert len(caught) == 1
    assert session.classifier.regressions == 1000
    session.handle("R")
    assert session.classifier.regressions == 0


def test_bilstm_checkpoint_refused_for_streaming(tmp_path):
    from inode import lstm
    store = lstm.init_params(np.random.default_rng(1), 2, hidden=4, bidirectional=True)
    path = tmp_path / "bi.ckpt"
    save_checkpoint(path, store, TimeStats(dq=100.0), kind="bilstm", n_classes=2,
                    state_dim=4, features=4, sensor_dims=(34, 34))
    ckpt = load_checkpoint(path)
    with pytest.raises(ValueError):
        stream.make_session(ckpt)


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_out_of_sensor_events_warn_once_and_are_counted(kind):
    from inode import lstm
    ckpt = _ckpt(seed=17, kind=kind, state_dim=6)
    edge = _session(ckpt).handle("E 33 1 1 1000")
    session = _session(ckpt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert session.handle("E 40 1 1 1000") == edge
        modules = (stream, model, lstm)
        registries = [len(getattr(m, "__warningregistry__", {})) for m in modules]
        for x in range(41, 240):
            session.handle(f"E {x} 1 1 {1000 + x}")
        assert [len(getattr(m, "__warningregistry__", {})) for m in modules] == registries
    assert len(caught) == 1
    assert session.classifier.clamped == 200
    session.handle("R")
    assert session.classifier.clamped == 0


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_fast_replay_text_does_not_depend_on_the_chunk_size(kind):
    ckpt = _ckpt(seed=21, n_classes=3, kind=kind, state_dim=6 if kind == "lstm" else 30)
    seq = moving_dot(1, seed=22, n_events=2000, noise_rate=0.2)
    texts = set()
    for chunk in (1, 7, 256, 300, 4096):
        out = io.StringIO()
        stream.fast_replay(seq, ckpt, out, chunk=chunk)
        texts.add(out.getvalue())
    assert len(texts) == 1


def _state(session):
    state = session.state
    return [a.copy() for a in (state if isinstance(state, tuple) else (state,))]


@pytest.mark.parametrize("kind", ["inode", "lstm"])
def test_replay_continues_a_session_in_mid_stream(kind):
    """A replay starts from the session's state, as ``observe`` would go
    on with a zero first gap, and leaves the session as it was."""
    ckpt = _ckpt(seed=31, n_classes=3, kind=kind, state_dim=6)
    head = moving_dot(0, seed=32, n_events=200, noise_rate=0.2)
    tail = moving_dot(1, seed=33, n_events=600, noise_rate=0.2)
    # the tail's first event at the head's last timestamp: a zero first gap
    tail = EventSequence(tail.xs, tail.ys, tail.ps, tail.ts - tail.ts[0] + head.ts[-1])
    session, reference = stream.make_session(ckpt), stream.make_session(ckpt)
    for online in (session, reference):
        for event in head:
            online.observe(event)
    before = _state(session)
    got = [row for rows in session.replay(tail, chunk=256) for row in rows]
    assert all(map(np.array_equal, _state(session), before))
    want = [(event.t, *reference.observe(event)) for event in tail]
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert all(np.array_equal(g[2], w[2]) for g, w in zip(got, want))


class _Discard:
    def write(self, text):
        return len(text)


# tracemalloc's peak of the replay below before the LSTM replay took its
# input products and read-outs in broadcast products (numpy 2.4.6, Python 3.11)
LSTM_REPLAY_PEAK = 1_556_369


def test_lstm_fast_replay_peak_memory():
    """The chunk buffers of the default 256-event LSTM replay (H = 72) add
    less than 1 MB; the input projection of a 4,096-event chunk would add
    9 MB."""
    import tracemalloc
    ckpt = _ckpt(seed=23, kind="lstm", state_dim=72)
    seq = moving_dot(0, seed=24, n_events=2 ** 14, noise_rate=0.1)
    tracemalloc.start()
    try:
        stream.fast_replay(seq, ckpt, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LSTM_REPLAY_PEAK + 2 ** 20, peak


# a sensor within INODE's table cap, and one past it
@pytest.mark.parametrize("kind, dims", [("inode", (34, 34)), ("lstm", (34, 34)),
                                        ("inode", (346, 260)), ("lstm", (346, 260))],
                         ids=["inode", "lstm", "inode-346x260", "lstm-346x260"])
def test_fast_replay_memory_does_not_grow_with_the_recording(kind, dims):
    import dataclasses
    import tracemalloc
    ckpt = dataclasses.replace(_ckpt(seed=23, kind=kind, state_dim=6 if kind == "lstm" else 30),
                               sensor_dims=dims)
    peaks = []
    for n_events in (2 ** 12, 2 ** 14):  # 16 and 64 chunks
        seq = moving_dot(0, seed=24, n_events=n_events, noise_rate=0.1, sensor_dims=dims)
        tracemalloc.start()
        try:
            stream.fast_replay(seq, ckpt, _Discard(), chunk=256)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 19, peaks
