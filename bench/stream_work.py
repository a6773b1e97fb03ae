"""Streaming phase of a workload: INODE or the LSTM baseline.

One checkpoint of the workload's model, written and loaded through
``inode.checkpoint``, serves two uses, alternated until the phase's time
is spent:

* replay: a recording spanning three 2^23 us timestamp wraps is encoded
  with the benchmark's own AER writer, decoded with ``parse_aer`` and
  passed through ``fast_replay`` into an in-memory sink (batched for
  INODE, event by event through ``OnlineLstm`` for the LSTM), timed and
  restated at the reference host speed (``common.Stopwatch``);
* live: ``inode stream --listen`` runs as a separate process and one
  connection per core carries its own recording in an open loop at a
  fixed rate far below capacity.  Each reply is timed from the moment
  its event was due to be sent, so a stall also counts against the
  events queued behind it.
"""

import io
import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import common
import oracles
from inode import checkpoint, events, lstm, model, preprocess, stream, synth

N_CLASSES = 4
SENSOR = (34, 34)
NOISE = 0.05
SETUPS = 3
MIN_ROUNDS = 3               # a round lasts 5-6 s on the reference host
REPLAYS_PER_ROUND = 3
CONNECTIONS = 2              # one per core of the 2-vCPU reference host
RATE_PER_CONN = 1000.0       # events/s; the server spends 0.2-0.3 ms per event
LIVE_SEGMENT_S = 1.5         # latency percentiles are taken per segment, and
LIVE_SEGMENTS_PER_ROUND = 1  # their median over the phase's segments reported
READOUT_SCALE = 1e-4
LIVE_EVENTS = 40_000         # per connection, more than a run can send
REPLY_TIMEOUT_S = 5.0
POSTERIOR_TOL = 1e-9
BENCH_DIR = Path(__file__).resolve().parent


def _inode_store(rng):
    return model.init_params(rng, n_classes=N_CLASSES)


def _lstm_store(rng):
    return lstm.init_params(rng, N_CLASSES, 72)


def _inode_reference(split_fc2):
    def reference(xs, ys, ps, ts, ckpt):
        return oracles.inode_stream_posteriors(xs, ys, ps, ts, ckpt.store, ckpt.stats.dq,
                                               ckpt.stats.dmax, ckpt.sensor_dims, split_fc2)
    return reference


def _lstm_reference(xs, ys, ps, ts, ckpt):
    return oracles.lstm_stream_posteriors(xs, ys, ps, ts, ckpt.store, ckpt.stats.dq,
                                          ckpt.stats.dmax, ckpt.sensor_dims)


# kind: (recording events, timestamp stretch, store init, checkpoint
# state_dim and features, replay reference, live reference).  The mean
# moving-dot gap is 100 us; the stretch makes each recording about 26 s
# long, three timestamp wraps.  INODE's batched replay runs at about
# 40,000 events/s and the LSTM's, event by event, at about 6,000, so a
# replay takes 1.2-1.7 s.
KINDS = {
    "inode": (1 << 16, 4, _inode_store, (model.STATE_DIM, model.FEATURES),
              _inode_reference(True), _inode_reference(False)),
    "lstm": (1 << 13, 32, _lstm_store, (72, lstm.INPUT_DIM),
             _lstm_reference, _lstm_reference),
}


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``inode stream --listen`` in its own process.

    With tracing on it starts through ``serve.py``, which installs the
    same wrappers and then calls ``inode.cli.main``.
    """

    def __init__(self, ckpt_path, run_dir, root, spans_path=None):
        self.port = _free_port()
        cli_args = ["stream", "--ckpt", str(ckpt_path), "--listen", f"127.0.0.1:{self.port}"]
        if spans_path is None:
            cmd = [sys.executable, "-m", "inode.cli", *cli_args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve.py"), "--spans", str(spans_path),
                   "--", *cli_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.log = open(run_dir / f"server-{self.port}.log", "wb")
        self.proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.DEVNULL,
                                     stderr=self.log)

    def wait_ready(self, timeout=60.0):
        """Block until the server answers one event on a probe connection."""
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                sock = socket.create_connection(("127.0.0.1", self.port), timeout=1.0)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)
        with sock:
            sock.settimeout(timeout)
            sock.sendall(b"E 0 0 1 0\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(4096)
                if not chunk:
                    raise RuntimeError("server closed the probe connection")
                reply += chunk
        if not reply.startswith(b"0 "):
            raise RuntimeError(f"unexpected probe reply {reply!r}")

    def peak_rss_mb(self):
        return common.peak_rss_of_pid_mb(self.proc.pid)

    def cpu_seconds(self):
        return common.cpu_seconds_of_pid(self.proc.pid)

    def stop(self):
        """Terminate the server and wait until it has ended.

        SIGTERM, not SIGINT: a process started from a background job
        inherits SIGINT ignored, and Python then keeps it ignored.
        """
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Connection:
    """One live session: its recording, send schedule and replies."""

    def __init__(self, port, seq):
        self.sock = socket.create_connection(("127.0.0.1", port))
        # the load generator must not hold back its own small segments
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.seq = seq
        self.lines = [f"E {x} {y} {p} {t}\n".encode()
                      for x, y, p, t in zip(seq.xs.tolist(), seq.ys.tolist(),
                                            seq.ps.tolist(), seq.ts.tolist())]
        self.sent = 0
        self.due = []          # due time of each event sent
        self.late = []         # send time minus due time
        self.replies = []      # reply text per event, in arrival order
        self.latency = []      # reply arrival minus due time
        self._buf = b""

    def send_due(self, now, start, period, first, last):
        """Send every event of the segment [first, last) whose time has come.

        Returns the due time of the next event, or None when none is left.
        """
        while self.sent < last:
            due = start + (self.sent - first) * period
            if due > now:
                return due
            self.sock.sendall(self.lines[self.sent])
            self.due.append(due)
            self.late.append(time.perf_counter() - due)
            self.sent += 1
        return None

    def receive(self, arrived):
        data = self.sock.recv(1 << 16)
        if not data:
            raise RuntimeError("server closed a live connection")
        self._buf += data
        *lines, self._buf = self._buf.split(b"\n")
        for line in lines:
            self.latency.append(arrived - self.due[len(self.replies)])
            self.replies.append(line.decode())

    def outstanding(self):
        return len(self.replies) < self.sent


def live_segment(conns, seconds):
    """Open loop: each connection sends at RATE_PER_CONN for ``seconds``.

    Connections are staggered by an equal share of the period.  The wait
    uses select(), whose timeout has microsecond resolution (epoll rounds
    up to whole milliseconds).
    """
    period = 1.0 / RATE_PER_CONN
    start = time.perf_counter() + 0.01
    plans = []
    for j, conn in enumerate(conns):
        count = min(int(seconds * RATE_PER_CONN), len(conn.lines) - conn.sent)
        plans.append((conn, start + j * period / len(conns), conn.sent, conn.sent + count))
    while True:
        now = time.perf_counter()
        next_due = None
        for conn, begin, first, last in plans:
            if conn.sent < last:
                due = conn.send_due(now, begin, period, first, last)
                if due is not None:
                    next_due = due if next_due is None else min(next_due, due)
        waiting = [c.sock for c in conns if c.outstanding()]
        if next_due is None and not waiting:
            return
        if next_due is None:
            timeout = REPLY_TIMEOUT_S
        else:
            timeout = max(0.0, next_due - time.perf_counter())
        ready, _, _ = select.select(waiting, [], [], timeout)
        arrived = time.perf_counter()
        if not ready and next_due is None:
            raise RuntimeError("live replies stopped arriving")
        for sock in ready:
            next(c for c in conns if c.sock is sock).receive(arrived)


def _parse_lines(lines):
    """(timestamps, predictions, posteriors) of ``<t> <argmax> <p_0> ...`` lines."""
    fields = [line.split() for line in lines]
    ts = np.array([int(f[0]) for f in fields], dtype=np.int64)
    preds = np.array([int(f[1]) for f in fields], dtype=np.int64)
    post = np.array([[float(v) for v in f[2:]] for f in fields])
    return ts, preds, post


def _check_outputs(name, lines, events_sent, seq, ckpt, reference):
    """One line per event sent, in order, with its timestamp; posteriors
    and arg-max against the reference recursion."""
    n = len(lines)
    if n != events_sent:
        return [(f"{name}_one_line_per_event", False, f"{n} lines for {events_sent} events")]
    ts, preds, post = _parse_lines(lines)
    ok_ts = bool(np.array_equal(ts, seq.ts[:n]))
    ref = reference(seq.xs[:n], seq.ys[:n], seq.ps[:n], seq.ts[:n], ckpt)
    err = float(np.max(np.abs(post - ref)))
    top2 = np.sort(ref, axis=1)[:, -2:]
    clear = (top2[:, 1] - top2[:, 0]) > POSTERIOR_TOL
    arg_ok = bool(np.all(preds[clear] == np.argmax(ref[clear], axis=1)))
    return [
        (f"{name}_one_line_per_event_in_order", ok_ts, f"{n} lines, timestamps in event order"),
        (f"{name}_posteriors_match_reference", err <= POSTERIOR_TOL, f"max error {err:.2e}"),
        (f"{name}_argmax_matches", arg_ok, f"{int(clear.sum())} events with a clear arg-max"),
    ]


def run(kind, seed, seconds, tracer, run_dir, root):
    n_events, stretch, init_store, (state_dim, features), replay_ref, live_ref = KINDS[kind]
    rng = np.random.default_rng([seed, 0x57])
    dot = synth.moving_dot(int(rng.integers(N_CLASSES)), seed=seed, n_events=n_events,
                           sensor_dims=SENSOR, noise_rate=NOISE)
    recording = events.EventSequence(dot.xs, dot.ys, dot.ps, dot.ts * stretch,
                                     label=dot.label, sensor_dims=dot.sensor_dims)
    live_seqs = [synth.moving_dot(c % N_CLASSES, seed=seed + 1 + c, n_events=LIVE_EVENTS,
                                  sensor_dims=SENSOR, noise_rate=NOISE)
                 for c in range(CONNECTIONS)]
    blob = oracles.write_aer_records(recording.xs, recording.ys, recording.ps, recording.ts)
    store = init_store(np.random.default_rng([seed, 0x1]))
    # An untrained INODE's state drifts once its tanh layers saturate, and
    # its posteriors would then print as bare 0s and 1s, cheaper to format
    # than 12 digits; a small read-out keeps every posterior inside (0, 1),
    # so the cost per event does not depend on the seed.  Both models get
    # it, so that their output lines are alike.
    store["fcc_w"] = store["fcc_w"] * READOUT_SCALE
    stats = preprocess.compute_dq([recording])
    ckpt_path = run_dir / "model.ckpt"

    clock, servers = common.Stopwatch(), []
    try:
        for k in range(SETUPS):
            spans = run_dir / f"server-spans-{k}.json" if tracer is not None else None
            with clock.timing("setup"):
                checkpoint.save_checkpoint(ckpt_path, store, stats, kind=kind,
                                           n_classes=N_CLASSES, state_dim=state_dim,
                                           features=features, sensor_dims=SENSOR)
                ckpt = checkpoint.load_checkpoint(ckpt_path)
                servers.append(Server(ckpt_path, run_dir, root, spans))
                servers[-1].wait_ready()
            if k < SETUPS - 1:
                servers[-1].stop()
        server = servers[-1]
        result = _measure(clock, seconds, blob, recording, ckpt, server, live_seqs)
        result["metrics"]["setup_s"] = (clock.median("setup"), "s")
        result["info"].update(clock.info())
    finally:
        for srv in servers:
            srv.stop()

    layers = {}
    if tracer is not None:
        layers = _layer_metrics(kind, tracer.spans, result,
                                run_dir / f"server-spans-{SETUPS - 1}.json")
    checks = result["checks"]
    checks += _check_outputs("replay", result.pop("replay_lines"), len(recording), recording,
                             ckpt, replay_ref)
    for j, conn in enumerate(result.pop("conns")):
        checks += _check_outputs(f"live{j}", conn.replies, conn.sent, conn.seq, ckpt,
                                 live_ref)
    return (result["metrics"], layers, checks, result["attempted"], result["failed"],
            result["info"])


def _measure(clock, seconds, blob, recording, ckpt, server, live_seqs):
    conns = [Connection(server.port, seq) for seq in live_seqs]
    p50s, p90s, first_text = [], [], None
    checks, rounds, attempted, failed = [], 0, 0, 0
    measured_from = time.perf_counter()
    deadline = measured_from + seconds
    server_cpu = 0.0
    try:
        while rounds < MIN_ROUNDS or common.room_for_round(measured_from, deadline, rounds):
            rounds += 1
            for _ in range(REPLAYS_PER_ROUND):
                sink = io.StringIO()
                attempted += 1
                with clock.timing("replay"):
                    seq = events.parse_aer(blob, sensor_dims=ckpt.sensor_dims)
                    stream.fast_replay(seq, ckpt, sink)
                if first_text is None:
                    checks.append(("aer_decode_matches_generated",
                                   all(np.array_equal(getattr(seq, f), getattr(recording, f))
                                       for f in ("xs", "ys", "ps", "ts")),
                                   f"{len(seq)} events across "
                                   f"{int(recording.ts[-1] // oracles.T_WRAP_US)} wraps"))
                    first_text = sink.getvalue()
                elif sink.getvalue() != first_text:
                    failed += 1
                del sink
            for _ in range(LIVE_SEGMENTS_PER_ROUND):
                marks = [len(c.latency) for c in conns]
                cpu_before = server.cpu_seconds()
                live_segment(conns, LIVE_SEGMENT_S)
                server_cpu += server.cpu_seconds() - cpu_before
                segment = [x * 1e6 for c, m in zip(conns, marks) for x in c.latency[m:]]
                p50s.append(common.percentile(segment, 50))
                p90s.append(common.percentile(segment, 90))
        server_rss = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.sock.close()
    sent = sum(c.sent for c in conns)
    attempted += sent
    failed += sent - sum(len(c.replies) for c in conns)
    latency = [x * 1e6 for c in conns for x in c.latency]
    late = [x * 1e6 for c in conns for x in c.late]
    metrics = {
        "replay_events_per_s": (len(recording) / clock.median("replay"), "events/s"),
        # not restated: the server runs in another process, and probes
        # taken in this one made its figure noisier, not steadier
        "live_server_cpu_us": (server_cpu / sent * 1e6, "us"),
        "server_peak_rss_mb": (server_rss, "MB"),
    }
    info = {
        "rounds": rounds,
        "live_events": sent,
        "live_p50_us": common.median(p50s),
        "live_p90_us": common.median(p90s),
        "live_segment_p50_us": p50s,
        "live_segment_p90_us": p90s,
        "live_p99_us": common.percentile(latency, 99),
        "live_max_us": max(latency),
        "loadgen_late_p50_us": common.percentile(late, 50),
        "loadgen_late_p99_us": common.percentile(late, 99),
    }
    return {"metrics": metrics, "info": info, "checks": checks, "attempted": attempted,
            "failed": failed, "replay_lines": first_text.splitlines(), "conns": conns}


def _layer_metrics(kind, spans, result, server_spans_path):
    import tracing

    mine = tracing.by_name(spans)
    with open(server_spans_path) as fh:
        theirs = tracing.by_name([tuple(s) for s in json.load(fh)["spans"]])
    repeats = result["info"]["rounds"] * REPLAYS_PER_ROUND
    info = result["info"]

    def per_call(table, name):
        calls, total = table[name]
        return total / calls

    return {
        "events.parse_aer_s": (mine["events.parse_aer"][1] / repeats, "s"),
        "stream.fast_replay_s": (mine["stream.fast_replay"][1] / repeats, "s"),
        "stream.format_prediction_us": (per_call(mine, "stream.format_prediction") * 1e6, "us"),
        "stream.handle_us": (per_call(theirs, "stream.handle") * 1e6, "us"),
        "model.observe_us": (per_call(theirs, "model.observe" if kind == "inode"
                                      else "lstm.observe") * 1e6, "us"),
        "checkpoint.load_checkpoint_s": (per_call(mine, "checkpoint.load_checkpoint"), "s"),
        "checkpoint.save_checkpoint_s": (per_call(mine, "checkpoint.save_checkpoint"), "s"),
        "loadgen.late_p50_us": (info["loadgen_late_p50_us"], "us"),
        "loadgen.late_p99_us": (info["loadgen_late_p99_us"], "us"),
        "live.p50_us": (info["live_p50_us"], "us"),
        "live.p90_us": (info["live_p90_us"], "us"),
        "live.p99_us": (info["live_p99_us"], "us"),
    }
