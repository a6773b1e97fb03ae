"""Live streaming inference over a text line protocol.

Inbound lines:
    ``E <x> <y> <p> <t_us>``   one event (non-negative integers, p in {0,1})
    ``R``                      reset the hidden state

Each valid event produces exactly one outbound line, in order:
    ``<t_us> <argmax> <p_0> ... <p_{C-1}>``

Malformed input produces ``ERR <reason>`` and leaves the state untouched.
The protocol runs over stdin/stdout or a TCP socket (one isolated session
per connection, all sharing the read-only parameter store), and binary
AER files can be replayed through it, paced by their timestamps or at
full speed.
"""

import socketserver
import sys
import time
from pathlib import Path

import numpy as np

from . import engine as en
from .checkpoint import model_kind
from .events import Event, read_manifest
from .preprocess import normalize_coords, normalize_dt


def make_session(ckpt):
    """Per-connection online classifier for a loaded checkpoint."""
    online = model_kind(ckpt.kind).online
    if online is None:
        raise ValueError(f"model kind {ckpt.kind!r} cannot run event-by-event")
    return online(ckpt.store, ckpt.stats, ckpt.sensor_dims)


def format_prediction(t, pred, posterior):
    probs = " ".join("%.12g" % p for p in posterior)
    return f"{t} {pred} {probs}"


class LineSession:
    """Protocol state machine wrapping one online classifier."""

    def __init__(self, classifier):
        self.classifier = classifier

    def handle(self, line):
        """One inbound line -> outbound line, or None for control lines."""
        fields = line.strip().split()
        if not fields:
            return None
        if fields[0] == "R" and len(fields) == 1:
            self.classifier.reset()
            return None
        if fields[0] != "E":
            return "ERR parse"
        if len(fields) != 5:
            return "ERR parse"
        try:
            x, y, p, t = (int(v) for v in fields[1:])
        except ValueError:
            return "ERR parse"
        if x < 0 or y < 0 or t < 0 or p not in (0, 1):
            return "ERR range"
        pred, posterior = self.classifier.observe(Event(x, y, p, t))
        return format_prediction(t, pred, posterior)


def serve_lines(session, infile=None, outfile=None):
    """Blocking stdin/stdout loop; returns the number of answered events."""
    infile = infile if infile is not None else sys.stdin
    outfile = outfile if outfile is not None else sys.stdout
    n = 0
    for line in infile:
        reply = session.handle(line)
        if reply is not None:
            outfile.write(reply + "\n")
            outfile.flush()
            if not reply.startswith("ERR"):
                n += 1
    return n


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        session = LineSession(make_session(self.server.ckpt))
        for raw in self.rfile:
            reply = session.handle(raw.decode("utf-8", errors="replace"))
            if reply is not None:
                self.wfile.write((reply + "\n").encode("utf-8"))


class StreamServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, ckpt):
        super().__init__(address, _Handler)
        self.ckpt = ckpt


def serve_tcp(ckpt, host, port):
    """Run the TCP endpoint until interrupted."""
    with StreamServer((host, port), ckpt) as server:
        server.serve_forever()


def load_replay(path, sensor_dims):
    """Decode a recording in the format named by the manifest beside it."""
    path = Path(path)
    _, decode = read_manifest(path.parent)
    return decode(path.read_bytes(), sensor_dims=sensor_dims)


def replay_events(seq, session, outfile, pace=True):
    """Feed a decoded sequence through a session, pacing by timestamps."""
    n = 0
    prev_t = None
    for event in seq:
        if pace and prev_t is not None and event.t > prev_t:
            time.sleep((event.t - prev_t) / 1e6)
        prev_t = event.t
        reply = session.handle(f"E {event.x} {event.y} {event.p} {event.t}")
        if reply is not None:
            outfile.write(reply + "\n")
            n += 1
    return n


def fast_replay(seq, ckpt, outfile, chunk=4096):
    """Full-speed replay, writing the lines the per-event session would.

    For the ODE classifier (sample-and-hold, one line per event) the input
    projections, read-outs and softmax run batched per chunk, leaving only
    the sequential state recursion per event.  Other models feed each
    decoded event straight to their online classifier, without the text
    round trip of the line protocol.  Returns (events, seconds spent in
    processing).
    """
    if ckpt.kind != "inode":
        classifier = make_session(ckpt)
        t0 = time.perf_counter()
        for event in seq:
            pred, posterior = classifier.observe(event)
            outfile.write(format_prediction(event.t, pred, posterior) + "\n")
        return len(seq), time.perf_counter() - t0
    store, stats = ckpt.store, ckpt.stats
    w1, b1 = store["fc1_w"], store["fc1_b"][0]
    w2 = store["fc2_w"]
    w2_top = np.ascontiguousarray(w2[: w2.shape[0] // 2])
    w2_bot = np.ascontiguousarray(w2[w2.shape[0] // 2:])
    b2 = store["fc2_b"][0]
    w3, b3 = store["fc3_w"], store["fc3_b"][0]
    wc, bc = store["fcc_w"], store["fcc_b"][0]
    state_dim = w1.shape[0]
    width = w1.shape[1]

    xn, yn = normalize_coords(seq.xs, seq.ys, ckpt.sensor_dims)
    feats = np.stack([xn, yn, 2.0 * seq.ps - 1.0], axis=1)
    gaps = np.zeros(len(seq))
    if len(seq) > 1:
        raw = np.diff(seq.ts)
        if np.any(raw < 0):
            raw = np.maximum(raw, 0)
        gaps[1:] = normalize_dt(raw, stats)
    # event i advances the state across gaps[i] using the input held from
    # event i-1, so the projection of feats[i-1] pairs with gaps[i]
    proj = np.tanh(feats @ store["fcu_w"] + store["fcu_b"][0]) @ w2_bot + b2

    h = store["h0"][0].copy() if "h0" in store else np.zeros(state_dim)
    states = np.empty((len(seq), state_dim))
    s_buf = np.empty(width)
    t_buf = np.empty(width)
    d_buf = np.empty(state_dim)
    started = time.perf_counter()
    done = 0
    ts = seq.ts
    while done < len(seq):
        hi = min(done + chunk, len(seq))
        for i in range(done, hi):
            if i > 0:
                np.dot(h, w1, out=s_buf)
                s_buf += b1
                np.tanh(s_buf, out=s_buf)
                np.dot(s_buf, w2_top, out=t_buf)
                t_buf += proj[i - 1]
                np.tanh(t_buf, out=t_buf)
                np.dot(t_buf, w3, out=d_buf)
                d_buf += b3
                d_buf *= gaps[i]
                h = h + d_buf
            states[i] = h
        logits = states[done:hi] @ wc + bc
        posterior = en.softmax(logits, axis=1)
        preds = np.argmax(logits, axis=1)
        lines = [format_prediction(ts[i], preds[i - done], posterior[i - done])
                 for i in range(done, hi)]
        outfile.write("\n".join(lines) + "\n")
        done = hi
    return len(seq), time.perf_counter() - started
