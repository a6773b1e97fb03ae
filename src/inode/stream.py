"""Live streaming inference over a text line protocol.

Inbound lines:
    ``E <x> <y> <p> <t_us>``   one event (non-negative ASCII integers, p in {0,1})
    ``R``                      reset the hidden state

Each valid event produces exactly one outbound line, in order:
    ``<t_us> <argmax> <p_0> ... <p_{C-1}>``

Malformed input produces ``ERR <reason>`` and leaves the state untouched:
``ERR parse`` for a line that is not one of the above, ``ERR range`` for a
negative field, a polarity other than 0 or 1, or a timestamp outside the
int64 range of the AER codecs.
The protocol runs over stdin/stdout or a TCP socket (one isolated session
per connection, all sharing the read-only parameter store), and binary
AER files can be replayed through it, paced by their timestamps or at
full speed.  This module knows no model: the checkpoint's kind names the
online session, and the session observes each event or replays a whole
recording itself.
"""

import re
import socketserver
import sys
import time
from pathlib import Path

from .checkpoint import model_kind
from .events import Event, read_manifest

# a field of an event line; a sign or digit that int() would also take
# ("+3", "1_0", non-ASCII digits) is a parse error, a leading "-" a range one
_INTEGER = re.compile(r"-?[0-9]+")
# one past the largest timestamp an AER codec decodes
_T_LIMIT = 1 << 63


def make_session(ckpt):
    """Per-connection online classifier for a loaded checkpoint."""
    online = model_kind(ckpt.kind).online
    if online is None:
        raise ValueError(f"model kind {ckpt.kind!r} cannot run event-by-event")
    return online(ckpt.store, ckpt.stats, ckpt.sensor_dims)


def format_prediction(t, pred, posterior):
    return ("%d %d" + " %.12g" * len(posterior)) % (t, pred, *posterior)


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
        if fields[0] != "E" or len(fields) != 5 or not all(map(_INTEGER.fullmatch, fields[1:])):
            return "ERR parse"
        try:
            x, y, p, t = (int(v) for v in fields[1:])
        except ValueError:  # more digits than int() converts
            return "ERR parse"
        if x < 0 or y < 0 or p not in (0, 1) or not 0 <= t < _T_LIMIT:
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
    disable_nagle_algorithm = True  # a reply goes out now, not after the client's next line

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
    """Feed a decoded sequence through an online session, pacing by timestamps."""
    prev_t = None
    for event in seq:
        if pace and prev_t is not None and event.t > prev_t:
            time.sleep((event.t - prev_t) / 1e6)
        prev_t = event.t
        pred, posterior = session.observe(event)
        outfile.write(format_prediction(event.t, pred, posterior) + "\n")
    return len(seq)


def fast_replay(seq, ckpt, outfile, chunk=256):
    """Full-speed replay, writing the lines the per-event session would,
    byte for byte.

    The checkpoint's session replays the whole recording (see
    ``model.OnlineSession.replay``), which must be on the checkpoint's
    sensor, ``chunk`` events at a time, so memory grows with ``chunk``
    (plus INODE's fixed projection table), not with the recording.
    Returns (events, seconds): the seconds cover all the work done chunk
    by chunk (the features, the recursion, the read-outs and the
    formatting), and not the session's set-up.
    """
    if seq.sensor_dims != tuple(ckpt.sensor_dims):
        raise ValueError(f"recording from a {seq.sensor_dims} sensor, checkpoint for "
                         f"{ckpt.sensor_dims}")
    chunks = make_session(ckpt).replay(seq, chunk)
    started = time.perf_counter()
    for rows in chunks:
        outfile.write("\n".join([format_prediction(t, pred, posterior)
                                 for t, pred, posterior in rows]) + "\n")
    return len(seq), time.perf_counter() - started
