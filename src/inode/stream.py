"""Live streaming inference over a text line protocol.

Inbound lines:
    ``E <x> <y> <p> <t_us>``   one event (non-negative ASCII integers, p in {0,1})
    ``R``                      reset the hidden state

Each valid event produces exactly one outbound line, in order:
    ``<t_us> <argmax> <p_0> ... <p_{C-1}>``

Malformed input produces ``ERR <reason>`` and leaves the state untouched:
``ERR parse`` for a line that is not one of the above, ``ERR range`` for a
negative field, a polarity other than 0 or 1, or a timestamp outside the
int64 range of the AER codecs.  A line longer than ``MAX_LINE`` bytes
(its newline included) gets ``ERR long``, on stdin as over TCP; the rest
of it is read and dropped, and the session goes on.
The protocol runs over stdin/stdout or a TCP socket (one isolated session
per connection, all sharing the read-only parameter store), and binary
AER files can be replayed through it, paced by their timestamps or at
full speed.  This module knows no model: the checkpoint's kind names the
online session, and the session observes each event or replays a whole
recording itself.
"""

import re
import socketserver
import time
from pathlib import Path

from .checkpoint import model_kind
from .errors import FormatError
from .events import Event, read_manifest

# an event line, stripped: "E" and four integer fields, split by the
# whitespace that str.split splits on (``\s`` matches the same code points);
# a sign or digit that int() would also take ("+3", "1_0", non-ASCII digits)
# is a parse error, a leading "-" a range one, "-0" included
_EVENT = re.compile(r"E\s+(-?[0-9]+)\s+(-?[0-9]+)\s+(-?[0-9]+)\s+(-?[0-9]+)")
# one past the largest timestamp an AER codec decodes
_T_LIMIT = 1 << 63
# the most bytes of one line, its newline included, that the line loop
# holds: far above the longest valid event line (about 50 bytes)
MAX_LINE = 1024


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
        line = line.strip()
        event = _EVENT.fullmatch(line)
        if event is None:
            if line == "R":
                self.classifier.reset()
            elif line:
                return "ERR parse"
            return None
        try:
            x, y, p, t = map(int, event.groups())
        except ValueError:  # more digits than int() converts
            return "ERR parse"
        # each field is digits after an optional "-", so a "-" is a leading one
        if "-" in line or p not in (0, 1) or t >= _T_LIMIT:
            return "ERR range"
        pred, posterior = self.classifier.observe(Event(x, y, p, t))
        return format_prediction(t, pred, posterior)


def serve_lines(session, infile, outfile):
    """Blocking line loop over binary streams, the one of stdin/stdout and
    of each TCP connection: one reply line per answered line, flushed at
    once; returns the number of answered events.  A line longer than
    ``MAX_LINE`` bytes gets ``ERR long``, and the rest of it is read and
    dropped, so a line of any length holds at most ``MAX_LINE`` bytes."""
    n, read, write, flush = 0, infile.readline, outfile.write, outfile.flush
    while raw := read(MAX_LINE):
        if len(raw) == MAX_LINE and not raw.endswith(b"\n"):
            while (rest := read(MAX_LINE)) and not rest.endswith(b"\n"):
                pass
            reply = "ERR long"
        else:
            reply = session.handle(raw.decode("utf-8", errors="replace"))
        if reply is not None:
            write((reply + "\n").encode("utf-8"))
            flush()
            if not reply.startswith("ERR"):
                n += 1
    return n


class _Handler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # a reply goes out now, not after the client's next line

    def handle(self):
        serve_lines(LineSession(make_session(self.server.ckpt)), self.rfile, self.wfile)


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
    """Decode a recording on ``sensor_dims`` in the format named by the
    manifest beside it.  ``FormatError`` if the manifest names another
    sensor."""
    path = Path(path)
    sensor, decode = read_manifest(path.parent)
    if sensor not in (None, tuple(sensor_dims)):
        raise FormatError(f"{path}: the manifest names a {sensor} sensor, the checkpoint "
                          f"is for {tuple(sensor_dims)}")
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
    ``model.OnlineSession.replay``, which raises ``ValueError`` for a
    recording from another sensor), ``chunk`` events at a time, so memory
    grows with ``chunk`` (plus INODE's projection table, at most
    ``model._TABLE_ROWS`` rows), not with the recording.
    Returns (events, seconds): the seconds cover all the work done chunk
    by chunk (the features, the recursion, the read-outs and the
    formatting), and not the session's set-up.
    """
    chunks = make_session(ckpt).replay(seq, chunk)
    started = time.perf_counter()
    for rows in chunks:
        outfile.write("\n".join([format_prediction(t, pred, posterior)
                                 for t, pred, posterior in rows]) + "\n")
    return len(seq), time.perf_counter() - started
