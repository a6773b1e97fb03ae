"""Properties of the entry points that read outside input, over drawn inputs.

The line protocol answers any text with a prediction, ``ERR parse``,
``ERR range`` or nothing, and an ``ERR`` leaves the session as it was;
its one-pattern parser answers every line as the parser that split the
line into fields did, which stays here as the reference.
The AER codecs round-trip every sequence they can encode, the 5-byte one
across its 2^23 us timestamp wrap.  ``derandomize`` keeps the examples
the same on every run.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from inode import lstm, model, stream
from inode.checkpoint import Checkpoint
from inode.events import (Event, EventSequence, T_DROP, T_WRAP, parse_aer, parse_aer16, write_aer,
                          write_aer16)
from inode.preprocess import TimeStats

EXAMPLES = settings(derandomize=True, max_examples=150, deadline=None, database=None)
N_CLASSES = 3


def _ckpt(kind):
    rng = np.random.default_rng(41)
    if kind == "inode":
        store, geometry = model.init_params(rng, N_CLASSES, state_dim=5), (5, model.FEATURES)
    else:
        store, geometry = lstm.init_params(rng, N_CLASSES, hidden=5), (5, lstm.INPUT_DIM)
    return Checkpoint(store=store, stats=TimeStats(dq=100.0), kind=kind, n_classes=N_CLASSES,
                      state_dim=geometry[0], features=geometry[1], sensor_dims=(34, 34))


CKPTS = {kind: _ckpt(kind) for kind in ("inode", "lstm")}
REPLY = re.compile(r"[0-9]+ [0-%d](?: \S+){%d}" % (N_CLASSES - 1, N_CLASSES))

# fields that the protocol takes, refuses as out of range, or cannot parse
NUMBER = st.one_of(st.integers(0, 1), st.integers(0, 40), st.integers(-3, 3),
                   st.integers(2 ** 63 - 2, 2 ** 63 + 2), st.integers(-2 ** 70, 2 ** 70)).map(str)
FIELD = st.one_of(NUMBER, NUMBER, NUMBER, st.text(max_size=4),
                  st.sampled_from(["+3", "1_0", "\u0663", "0x1", "-0", "00", "1.5", ""]))
SEP = st.sampled_from([" ", "\t", "  ", "\u2003"])
EVENT = st.builds(lambda fields, sep: sep.join(["E", *fields]),
                  st.lists(FIELD, min_size=4, max_size=4), SEP)
LINE = st.one_of(
    EVENT, EVENT, st.text(max_size=40),
    st.builds(lambda head, fields, sep: sep.join([head, *fields]),
              st.sampled_from(["E", "R", "e", "S", "E\x00"]), st.lists(FIELD, max_size=6), SEP))


# the fields in which each kind's session carries an event over to the
# next, named with no default, so that a renamed one fails here rather
# than reading as never set
HELD = {"inode": ("state", "_held_p"), "lstm": ("state",)}


def _bytes(value):
    if isinstance(value, tuple):
        return [a.tobytes() for a in value]
    return None if value is None else value.tobytes()


def _snapshot(clf, kind):
    return ([_bytes(getattr(clf, name)) for name in HELD[kind]],
            clf._last_t, clf.regressions, clf.clamped)


@pytest.mark.parametrize("kind", sorted(CKPTS))
@EXAMPLES
@given(lines=st.lists(LINE, max_size=12))
def test_line_session_answers_every_text_and_an_error_changes_nothing(kind, lines):
    session = stream.LineSession(stream.make_session(CKPTS[kind]))
    session.handle("E 3 4 1 1000")  # a state away from the start
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped coordinates and regressions
        for line in lines:
            before = _snapshot(session.classifier, kind)
            reply = session.handle(line)
            if reply in ("ERR parse", "ERR range"):
                assert _snapshot(session.classifier, kind) == before, line
            else:
                assert reply is None or REPLY.fullmatch(reply), (line, reply)


def _assert_same_events(a, b):
    for field in ("xs", "ys", "ps", "ts"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@EXAMPLES
@given(steps=st.lists(st.integers(0, T_DROP - 1), min_size=1, max_size=60), data=st.data())
def test_aer_round_trips_across_the_timestamp_wrap(steps, data):
    span = sum(steps)
    assume(span > 0)
    # the first event lies ``before`` us short of the wrap, which the span reaches
    before = data.draw(st.integers(1, min(span, T_WRAP)), label="before")
    ts = T_WRAP - before + np.cumsum([0, *steps])
    n = len(ts)
    coords = st.lists(st.integers(0, 33), min_size=n, max_size=n)
    seq = EventSequence(data.draw(coords), data.draw(coords),
                        data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), ts)
    blob = write_aer(seq)
    back = parse_aer(blob)
    _assert_same_events(back, seq)
    assert write_aer(back) == blob


@EXAMPLES
@given(records=st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
                                   st.integers(0, 1), st.integers(0, 0xFFFFFFFF)),
                        max_size=60))
def test_aer16_round_trips_any_sequence(records):
    records.sort(key=lambda record: record[3])
    xs, ys, ps, ts = np.array(records, dtype=np.int64).reshape(-1, 4).T
    seq = EventSequence(xs, ys, ps, ts, sensor_dims=(1 << 16, 1 << 16))
    blob = write_aer16(seq)
    back = parse_aer16(blob, sensor_dims=(1 << 16, 1 << 16))
    _assert_same_events(back, seq)
    assert write_aer16(back) == blob


# the code points that str.split and str.strip take for whitespace
WHITESPACE = [c for c in map(chr, range(0x110000)) if c.isspace()]
_FIELD = re.compile(r"-?[0-9]+")


def reference_handle(session, line):
    """``LineSession.handle`` as it parsed a line before its one pattern:
    ``str.split``, one pattern per field, and a ``"-"`` test."""
    fields = line.strip().split()
    if not fields:
        return None
    if fields[0] == "R" and len(fields) == 1:
        session.classifier.reset()
        return None
    if fields[0] != "E" or len(fields) != 5 or not all(map(_FIELD.fullmatch, fields[1:])):
        return "ERR parse"
    try:
        x, y, p, t = (int(v) for v in fields[1:])
    except ValueError:  # more digits than int() converts
        return "ERR parse"
    if "-" in line or p not in (0, 1) or t >= stream._T_LIMIT:
        return "ERR range"
    pred, posterior = session.classifier.observe(Event(x, y, p, t))
    return stream.format_prediction(t, pred, posterior)


def test_the_event_pattern_splits_where_str_split_does():
    every = list(map(chr, range(0x110000)))
    splits = [c for c in every if len(f"E{c}1".split()) == 2]
    matches = [c for c in every if stream._EVENT.fullmatch(f"E{c}1 2 3 4")]
    assert splits == matches == WHITESPACE
    assert len(WHITESPACE) == 29


SPACES = st.text(st.sampled_from(WHITESPACE), max_size=2)
# fields past int()'s 4,300 digits, which are parse errors however they read
LONG = st.sampled_from(["1" * 4301, "-" + "0" * 4301, "9" * 4300, "-" + "7" * 4300])


@st.composite
def spaced_lines(draw):
    """A head and fields apart by runs of any whitespace, padded with it."""
    field = st.one_of(FIELD, FIELD, LONG)
    words = [draw(st.sampled_from(["E", "E", "E", "R", "e", "ER", "E\x00", "-", ""])),
             *draw(st.one_of(st.lists(field, min_size=4, max_size=4),
                             st.lists(st.one_of(field, st.just("R")), max_size=6)))]
    gaps = draw(st.lists(SPACES.filter(bool), min_size=len(words) - 1,
                         max_size=len(words) - 1))
    body = words[0] + "".join(gap + word for gap, word in zip(gaps, words[1:]))
    return draw(SPACES) + body + draw(SPACES)


@pytest.mark.parametrize("kind", sorted(CKPTS))
@EXAMPLES
@given(lines=st.lists(st.one_of(spaced_lines(), spaced_lines(), LINE), max_size=12))
@example(lines=["R R", "\u2003R\u3000", "R 1", "E 1 2 1 5\x1c", "E\x851 2 1 6", "E 1 2 1 -0",
                "E 1 2 1 " + "0" * 4301, "E 1 2 2 7", "E 1 2 1 %d" % 2 ** 63])
def test_line_session_answers_every_text_as_the_split_parser(kind, lines):
    session = stream.LineSession(stream.make_session(CKPTS[kind]))
    reference = stream.LineSession(stream.make_session(CKPTS[kind]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamped coordinates and regressions
        for line in ["E 3 4 1 1000", *lines]:
            assert session.handle(line) == reference_handle(reference, line), line
            assert _snapshot(session.classifier, kind) == _snapshot(reference.classifier, kind)
