"""Shared oracles for the test suite."""

import io
import tracemalloc

import numpy as np

from inode import engine as en
from inode import lstm, model
from inode.params import MAGIC, read_records


def central_difference(loss_fn, store, names=None, h=1e-6):
    """Finite-difference gradient of loss_fn() w.r.t. every store entry.

    loss_fn takes no arguments and reads the store in place.
    """
    out = {}
    for name in (names or store.names()):
        p = store[name]
        g = np.empty_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = loss_fn()
            p[idx] = orig - h
            lm = loss_fn()
            p[idx] = orig
            g[idx] = (lp - lm) / (2.0 * h)
        out[name] = g
    return out


def max_rel_err(analytic, numeric, floor=1e-3):
    """Worst relative error between two gradient dicts.

    The denominator floor stops finite-difference noise on true-zero
    entries from being read as error.
    """
    worst = 0.0
    for name, a in analytic.items():
        b = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def matmul_triple_loop(a, b):
    """Brute-force product, independent of the library path."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


def cross_entropy_direct(logits, labels):
    """Plain exp/normalize/-log oracle for the batched loss."""
    losses = []
    probs = []
    for row, label in zip(logits, labels):
        e = np.exp(row)
        p = e / e.sum()
        probs.append(p)
        losses.append(-np.log(p[label]))
    return float(np.mean(losses)), np.array(probs)


def read_out(h, store):
    """The read-out logits g(h) = h FCc + b_c of a plain state, with the
    products and sums a window pass runs."""
    return h @ store["fcc_w"] + store["fcc_b"]


def row_slice(x, lo, hi):
    """Rows ``lo:hi`` of a matrix as an engine op, which the engine does not
    have: its adjoint scatters the gradient back into the whole matrix."""
    value = x.value if isinstance(x, en.Node) else x
    out = value[lo:hi]
    if not isinstance(x, en.Node):
        return out

    def grad_fn(g):
        full = np.zeros_like(value)
        full[lo:hi] = g
        return (full,)

    return x.tape.record(out, (x,), grad_fn)


def f_ops(h, u, store, tape=None):
    """The INODE dynamics f(h, u) composed from generic engine ops, FC2
    split as the program runs it: ``tanh(FC1 h) W2_top + P(u)`` with
    ``P(u) = tanh(FCu u) W2_bot + b2``, the halves row slices of ``fc2_w``.

    Passed as ``dynamics=`` it makes ``model.euler_step`` record every
    matmul, add, row slice and tanh on the tape: the reference for the
    fused step's hand-derived adjoint.
    """
    p = store.__getitem__ if tape is None else (lambda n: tape.param(n, store[n]))
    width = store["fc1_w"].shape[1]
    w2 = p("fc2_w")
    proj = en.add(en.matmul(en.tanh(en.add(en.matmul(u, p("fcu_w")), p("fcu_b"))),
                            row_slice(w2, width, 2 * width)), p("fc2_b"))
    top = en.matmul(en.tanh(en.add(en.matmul(h, p("fc1_w")), p("fc1_b"))),
                    row_slice(w2, 0, width))
    a = en.tanh(en.add(top, proj))
    return en.add(en.matmul(a, p("fc3_w")), p("fc3_b"))


def inode_ops_forward(batch, store, tape=None):
    """``model.forward`` with f spelled in generic engine ops:
    ``model.euler_step`` with ``dynamics=f_ops``, run by ``model.unroll``."""
    def step(h, i):
        return model.euler_step(h, batch.inputs[:, i, :], batch.dtaus[:, i:i + 1], store, tape,
                                dynamics=f_ops)

    return model.unroll(batch, store, model._initial_state(store, batch.size, tape), step, tape)


def lstm_ops(state, u, store, tape=None, prefix="fwd"):
    """The LSTM cell composed from generic engine ops: the reference for
    ``lstm._Cell.step``'s hand-derived adjoints, recording every matmul,
    add, mul, sigmoid and tanh on the tape.
    """
    h, c = state
    p = store.__getitem__ if tape is None else (lambda n: tape.param(n, store[n]))

    def gate(name):
        return en.add(en.add(en.matmul(u, p(f"{prefix}_w{name}")),
                             en.matmul(h, p(f"{prefix}_u{name}"))),
                      p(f"{prefix}_b{name}"))

    i = en.sigmoid(gate("i"))
    f = en.sigmoid(gate("f"))
    g = en.tanh(gate("g"))
    o = en.sigmoid(gate("o"))
    c_new = en.add(en.mul(f, c), en.mul(i, g))
    return en.mul(o, en.tanh(c_new)), c_new


def lstm_ops_forward(batch, store, tape=None):
    """``lstm.forward`` with the cell ``lstm_ops``, run by ``model.unroll``:
    for a bidirectional store one step runs the forward cell on element i,
    then the backward cell on element S-1-i, final-only."""
    feats, s = batch.features_with_dt(), batch.steps
    hidden = lstm.hidden_dim_of(store)

    def cell(prefix, state, i):
        return lstm_ops(state, feats[:, i, :], store, tape, prefix)

    if not lstm.is_bidirectional(store):
        return model.unroll(batch, store, lstm._zero_state(batch.size, hidden, tape),
                            lambda state, i: cell("fwd", state, i), tape,
                            hidden=lambda state: state[0])

    def step(states, i):
        return cell("fwd", states[0], i), cell("bwd", states[1], s - 1 - i)

    states = (lstm._zero_state(batch.size, hidden, tape),
              lstm._zero_state(batch.size, hidden, tape))
    return model.unroll(batch, store, states, step, tape,
                        hidden=lambda states: en.concat(states[0][0], states[1][0]),
                        final_only=True)


def ops_gradients(forward, batch, store):
    """``(grads, loss)`` of a reference forward pass, as ``backward_bptt`` gives them."""
    tape = en.Tape()
    return model.gradients(tape, forward(batch, store, tape))


def large_blocks(forward):
    """The number of blocks of 64 KB or more that ``forward()`` allocates
    and leaves alive."""
    tracemalloc.start()
    try:
        kept = forward()  # noqa: F841  its tape holds the blocks
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    return sum(trace.size >= 64 * 2 ** 10 for trace in snapshot.traces)


def sigmoid_masked(x):
    """The logistic function split by sign with boolean masks, so that
    exp only sees the negative half-line: the reference for
    ``engine._sigmoid``."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def record_starts(blob):
    """(name, byte offset) of each record of a serialized store, in file order."""
    buf = io.BytesIO(blob)
    buf.seek(len(MAGIC) + 4)
    starts, offset = [], buf.tell()
    for name, _ in read_records(buf):
        starts.append((name, offset))
        offset = buf.tell()
    return starts


def observed_rows(online, seq, events):
    """(timestamp, class, posterior) of ``online.observe`` on the given events."""
    return [(seq.ts[k], *online.observe(seq.event(k))) for k in events]
