"""Shared oracles for the test suite."""

import io

import numpy as np

from inode import engine as en
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


def f_ops(h, u, store, tape=None):
    """The INODE dynamics f(h, u) composed from generic engine ops.

    Passed as ``dynamics=`` it makes ``model.euler_step`` record every
    matmul, add, concat and tanh on the tape: the reference for the
    fused step's hand-derived adjoint.
    """
    p = store.__getitem__ if tape is None else (lambda n: tape.param(n, store[n]))
    a = en.concat(
        en.add(en.matmul(h, p("fc1_w")), p("fc1_b")),
        en.add(en.matmul(u, p("fcu_w")), p("fcu_b")),
    )
    a = en.tanh(en.add(en.matmul(en.tanh(a), p("fc2_w")), p("fc2_b")))
    return en.add(en.matmul(a, p("fc3_w")), p("fc3_b"))


def lstm_ops(state, u, store, tape=None, prefix="fwd"):
    """The LSTM cell composed from generic engine ops.

    Passed as ``cell=`` it makes the LSTM record every matmul, add, mul,
    sigmoid and tanh on the tape: the reference for ``lstm.lstm_step``'s
    hand-derived adjoints.
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
