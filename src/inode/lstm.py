"""LSTM and bidirectional LSTM baselines on the shared gradient engine.

Baselines receive the normalized time step as a fourth input feature.
Element i of a window carries the gap separating it from element i-1
(zero at the head), so the exact same feature is computable online.
Both run their windows through ``model.unroll``, the ODE classifier's
loop.  The unidirectional model is trained with the same per-step
averaged loss as the ODE classifier; the bidirectional one steps both
directions in one step of the loop, classifies from the two concatenated
final states with that read-out's loss (``unroll``'s final-only pass),
and is recomputed per prefix length, since its backward pass needs the
whole prefix.
"""

import numpy as np

from . import engine as en
from .model import OnlineSession, _val, gradients, unroll
from .params import init_store
from .preprocess import normalize_sequence

GATES = ("i", "f", "g", "o")
INPUT_DIM = 4


def layout(n_classes, hidden, bidirectional):
    """``(name, (rows, cols), drawn)`` of every weight, in store order: gate
    weights W_* (in->H) and recurrent U_* (H->H) drawn, biases zero, then
    the classifier."""
    gates = [(f"{prefix}_{part}{gate}", (rows, hidden), part != "b")
             for prefix in (("fwd", "bwd") if bidirectional else ("fwd",))
             for gate in GATES
             for part, rows in (("w", INPUT_DIM), ("u", hidden), ("b", 1))]
    head_in = 2 * hidden if bidirectional else hidden
    return [*gates, ("fcc_w", (head_in, n_classes), True), ("fcc_b", (1, n_classes), False)]


def init_params(rng, n_classes, hidden, bidirectional=False):
    """Fresh parameter store; weights uniform in +-1/sqrt(fan_in), biases zero."""
    return init_store(rng, layout(n_classes, hidden, bidirectional))


def hidden_dim_of(store):
    return store["fwd_wi"].shape[1]


def is_bidirectional(store):
    return "bwd_wi" in store


# rows of the stacked pre-activations: the three sigmoid gates, then g
_ROWS = ("i", "f", "o", "g")


def _names(prefix, gates):
    return [(f"{prefix}_w{gate}", f"{prefix}_u{gate}", f"{prefix}_b{gate}") for gate in gates]


class _Cell:
    """The fused LSTM cell of one direction, its gate weights bound once:
    W_* and U_* in row order (i, f, o, g) and the biases stacked into one
    [4 x 1 x H] block.

    A batch step (``step``), a one-row window's too, runs ``gates`` into
    fresh arrays, which its tape keeps.  A single-row cell (``rows == 1``)
    also binds the [4 x 4 x H] input and [4 x H x H] recurrent gate stacks
    and owns [4 x 1 x H] scratch, which ``advance``, the step of a live
    session and of the replay, fills in place; such a cell must not be
    shared between threads.  ``advance`` has the bits of ``step`` on one
    row (the tests pin it).  A broadcast ``np.matmul`` over a stack
    runs one single-row product per item, so each gate's product has the
    bits of its own ``np.dot``; a concatenated product such as
    ``[u h] @ [W; U]``, or a gemm over several rows, sums in another order.
    """

    def __init__(self, store, prefix, rows):
        self.store = store
        rows_names = _names(prefix, _ROWS)
        self.ws = [store[w] for w, _, _ in rows_names]
        self.us = [store[u] for _, u, _ in rows_names]
        self.bias = np.stack([store[b] for _, _, b in rows_names])
        if rows == 1:
            self.w4, self.u4 = np.stack(self.ws), np.stack(self.us)
            self.ux = np.empty_like(self.bias)  # the input products of one event
            self._z = z = np.empty_like(self.bias)
            self._scratch = np.empty_like(z[:3])
            self._views = (z[:3], z[3], *z[:3])  # sigmoid rows, g, then i, f, o
        # the generic cell's leaf order, which fixes the order of the
        # gradient dictionary that ``engine.backward`` returns
        self.leaf_names = _names(prefix, GATES)

    def gates(self, u, h):
        """Fresh activations sigmoid(i, f, o) and tanh(g) of a batch step.

        Each gate's pre-activation is (u W + h U) + b from two products of
        its own.  On a stacked scratch, a B = 100, H = 72 training epoch ran
        5-15% slower, and stacked sigmoid results held by the tape raised
        its peak RSS by about 4 MB (2-core x86 host, one OpenBLAS thread).
        """
        zs = []
        for w, uw, b in zip(self.ws, self.us, self.bias):
            z = u @ w
            z += h @ uw
            z += b
            zs.append(z)
        return [en._sigmoid(z) for z in zs[:3]], np.tanh(zs[3])

    def advance(self, ux, h, c, h_out):
        """One single-row step in place: ``ux`` holds the four input
        products u W_* as a [4 x 1 x H] block; ``c`` becomes the new cell
        state and ``h_out`` (which may be ``h``) the new output, bit for bit
        those of ``step``.  It allocates no array but ``_sigmoid``'s mask.
        """
        z = self._z
        ifo, g, i, f, o = self._views
        np.matmul(h, self.u4, out=z)
        z += ux
        z += self.bias
        en._sigmoid(ifo, ifo, self._scratch)
        np.tanh(g, out=g)
        c *= f
        g *= i
        c += g
        np.tanh(c, out=h_out)
        h_out *= o

    def step(self, state, u, tape=None):
        """Standard LSTM cell: sigmoid gates, tanh candidate and output.

        On a tape the step records two fused ops, the new c and h.  Their
        hand-derived adjoints keep only u, h, c and the four gate
        activations, and follow the generic ops' adjoints product for
        product and in their order.
        """
        h, c = state
        hv, cv = _val(h), _val(c)
        (i, f, o), g = self.gates(u, hv)
        c_new = f * cv + i * g
        h_new = o * np.tanh(c_new)
        if tape is None:
            return h_new, c_new
        leaves = {gate: [tape.param(name, self.store[name]) for name in names]
                  for gate, names in zip(GATES, self.leaf_names)}
        ui, uf, uo, ug = self.us

        def gate_grads(gz):
            return u.T @ gz, hv.T @ gz, gz.sum(axis=0, keepdims=True)

        def c_grad(gc):
            gi = gc * g * i * (1.0 - i)
            gf = gc * cv * f * (1.0 - f)
            gg = gc * i * (1.0 - g * g)
            # h feeds one product per gate; listing it once per gate, in
            # the generic tape's reverse order, keeps its summation order
            return (gc * f, gg @ ug.T, gf @ uf.T, gi @ ui.T,
                    *gate_grads(gi), *gate_grads(gf), *gate_grads(gg))

        def h_grad(gh):
            tc = np.tanh(c_new)
            go = gh * tc * o * (1.0 - o)
            return (gh * o * (1.0 - tc * tc), go @ uo.T, *gate_grads(go))

        c_node = tape.record(c_new, (c, h, h, h, *leaves["i"], *leaves["f"], *leaves["g"]),
                             c_grad)
        h_node = tape.record(h_new, (c_node, h, *leaves["o"]), h_grad)
        return h_node, c_node


def _zero_state(b, hidden, tape):
    h = np.zeros((b, hidden))
    c = np.zeros((b, hidden))
    if tape is None:
        return h, c
    return tape.const(h), tape.const(c)


def forward(batch, store, *, tape=None, final_only=False):
    """The window's pass through ``model.unroll``.  Unidirectional: a
    read-out and loss after every step, or with ``final_only`` one read-out
    of the final state and its loss.  Bidirectional, always final-only:
    step i runs the forward cell on element i, then the backward cell on
    element S-1-i, and the joined final states ``[h_fwd, h_bwd]`` are read
    out once."""
    feats = batch.features_with_dt()
    b, s = batch.size, batch.steps
    hidden = hidden_dim_of(store)
    fwd = _Cell(store, "fwd", b).step  # binds its weights once for the window
    if not is_bidirectional(store):
        return unroll(batch, store, _zero_state(b, hidden, tape),
                      lambda state, i: fwd(state, feats[:, i, :], tape), tape,
                      hidden=lambda state: state[0], final_only=final_only)
    bwd = _Cell(store, "bwd", b).step

    def step(states, i):
        return fwd(states[0], feats[:, i, :], tape), bwd(states[1], feats[:, s - 1 - i, :], tape)

    return unroll(batch, store, (_zero_state(b, hidden, tape), _zero_state(b, hidden, tape)),
                  step, tape, hidden=lambda states: en.concat(states[0][0], states[1][0]),
                  final_only=True)


def backward_bptt(batch, store):
    """Exact gradients of the window loss for every parameter."""
    tape = en.Tape()
    return gradients(tape, forward(batch, store, tape=tape))


class OnlineLstm(OnlineSession):
    """Streamed unidirectional inference, equal to the batched prefix.

    A session binds its own single-row cell once and keeps its state
    ``(h, c)`` in two [1 x H] buffers that each event overwrites and
    ``reset`` zeroes, so sessions on one store may run in parallel threads.
    """

    def __init__(self, store, stats, sensor_dims):
        if is_bidirectional(store):
            raise ValueError("a bidirectional model cannot run online")
        self._cell = _Cell(store, "fwd", 1)
        self.state = _zero_state(1, hidden_dim_of(store), None)
        super().__init__(store, stats, sensor_dims)

    def reset(self):
        super().reset()
        for buffer in self.state:
            buffer.fill(0.0)

    def observe(self, event):
        dtau = self._gap(event)
        cell, (h, c) = self._cell, self.state
        np.matmul(np.array([(*self._input(event)[0], dtau)]), cell.w4, out=cell.ux)
        cell.advance(cell.ux, h, c, h)
        return self._predict(h)

    def _recursion(self, seq, states):
        """``_Cell.advance`` per event on a copy of the session's cell
        state, after one broadcast product for the input products of a
        chunk, so the replay equals ``observe`` bit for bit (see ``_Cell``)."""
        cell = self._cell
        states[0] = self.state[0]
        c = self.state[1].copy()
        rows = list(states)
        feats = np.zeros((len(states) - 1, INPUT_DIM))
        proj = np.empty((len(feats), *cell.ux.shape))
        advance = cell.advance

        def fill(lo, hi, gaps):
            n = hi - lo
            feats[:n, :3] = normalize_sequence(seq, lo, hi)
            feats[int(lo == 0):n, 3] = gaps  # the recording's first event keeps a zero gap
            np.matmul(feats[:n, None, None, :], cell.w4, out=proj[:n])
            for ux, h, h_out in zip(proj[:n], rows, rows[1:]):
                advance(ux, h, c, h_out)

        return fill
