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
    the [4 x 4 x H] input and [4 x H x H] recurrent gate stacks, in row
    order (i, f, o, g), and the biases stacked into one [4 x 1 x H] block.

    Every step, a window's (``step``), a live session's and the replay's,
    runs one body, ``advance``, on arrays that its pass allocates once
    (``buffers``); the cell itself holds none, so threads may share it.
    A broadcast ``np.matmul`` over a stack runs one product per item, so
    each gate's product has the bits of its own ``np.dot`` (the tests pin
    it); a concatenated product such as ``[u h] @ [W; U]`` sums in
    another order.
    """

    def __init__(self, store, prefix):
        self.store = store
        names = _names(prefix, _ROWS)
        self.w4, self.u4, self.bias = (np.stack([store[row[k]] for row in names])
                                       for k in range(3))
        self.us = [store[u] for _, u, _ in names]  # the adjoints' products
        # the generic cell's leaf order, which fixes the order of the
        # gradient dictionary that ``engine.backward`` returns
        self.leaf_names = _names(prefix, GATES)

    def buffers(self, b, s, traced):
        """The arrays that a pass of ``s`` steps over ``b`` rows writes
        into, as a function of the step number that gives the step's
        ``(ux, c, h, views)``: the [4 x B x H] input products, the [B x H]
        new cell state and output, and the views of a [4 x B x H] gate
        block that ``advance`` takes.  A traced pass gets [S x 4 x B x H]
        gate and [S x B x H] c and h blocks and step i their row i, which
        the tape keeps; an untraced pass one set for every step, updated
        in place, whose ``i*g`` product goes into g."""
        shape = (b, self.bias.shape[-1])
        ux, scratch = np.empty((4, *shape)), np.empty((3, *shape))
        if traced:
            z, c, h = np.empty((s, 4, *shape)), np.empty((s, *shape)), np.empty((s, *shape))
            ig = np.empty(shape)
            return lambda i: (ux, c[i], h[i], (z[i], z[i, :3], *z[i], ig, scratch))
        z, c, h = np.empty((4, *shape)), np.empty(shape), np.empty(shape)
        views = (z, z[:3], *z, z[3], scratch)
        return lambda i: (ux, c, h, views)

    def advance(self, ux, h, c, c_out, h_out, views, matmul=np.matmul, mul=np.multiply,
                tanh=np.tanh, logistic=en._sigmoid):
        """One step from ``(h, c)``, with the input products u W_* in
        ``ux``, into ``c_out`` and ``h_out`` (which may be ``c`` and ``h``)
        through the gate views of ``buffers``: z = (h U_* + u W_*) + b, the
        bits of (u W_* + h U_*) + b, then c f + g i and tanh(c) o.  The
        calls are bound locally and given their outputs by position, as in
        ``model._Step.advance``; it allocates no array but ``_sigmoid``'s
        mask."""
        z, ifo, i, f, o, g, ig, scratch = views
        matmul(h, self.u4, z)
        z += ux
        z += self.bias
        logistic(ifo, ifo, scratch)
        tanh(g, g)
        mul(c, f, c_out)
        mul(g, i, ig)
        c_out += ig
        tanh(c_out, h_out)
        h_out *= o

    def step(self, state, u, buffers, tape=None):
        """Standard LSTM cell: sigmoid gates, tanh candidate and output,
        into the step buffers ``buffers`` (see ``buffers``).

        On a tape the step records two fused ops, the new c and h.  Their
        hand-derived adjoints keep only u, h, c and the four gate
        activations, and follow the generic ops' adjoints product for
        product and in their order.
        """
        h, c = state
        hv, cv = _val(h), _val(c)
        ux, c_new, h_new, views = buffers
        np.matmul(u, self.w4, ux)
        self.advance(ux, hv, cv, c_new, h_new, views)
        if tape is None:
            return h_new, c_new
        _, _, i, f, o, g, _, _ = views
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

    def cell(prefix):
        kernel = _Cell(store, prefix)  # binds its weights and the pass's buffers once
        buffers = kernel.buffers(b, s, tape is not None)
        return lambda state, i: kernel.step(state, feats[:, i, :], buffers(i), tape)

    fwd = cell("fwd")
    if not is_bidirectional(store):
        return unroll(batch, store, _zero_state(b, hidden, tape), fwd, tape,
                      hidden=lambda state: state[0], final_only=final_only)
    bwd = cell("bwd")

    def step(states, i):
        return fwd(states[0], i), bwd(states[1], s - 1 - i)

    return unroll(batch, store, (_zero_state(b, hidden, tape), _zero_state(b, hidden, tape)),
                  step, tape, hidden=lambda states: en.concat(states[0][0], states[1][0]),
                  final_only=True)


def backward_bptt(batch, store):
    """Exact gradients of the window loss for every parameter."""
    tape = en.Tape()
    return gradients(tape, forward(batch, store, tape=tape))


class OnlineLstm(OnlineSession):
    """Streamed unidirectional inference, equal to the batched prefix.

    A session binds the one-row set of ``_Cell.buffers`` once: its state
    ``(h, c)``, which each event overwrites and ``reset`` zeroes, and the
    gate views that ``observe`` and the replay's steps fill.  So sessions
    on one store may run in parallel threads, but one session must not be
    shared between them.
    """

    def __init__(self, store, stats, sensor_dims):
        if is_bidirectional(store):
            raise ValueError("a bidirectional model cannot run online")
        self._cell = _Cell(store, "fwd")
        self._ux, c, h, self._views = self._cell.buffers(1, 1, traced=False)(0)
        self.state = h, c
        super().__init__(store, stats, sensor_dims)

    def reset(self):
        super().reset()
        for buffer in self.state:
            buffer.fill(0.0)

    def observe(self, event):
        dtau = self._gap(event)
        cell, ux, (h, c) = self._cell, self._ux, self.state
        np.matmul(np.array([(*self._input(event)[0], dtau)]), cell.w4, ux)
        cell.advance(ux, h, c, c, h, self._views)
        return self._predict(h)

    def _recursion(self, seq, states):
        """``_Cell.advance`` per event on a copy of the session's cell
        state, after one broadcast product for the input products of a
        chunk, so the replay equals ``observe`` bit for bit (see ``_Cell``)."""
        cell, advance, views = self._cell, self._cell.advance, self._views
        states[0] = self.state[0]
        c = self.state[1].copy()
        rows = list(states)
        feats = np.zeros((len(states) - 1, INPUT_DIM))
        proj = np.empty((len(feats), *self._ux.shape))

        def fill(lo, hi, gaps):
            n = hi - lo
            feats[:n, :3] = normalize_sequence(seq, lo, hi)
            feats[int(lo == 0):n, 3] = gaps  # the recording's first event keeps a zero gap
            np.matmul(feats[:n, None, None, :], cell.w4, proj[:n])
            for ux, h, h_out in zip(proj[:n], rows, rows[1:]):
                advance(ux, h, c, c, h_out, views)

        return fill
