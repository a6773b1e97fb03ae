"""LSTM and bidirectional LSTM baselines on the shared gradient engine.

Baselines receive the normalized time step as a fourth input feature.
Element i of a window carries the gap separating it from element i-1
(zero at the head), so the exact same feature is computable online.
The unidirectional model is trained with the same per-step averaged loss
as the ODE classifier; the bidirectional one classifies from the two
concatenated final states and is recomputed per prefix length, since its
backward pass needs the whole prefix.
"""

import numpy as np

from . import engine as en
from .model import ForwardResult, OnlineSession, _val, classify, gradients, unroll
from .params import init_store
from .preprocess import normalize_dt, normalize_sequence

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
    [4 x 1 x H] block.  A single-row cell also owns [4 x 1 x H] scratch
    for the pre-activations, so cells must not be shared between threads.
    """

    def __init__(self, store, prefix, rows):
        self.store = store
        rows_names = _names(prefix, _ROWS)
        self.ws = [store[w] for w, _, _ in rows_names]
        self.us = [store[u] for _, u, _ in rows_names]
        self.bias = np.stack([store[b] for _, _, b in rows_names])
        shape = (4, 1, hidden_dim_of(store))
        self.scratch = (np.empty(shape), np.empty(shape)) if rows == 1 else None
        # the generic cell's leaf order, which fixes the order of the
        # gradient dictionary that ``engine.backward`` returns
        self.leaf_names = _names(prefix, GATES)

    def gates(self, u, h):
        """Fresh activations sigmoid(i, f, o) and tanh(g) of one step.

        Each gate's pre-activation is (u W + h U) + b from two products of
        its own: a product stacked over the gates sums in another order.
        A single row, where the cost per numpy call dominates, sums and
        adds the bias over the stacked scratch in one call each and runs
        one sigmoid over rows i, f and o.  A batch takes the gates one by
        one into fresh arrays: on the stacked scratch, a B = 100, H = 72
        training epoch ran 5-15% slower, and stacked sigmoid results held
        by the tape raised its peak RSS by about 4 MB (2-core x86 host,
        one OpenBLAS thread).
        """
        if self.scratch is None:
            zs = []
            for w, uw, b in zip(self.ws, self.us, self.bias):
                z = u @ w
                z += h @ uw
                z += b
                zs.append(z)
            return [en._sigmoid(z) for z in zs[:3]], np.tanh(zs[3])
        zx, zh = self.scratch
        for k in range(4):
            np.dot(u, self.ws[k], out=zx[k])
            np.dot(h, self.us[k], out=zh[k])
        zx += zh
        zx += self.bias
        return en._sigmoid(zx[:3]), np.tanh(zx[3])

    def step(self, state, u, tape=None):
        """``lstm_step`` with this cell's weights."""
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


def lstm_step(state, u, store, tape=None, prefix="fwd"):
    """Standard LSTM cell: sigmoid gates, tanh candidate and output.

    On a tape the step records two fused ops, the new cell state c and
    the new output h.  Their hand-derived adjoints keep only u, h, c and
    the four gate activations of the step (the h adjoint recomputes
    tanh(c)), and follow the generic ops' adjoints product for product
    and in their order, so the gradients equal those of the cell spelled
    out in engine ops.
    """
    return _Cell(store, prefix, len(u)).step(state, u, tape)


def _window_cell(cell, store, prefix, rows):
    """``cell`` as a function of (state, u, tape); the fused cell binds its
    weights once for the window."""
    if cell is lstm_step:
        return _Cell(store, prefix, rows).step
    return lambda state, u, tape: cell(state, u, store, tape, prefix=prefix)


def _zero_state(b, hidden, tape):
    h = np.zeros((b, hidden))
    c = np.zeros((b, hidden))
    if tape is None:
        return h, c
    return tape.const(h), tape.const(c)


def forward(batch, store, tape=None, cell=lstm_step, *, final_only=False):
    """The window's pass, bidirectional when the store is (unidirectional:
    a read-out and loss after every step, or with ``final_only`` one
    read-out of the final state and no loss, see ``model.unroll``).
    ``cell`` may replace the fused cell for tests, as a function with the
    signature of ``lstm_step``."""
    if is_bidirectional(store):
        return forward_bidirectional(batch, store, tape, cell, final_only=final_only)
    feats = batch.features_with_dt()
    cell = _window_cell(cell, store, "fwd", batch.size)

    def step(state, i):
        return cell(state, feats[:, i, :], tape)

    return unroll(batch, store, _zero_state(batch.size, hidden_dim_of(store), tape), step,
                  tape, hidden=lambda state: state[0], final_only=final_only)


def forward_bidirectional(batch, store, tape=None, cell=lstm_step, final_only=False):
    """Both directions over the whole window; classify the joined final
    states (no loss with ``final_only``)."""
    feats = batch.features_with_dt()
    b, s = batch.size, batch.steps
    hidden = hidden_dim_of(store)
    fwd = _zero_state(b, hidden, tape)
    bwd = _zero_state(b, hidden, tape)
    fwd_cell, bwd_cell = (_window_cell(cell, store, prefix, b) for prefix in ("fwd", "bwd"))
    for i in range(s):
        fwd = fwd_cell(fwd, feats[:, i, :], tape)
        bwd = bwd_cell(bwd, feats[:, s - 1 - i, :], tape)
    joined = en.concat(fwd[0], bwd[0])
    z = classify(joined, store, tape)
    with_loss = not final_only and bool(np.all(batch.labels >= 0))
    loss_node = None
    if with_loss:
        loss_node, _ = en.softmax_cross_entropy(z, batch.labels)
    return ForwardResult(logits=_val(z)[:, None, :], loss_node=loss_node)


def backward_bptt(batch, store, cell=lstm_step):
    """Exact gradients of the window loss for every parameter."""
    tape = en.Tape()
    return gradients(tape, forward(batch, store, tape=tape, cell=cell))


class OnlineLstm(OnlineSession):
    """Streamed unidirectional inference, equal to the batched prefix.

    A session binds its own cell once, so sessions on one store may run
    in parallel threads.
    """

    def __init__(self, store, stats, sensor_dims):
        if is_bidirectional(store):
            raise ValueError("a bidirectional model cannot run online")
        self._cell = _Cell(store, "fwd", 1)
        super().__init__(store, stats, sensor_dims)

    def reset(self):
        super().reset()
        self.state = _zero_state(1, hidden_dim_of(self.store), None)

    def observe(self, event):
        dtau = self._gap(event)
        self.state = self._cell.step(self.state, np.array([(*self._input(event), dtau)]))
        return self._predict(self.state[0])

    def replay(self, seq, chunk):
        """(timestamp, class, posterior) of each event of a decoded
        recording, equal to a fresh session's ``observe`` bit for bit: one
        iterable of them per ``chunk`` events.

        Each chunk builds the feature and gap columns of its own events, so
        memory grows with ``chunk``, not with the recording; each event
        then runs the step and the read-out product into its row of the
        chunk's logits, and the bias, arg-max and softmax run once per
        chunk.  The session's own state is left as it is.
        """
        stats, wc, bc = self.stats, self._wc, self._bc
        feats = np.zeros((chunk, INPUT_DIM))
        logits = np.empty((chunk, wc.shape[1]))
        step = self._cell.step

        def chunks(state):
            for lo in range(0, len(seq), chunk):
                hi = min(lo + chunk, len(seq))
                lead = int(lo == 0)  # the recording's first event keeps a zero gap
                feats[:hi - lo, :3] = normalize_sequence(seq, lo, hi)
                feats[lead:hi - lo, 3] = normalize_dt(
                    np.maximum(np.diff(seq.ts[lo - 1 + lead:hi]), 0), stats)
                for i in range(hi - lo):
                    state = step(state, feats[i:i + 1])
                    np.dot(state[0], wc, out=logits[i:i + 1])
                z = logits[:hi - lo]
                z += bc
                yield zip(seq.ts[lo:hi].tolist(), np.argmax(z, axis=1).tolist(),
                          en.softmax(z, axis=1).tolist())

        return chunks(_zero_state(1, hidden_dim_of(self.store), None))
