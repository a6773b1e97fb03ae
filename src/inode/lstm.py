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


def _pre(u, h, store, prefix, gate):
    """A gate's pre-activation (u W + h U) + b: two products per gate."""
    z = u @ store[f"{prefix}_w{gate}"]
    z += h @ store[f"{prefix}_u{gate}"]
    z += store[f"{prefix}_b{gate}"]
    return z


def lstm_step(state, u, store, tape=None, prefix="fwd"):
    """Standard LSTM cell: sigmoid gates, tanh candidate and output.

    On a tape the step records two fused ops, the new cell state c and
    the new output h.  Their hand-derived adjoints keep only u, h, c, the
    four gate activations and tanh(c) of the step, and follow the
    generic ops' adjoints product for product and in their order, so the
    gradients equal those of the cell spelled out in engine ops.
    """
    h, c = state
    hv, cv = _val(h), _val(c)
    i = en.sigmoid(_pre(u, hv, store, prefix, "i"))
    f = en.sigmoid(_pre(u, hv, store, prefix, "f"))
    g = np.tanh(_pre(u, hv, store, prefix, "g"))
    o = en.sigmoid(_pre(u, hv, store, prefix, "o"))
    c_new = f * cv + i * g
    tc = np.tanh(c_new)
    h_new = o * tc
    if tape is None:
        return h_new, c_new
    # bind the leaves in the generic cell's order, which fixes the order
    # of the gradient dictionary that ``engine.backward`` returns
    leaves = {gate: [tape.param(name, store[name])
                     for name in (f"{prefix}_w{gate}", f"{prefix}_u{gate}", f"{prefix}_b{gate}")]
              for gate in GATES}
    ui, uf, ug, uo = (leaves[gate][1].value for gate in GATES)

    def gate_grads(gz):
        return u.T @ gz, hv.T @ gz, gz.sum(axis=0, keepdims=True)

    def c_grad(gc):
        gi = gc * g * i * (1.0 - i)
        gf = gc * cv * f * (1.0 - f)
        gg = gc * i * (1.0 - g * g)
        # h feeds one product per gate; listing it once per gate, in the
        # generic tape's reverse order, keeps its summation order
        return (gc * f, gg @ ug.T, gf @ uf.T, gi @ ui.T,
                *gate_grads(gi), *gate_grads(gf), *gate_grads(gg))

    def h_grad(gh):
        go = gh * tc * o * (1.0 - o)
        return (gh * o * (1.0 - tc * tc), go @ uo.T, *gate_grads(go))

    c_node = tape.record(c_new, (c, h, h, h, *leaves["i"], *leaves["f"], *leaves["g"]), c_grad)
    h_node = tape.record(h_new, (c_node, h, *leaves["o"]), h_grad)
    return h_node, c_node


def _zero_state(b, hidden, tape):
    h = np.zeros((b, hidden))
    c = np.zeros((b, hidden))
    if tape is None:
        return h, c
    return tape.const(h), tape.const(c)


def forward(batch, store, tape=None, cell=lstm_step):
    """The window's pass, bidirectional when the store is (unidirectional:
    a read-out and loss after every step).  ``cell`` may replace the fused
    cell for tests, as a function with the signature of ``lstm_step``."""
    if is_bidirectional(store):
        return forward_bidirectional(batch, store, tape, cell)
    feats = batch.features_with_dt()

    def step(state, i):
        return cell(state, feats[:, i, :], store, tape)

    return unroll(batch, store, _zero_state(batch.size, hidden_dim_of(store), tape), step,
                  tape, hidden=lambda state: state[0])


def forward_bidirectional(batch, store, tape=None, cell=lstm_step):
    """Both directions over the whole window; classify the joined final states."""
    feats = batch.features_with_dt()
    b, s = batch.size, batch.steps
    hidden = hidden_dim_of(store)
    fwd = _zero_state(b, hidden, tape)
    bwd = _zero_state(b, hidden, tape)
    for i in range(s):
        fwd = cell(fwd, feats[:, i, :], store, tape, prefix="fwd")
        bwd = cell(bwd, feats[:, s - 1 - i, :], store, tape, prefix="bwd")
    joined = en.concat(fwd[0], bwd[0])
    z = classify(joined, store, tape)
    with_loss = bool(np.all(batch.labels >= 0))
    loss_node = None
    if with_loss:
        loss_node, _ = en.softmax_cross_entropy(z, batch.labels)
    return ForwardResult(logits=_val(z)[:, None, :], loss_node=loss_node,
                         final_state=_val(joined))


def backward_bptt(batch, store, cell=lstm_step):
    """Exact gradients of the window loss for every parameter."""
    tape = en.Tape()
    return gradients(tape, forward(batch, store, tape=tape, cell=cell))


class OnlineLstm(OnlineSession):
    """Streamed unidirectional inference, equal to the batched prefix."""

    def __init__(self, store, stats, sensor_dims):
        if is_bidirectional(store):
            raise ValueError("a bidirectional model cannot run online")
        super().__init__(store, stats, sensor_dims)

    def reset(self):
        super().reset()
        self.state = _zero_state(1, hidden_dim_of(self.store), None)

    def observe(self, event):
        dtau = self._gap(event)
        u = np.concatenate([self._input(event), [dtau]]).reshape(1, INPUT_DIM)
        self.state = lstm_step(self.state, u, self.store)
        return self._predict(self.state[0])
