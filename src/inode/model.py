"""Input-filtering neural ODE classifier.

The latent state follows h' = f(h, u) with a small MLP for f,

    f(h, u) = FC3(tanh(FC2(tanh([FC1(h), FCu(u)]))))

integrated by explicit Euler steps sized by the normalized inter-event
gaps, with a linear read-out g(h) = FCc(h) after every step.  Training
runs the whole window on a tape and differentiates it exactly (standard
backpropagation through time); online inference advances one event at a
time with sample-and-hold inputs.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import engine as en
from .params import init_store
from .preprocess import (CLAMP_WARNING, REGRESSION_WARNING, clamped_input, normalize_dt,
                         normalize_sequence)

STATE_DIM = 30
WIDTH = 128
FEATURES = 3


def layout(n_classes, state_dim, width, learnable_h0):
    """``(name, (rows, cols), drawn)`` of every weight, in store order: the
    weights are drawn, the biases and ``h0`` start at zero.  ``h0`` leads,
    so a file cut anywhere loses a weight that every store has."""
    return [*([("h0", (1, state_dim), False)] if learnable_h0 else []),
            ("fc1_w", (state_dim, width), True), ("fc1_b", (1, width), False),
            ("fcu_w", (FEATURES, width), True), ("fcu_b", (1, width), False),
            ("fc2_w", (2 * width, width), True), ("fc2_b", (1, width), False),
            ("fc3_w", (width, state_dim), True), ("fc3_b", (1, state_dim), False),
            ("fcc_w", (state_dim, n_classes), True), ("fcc_b", (1, n_classes), False)]


def init_params(rng, n_classes, state_dim=STATE_DIM, width=WIDTH, learnable_h0=False):
    """Fresh parameter store; weights uniform in +-1/sqrt(fan_in), biases zero."""
    return init_store(rng, layout(n_classes, state_dim, width, learnable_h0))


def state_dim_of(store):
    return store["fc1_w"].shape[0]


def _binder(store, tape):
    if tape is None:
        return store.__getitem__
    return lambda name: tape.param(name, store[name])


def _f_layers(h, u, store):
    """f(h, u) for a batch of rows, with the two tanh activations inside it."""
    hidden = np.tanh(np.concatenate(
        [h @ store["fc1_w"] + store["fc1_b"], u @ store["fcu_w"] + store["fcu_b"]], axis=1))
    act = np.tanh(hidden @ store["fc2_w"] + store["fc2_b"])
    return hidden, act, act @ store["fc3_w"] + store["fc3_b"]


def f_eval(h, u, store):
    """State derivative f(h, u) for a batch of rows of plain arrays."""
    return _f_layers(h, u, store)[2]


def euler_step(h, u, dtau, store, tape=None, dynamics=None):
    """One explicit Euler update h + dtau * f(h, u).

    ``dtau`` is a [B x 1] column (or scalar) of normalized steps;
    ``dynamics`` may replace f for solver tests, as a function
    ``(h, u, store, tape)`` built from engine ops.  Without it the step is
    one fused op: on a tape it records a single node whose adjoint reuses
    h, u, dtau and the two tanh activations, so nothing else of the step
    stays alive until backward.
    """
    if dynamics is not None:
        return en.add(h, en.mul(dtau, dynamics(h, u, store, tape)))
    hv = _val(h)
    hidden, act, dh = _f_layers(hv, u, store)
    out = hv + dtau * dh
    if tape is None:
        return out
    w1, w2, w3 = store["fc1_w"], store["fc2_w"], store["fc3_w"]
    width = w1.shape[1]

    # the generic ops' adjoints, product for product and in their order,
    # so the gradients equal those of the unfused tape bit for bit
    def grad_fn(g):
        gd = g * dtau
        gz2 = (gd @ w3.T) * (1.0 - act * act)
        gz1 = (gz2 @ w2.T) * (1.0 - hidden * hidden)
        gh, gu = gz1[:, :width], gz1[:, width:]
        return (g + gh @ w1.T,
                hv.T @ gh, gh.sum(axis=0, keepdims=True),
                u.T @ gu, gu.sum(axis=0, keepdims=True),
                hidden.T @ gz2, gz2.sum(axis=0, keepdims=True),
                act.T @ gd, gd.sum(axis=0, keepdims=True))

    p = _binder(store, tape)
    parents = (h, p("fc1_w"), p("fc1_b"), p("fcu_w"), p("fcu_b"),
               p("fc2_w"), p("fc2_b"), p("fc3_w"), p("fc3_b"))
    return tape.record(out, parents, grad_fn)


def classify(h, store, tape=None):
    """Read-out logits g(h)."""
    p = _binder(store, tape)
    return en.add(en.matmul(h, p("fcc_w")), p("fcc_b"))


@dataclass
class ForwardResult:
    logits: np.ndarray          # [B x S x C], one read-out per step ([B x 1 x C] for a bi-LSTM)
    loss_node: object           # scalar mean loss, traced when a tape was given; None unlabeled

    @property
    def loss(self):
        return None if self.loss_node is None else float(_val(self.loss_node))


def _val(x):
    return x.value if isinstance(x, en.Node) else x


def unroll(batch, store, state, step, tape, hidden=lambda state: state):
    """Run ``step(state, i)`` over the window's S steps with a read-out of
    ``hidden(state)`` after each.  The loss is the mean cross-entropy over
    all steps and batch rows; it is None when any label is missing."""
    b, s = batch.size, batch.steps
    with_loss = bool(np.all(batch.labels >= 0))
    logits = np.empty((b, s, store["fcc_w"].shape[1]))
    loss_acc = None
    for i in range(s):
        state = step(state, i)
        z = classify(hidden(state), store, tape)
        logits[:, i, :] = _val(z)
        if with_loss:
            step_loss, _ = en.softmax_cross_entropy(z, batch.labels)
            loss_acc = step_loss if loss_acc is None else en.add(loss_acc, step_loss)
    loss_node = en.scale(loss_acc, 1.0 / s) if loss_acc is not None else None
    return ForwardResult(logits=logits, loss_node=loss_node)


def gradients(tape, result):
    """``(grads, loss)`` of a forward pass recorded on ``tape``."""
    if result.loss_node is None:
        raise ValueError("cannot differentiate an unlabeled batch")
    return en.backward(tape, result.loss_node), result.loss


def forward(batch, store, dynamics=None, tape=None):
    """Run the full window: S Euler steps, a read-out and loss after each.

    With a tape, the returned loss node supports exact gradients via
    ``engine.backward``.  ``tape`` stays the fourth parameter, where the
    benchmark's span namer looks for it when it is passed by position.
    """
    b, n = batch.size, state_dim_of(store)
    if "h0" in store:
        p = _binder(store, tape)
        h = en.add(np.zeros((b, n)), p("h0"))
    else:
        h = np.zeros((b, n)) if tape is None else tape.const(np.zeros((b, n)))

    def step(h, i):
        return euler_step(h, batch.inputs[:, i, :], batch.dtaus[:, i:i + 1], store, tape, dynamics)

    return unroll(batch, store, h, step, tape)


def backward_bptt(batch, store, dynamics=None):
    """Exact gradients of the mean window loss for every parameter.

    Returns ``(grads, loss)`` with one gradient array per store entry.
    """
    tape = en.Tape()
    return gradients(tape, forward(batch, store, tape=tape, dynamics=dynamics))


class OnlineSession:
    """The state every event-by-event classifier shares.

    An event older than its predecessor is clamped to a zero gap and
    counted in ``regressions``, an event outside the sensor is clamped to
    its edge and counted in ``clamped``.  Each warns once per session with
    one fixed text; ``reset`` zeroes both counts.
    """

    def __init__(self, store, stats, sensor_dims):
        self.store = store
        self._wc, self._bc = store["fcc_w"], store["fcc_b"]
        self.stats = stats
        self.sensor_dims = sensor_dims
        self.reset()

    def reset(self):
        self._last_t = None
        self.regressions = 0
        self.clamped = 0

    def _gap(self, event):
        """Normalized gap since the previous event, 0 for the first one."""
        dt = 0 if self._last_t is None else event.t - self._last_t
        if dt < 0:
            self.regressions += 1
            if self.regressions == 1:
                warnings.warn(REGRESSION_WARNING, stacklevel=3)
            dt = 0
        self._last_t = event.t
        return normalize_dt(dt, self.stats)

    def _input(self, event):
        """Features (x, y, p) of the event, its coordinates clamped into the sensor."""
        u, clamped = clamped_input(event, self.sensor_dims)
        if clamped:
            self.clamped += 1
            if self.clamped == 1:
                warnings.warn(CLAMP_WARNING, stacklevel=3)
        return u

    def _predict(self, h):
        """(class, posterior row) of a [1 x state] row; ties go to the lowest class."""
        z = h @ self._wc
        z += self._bc
        return int(np.argmax(z[0])), en.softmax(z, axis=1)[0]


class OnlineClassifier(OnlineSession):
    """Event-by-event inference with sample-and-hold inputs.

    Each arriving event first advances the state across the elapsed gap
    using the input held from the previous event (the normalized step is
    clipped at dmax, so an arbitrarily long silence costs one capped
    step), then emits a read-out and holds the new input.  Run over the
    S+1 events of a sampled window this reproduces ``forward`` exactly.
    """

    def reset(self):
        super().reset()
        self.state = (self.store["h0"].copy() if "h0" in self.store
                      else np.zeros((1, state_dim_of(self.store))))
        self._held_u = None

    def observe(self, event):
        """Consume one event; returns (predicted class, posterior row)."""
        dtau = self._gap(event)
        if self._held_u is not None:
            self.state = euler_step(self.state, self._held_u, np.asarray(dtau).reshape(1, 1),
                                    self.store)
        self._held_u = self._input(event).reshape(1, FEATURES)
        return self._predict(self.state)

    def replay(self, seq, chunk):
        """(timestamp, class, posterior) of each event of a decoded
        recording, as ``observe`` would give them from this session's state
        with a zero first gap: one iterable of them per ``chunk`` events.
        The input half of FC2 runs for the whole recording before this
        returns, the read-outs and softmax once per chunk, and only the
        state recursion per event.

        FC2 is split, tanh(FC1 h) W2_top + (tanh(FCu u) W2_bot + b2), which
        groups its sum differently from ``observe``: timestamps and arg-max
        are the same, the posteriors agree within 1e-9, not bit for bit.
        """
        store = self.store
        w1, b1 = store["fc1_w"], store["fc1_b"][0]
        w2 = store["fc2_w"]
        w2_top = np.ascontiguousarray(w2[: w2.shape[0] // 2])
        w2_bot = np.ascontiguousarray(w2[w2.shape[0] // 2:])
        b2 = store["fc2_b"][0]
        w3, b3 = store["fc3_w"], store["fc3_b"][0]
        gaps = np.zeros(len(seq))
        gaps[1:] = normalize_dt(np.maximum(np.diff(seq.ts), 0), self.stats)
        # event i advances the state across gaps[i] using the input held from
        # event i-1, so the projection of feats[i-1] pairs with gaps[i]
        proj = np.tanh(normalize_sequence(seq) @ store["fcu_w"] + store["fcu_b"][0]) @ w2_bot + b2
        states = np.empty((len(seq), w1.shape[0]))

        def chunks(h, s_buf, t_buf, d_buf):
            for lo in range(0, len(seq), chunk):
                hi = min(lo + chunk, len(seq))
                for i in range(lo, hi):
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
                logits = states[lo:hi] @ self._wc + self._bc
                yield zip(seq.ts[lo:hi].tolist(), np.argmax(logits, axis=1).tolist(),
                          en.softmax(logits, axis=1).tolist())

        return chunks(self.state[0], np.empty(w1.shape[1]), np.empty(w1.shape[1]),
                      np.empty(w1.shape[0]))
