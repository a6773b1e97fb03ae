"""Input-filtering neural ODE classifier.

The latent state follows h' = f(h, u) with a small MLP for f,

    f(h, u) = FC3(tanh(FC2(tanh([FC1(h), FCu(u)]))))

(FC2 computed as the sum of its two row halves' products, see ``_Step``),
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
from .preprocess import CLAMP_WARNING, REGRESSION_WARNING, clamped_input, normalize_dt

STATE_DIM = 30
WIDTH = 128
FEATURES = 3
# the most pixel-polarity rows of a replay's projection table, 4 MB at the
# default width; a 34 x 34 sensor has 2,312
_TABLE_ROWS = 1 << 12


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


class _Step:
    """The fused Euler step of one store, the weights of f bound once.

    FC2 runs split, ``tanh(FC1 h) W2_top + P(u)`` with the projection
    ``P(u) = tanh(FCu u) W2_bot + b2`` over the row halves of ``fc2_w``, so
    a replay can run ``P`` once per pixel and polarity and still equal the
    live path bit for bit.  Biases are added in place.  A batch gets fresh
    arrays per step, which its tape keeps for the adjoint.  A single-row
    step (``single_row=True``, the live path) reuses one set of buffers and
    fills them with ``np.dot``, which costs less per call than
    ``np.matmul`` and gives the same bits; it must not run on a tape nor
    be shared between threads.
    """

    def __init__(self, store, single_row=False):
        self.store = store
        self.w1, self.b1 = store["fc1_w"], store["fc1_b"]
        self.wu, self.bu = store["fcu_w"], store["fcu_b"]
        self.w2, self.b2 = store["fc2_w"], store["fc2_b"]
        self.w2_top, self.w2_bot = np.split(self.w2, 2)
        self.w3, self.b3 = store["fc3_w"], store["fc3_b"]
        self._dot = np.dot if single_row else np.matmul
        self._buffers = self._empty(1) if single_row else None

    def _empty(self, rows):
        width = self.w1.shape[1]
        hidden = np.empty((rows, 2 * width))
        return (hidden, hidden[:, :width], hidden[:, width:], np.empty((rows, width)),
                np.empty((rows, width)), np.empty((rows, self.w3.shape[1])))

    def project(self, u, tanh_u, out):
        """``P(u)`` into ``out``, ``tanh(FCu u)`` into ``tanh_u``."""
        dot = self._dot
        dot(u, self.wu, out=tanh_u)
        tanh_u += self.bu
        np.tanh(tanh_u, out=tanh_u)
        dot(tanh_u, self.w2_bot, out=out)
        out += self.b2

    def layers(self, h, u):
        """``(hidden, act, f(h, u))`` for rows of plain arrays: the two
        tanh activations and the state derivative."""
        hidden, lo, hi, top, act, dh = self._buffers or self._empty(len(h))
        dot = self._dot
        self.project(u, hi, act)
        dot(h, self.w1, out=lo)
        lo += self.b1
        np.tanh(lo, out=lo)
        dot(lo, self.w2_top, out=top)
        act += top
        np.tanh(act, out=act)
        dot(act, self.w3, out=dh)
        dh += self.b3
        return hidden, act, dh

    def step(self, h, u, dtau, tape=None):
        """``euler_step`` with this step's weights; a fresh state."""
        hv = _val(h)
        hidden, act, dh = self.layers(hv, u)
        dh *= dtau
        out = hv + dh
        if tape is None:
            return out
        w1, w2, w3 = self.w1, self.w2, self.w3
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

        p = _binder(self.store, tape)
        parents = (h, p("fc1_w"), p("fc1_b"), p("fcu_w"), p("fcu_b"),
                   p("fc2_w"), p("fc2_b"), p("fc3_w"), p("fc3_b"))
        return tape.record(out, parents, grad_fn)


def f_eval(h, u, store):
    """State derivative f(h, u) for a batch of rows of plain arrays."""
    return _Step(store).layers(h, u)[2]


def euler_step(h, u, dtau, store, tape=None, dynamics=None):
    """One explicit Euler update h + dtau * f(h, u).

    ``dtau`` is a [B x 1] column (or scalar) of normalized steps;
    ``dynamics`` may replace f for solver tests, as a function
    ``(h, u, store, tape)`` built from engine ops.  Without it the step is
    one fused op: on a tape it records a single node whose adjoint reuses
    h, u, dtau and the two tanh activations, so nothing else of the step
    stays alive until backward.
    """
    if dynamics is None:
        return _Step(store).step(h, u, dtau, tape)
    return en.add(h, en.mul(dtau, dynamics(h, u, store, tape)))


def classify(h, store, tape=None):
    """Read-out logits g(h)."""
    p = _binder(store, tape)
    return en.add(en.matmul(h, p("fcc_w")), p("fcc_b"))


@dataclass
class ForwardResult:
    logits: np.ndarray          # [B x S x C], one read-out per step ([B x 1 x C] for a
                                # final-only pass or a bi-LSTM)
    loss_node: object           # scalar mean loss, traced when a tape was given; None unlabeled

    @property
    def loss(self):
        return None if self.loss_node is None else float(_val(self.loss_node))


def _val(x):
    return x.value if isinstance(x, en.Node) else x


def unroll(batch, store, state, step, tape, hidden=lambda state: state, final_only=False):
    """Run ``step(state, i)`` over the window's S steps with a read-out of
    ``hidden(state)`` after each.  The loss is the mean cross-entropy over
    all steps and batch rows; it is None when any label is missing.

    With ``final_only`` the S steps run without a read-out, and only the
    final state is read out: [B x 1 x C] logits, the last step's bit for
    bit, and no loss.
    """
    b, s = batch.size, batch.steps
    if final_only:
        for i in range(s):
            state = step(state, i)
        return ForwardResult(logits=_val(classify(hidden(state), store, tape))[:, None, :],
                             loss_node=None)
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


def _initial_state(store, rows, tape):
    """The [rows x state] start of a window: ``h0`` when learnable, else zeros."""
    h = np.zeros((rows, state_dim_of(store)))
    if "h0" in store:
        return en.add(h, _binder(store, tape)("h0"))
    return h if tape is None else tape.const(h)


def forward(batch, store, *, tape=None, final_only=False):
    """Run the full window: S Euler steps, a read-out and loss after each
    (``final_only``: one read-out of the final state, see ``unroll``).

    With a tape, the returned loss node supports exact gradients via
    ``engine.backward``.
    """
    advance = _Step(store).step  # binds its weights once for the window

    def step(h, i):
        return advance(h, batch.inputs[:, i, :], batch.dtaus[:, i:i + 1], tape)

    return unroll(batch, store, _initial_state(store, batch.size, tape), step, tape,
                  final_only=final_only)


def backward_bptt(batch, store):
    """Exact gradients of the mean window loss for every parameter.

    Returns ``(grads, loss)`` with one gradient array per store entry.
    """
    tape = en.Tape()
    return gradients(tape, forward(batch, store, tape=tape))


class OnlineSession:
    """The state every event-by-event classifier shares.

    An event older than its predecessor is clamped to a zero gap and
    counted in ``regressions``, an event outside the sensor is clamped to
    its edge and counted in ``clamped``.  Each warns once per session with
    one fixed text; ``reset`` zeroes both counts.

    The per-event helpers work on Python scalars where the batched code
    works on arrays, with the same IEEE operations in the same order, so
    each gap, feature and posterior equals its batched counterpart bit for
    bit.
    """

    def __init__(self, store, stats, sensor_dims):
        self.store = store
        self._wc, self._bc = store["fcc_w"], store["fcc_b"]
        self.stats = stats
        self._dq, self._dmax = float(stats.dq), float(stats.dmax)
        self.sensor_dims = sensor_dims
        self.reset()

    def reset(self):
        self._last_t = None
        self.regressions = 0
        self.clamped = 0

    def _gap(self, event):
        """Normalized gap since the previous event, 0 for the first one:
        ``normalize_dt`` on a float."""
        dt = 0 if self._last_t is None else event.t - self._last_t
        if dt < 0:
            self.regressions += 1
            if self.regressions == 1:
                warnings.warn(REGRESSION_WARNING, stacklevel=3)
            dt = 0
        gap = min(dt / self._dq, self._dmax)  # before the state changes, as it may raise
        self._last_t = event.t
        return gap

    def _input(self, event):
        """Features (x, y, p) of the event, its coordinates clamped into the sensor."""
        u, clamped = clamped_input(event, self.sensor_dims)
        if clamped:
            self.clamped += 1
            if self.clamped == 1:
                warnings.warn(CLAMP_WARNING, stacklevel=3)
        return u

    def _predict(self, h):
        """(class, fresh posterior row) of a [1 x state] row; ties go to the
        lowest class.  The softmax is ``engine.softmax``'s on the one row."""
        z = h @ self._wc
        z += self._bc
        z = z[0]
        e = np.exp(z - z.max())
        e /= e.sum()
        return int(z.argmax()), e

    def replay(self, seq, chunk):
        """(timestamp, class, posterior) of each event of a decoded
        recording, bit for bit as ``observe`` would give them from this
        session's state with a zero first gap: one iterable of them per
        ``chunk`` events.  The session's own state is left as it is.

        The kind's ``_recursion(seq, states)`` puts the session's state in
        row 0 of ``states`` and returns ``fill(lo, hi, gaps)``, which writes
        the states after events ``lo:hi`` into the rows after it, each
        equal to ``observe``'s.  Each chunk is read out in one broadcast
        product, one single-row product per state as ``_predict`` runs it
        (a gemm rounds a row by its neighbours), so the text does not
        depend on ``chunk``, and memory grows with ``chunk``, not with the
        recording.  ``EventSequence`` refuses decreasing timestamps, so no
        gap needs clamping.
        """
        wc, bc, stats = self._wc, self._bc, self.stats
        # row 0 holds the state before a chunk, row k + 1 the state after its event k
        states = np.empty((chunk + 1, 1, wc.shape[0]))
        fill = self._recursion(seq, states)

        def chunks():
            for lo in range(0, len(seq), chunk):
                hi = min(lo + chunk, len(seq))
                n = hi - lo
                # the gap of each event but the recording's first, which has none
                lead = int(lo == 0)
                fill(lo, hi, normalize_dt(np.diff(seq.ts[lo - 1 + lead:hi]), stats))
                z = (states[1:n + 1] @ wc)[:, 0]
                z += bc
                states[0] = states[n]
                yield zip(seq.ts[lo:hi].tolist(), np.argmax(z, axis=1).tolist(),
                          en.softmax(z, axis=1).tolist())

        return chunks()


class OnlineClassifier(OnlineSession):
    """Event-by-event inference with sample-and-hold inputs.

    Each arriving event first advances the state across the elapsed gap
    using the input held from the previous event (the normalized step is
    clipped at dmax, so an arbitrarily long silence costs one capped
    step), then emits a read-out and holds the new input.  Run over the
    S+1 events of a sampled window this reproduces ``forward`` exactly.
    A session binds its own single-row step once, so sessions on one
    store may run in parallel threads.
    """

    def __init__(self, store, stats, sensor_dims):
        self._step = _Step(store, single_row=True)
        super().__init__(store, stats, sensor_dims)

    def reset(self):
        super().reset()
        self.state = _initial_state(self.store, 1, None)
        self._held_u = None

    def observe(self, event):
        """Consume one event; returns (predicted class, posterior row)."""
        dtau = self._gap(event)
        if self._held_u is not None:
            self.state = self._step.step(self.state, self._held_u, dtau)
        self._held_u = np.array([self._input(event)])
        return self._predict(self.state)

    def _recursion(self, seq, states):
        """``observe``'s step per event; the recording's first event only
        reads out.  ``P(u)`` depends on an event's pixel and polarity alone:
        one table row each, filled on first use by ``observe``'s single-row
        ``_Step.project``, serves the whole replay (past ``_TABLE_ROWS`` of
        them, the table holds the distinct pairs of one chunk).  The rest of
        the step runs on 1-D rows, with ``_Step``'s products and sums in its
        order; a 1-D ``np.dot`` has the bits of the [1 x n] one.
        """
        step, dims = self._step, seq.sensor_dims
        w1, b1, w2_top, w3, b3 = step.w1, step.b1[0], step.w2_top, step.w3, step.b3[0]
        n_keys = 2 * dims[0] * dims[1]
        per_chunk = n_keys > _TABLE_ROWS
        table = np.empty((len(states) if per_chunk else n_keys, w1.shape[1]))
        filled, tanh_u = np.zeros(len(table), dtype=bool), np.empty((1, w1.shape[1]))
        states[0] = self.state

        def projections(lo, hi):
            keys = (seq.xs[lo:hi] * dims[1] + seq.ys[lo:hi]) * 2 + seq.ps[lo:hi]
            if per_chunk:
                keys = np.unique(keys, return_inverse=True)[1]
                filled[:] = False
            for k in np.flatnonzero(~filled[keys]).tolist():
                key = keys[k]
                if not filled[key]:  # a key new to the table may recur in the chunk
                    u = np.array([clamped_input(seq.event(lo + k), dims)[0]])
                    step.project(u, tanh_u, table[key:key + 1])
                    filled[key] = True
            return table[keys]

        # the per-event calls are bound locally and given their outputs by
        # position, which costs less per call than a global and a keyword
        def fill(lo, hi, gaps, s_buf=np.empty(w1.shape[1]), t_buf=np.empty(w1.shape[1]),
                 d_buf=np.empty(w1.shape[0]), dot=np.dot, add=np.add, mul=np.multiply,
                 tanh=np.tanh):
            lead = int(lo == 0)
            if lead:
                states[1] = states[0]
            # event i advances across the gap since event i-1 with the
            # input held from it, so the projections start one event early
            held_rows = projections(lo - 1 + lead, hi - 1)
            h = states[0, 0]
            for out, held, gap in zip(states[1 + lead:hi - lo + 1, 0], held_rows, gaps.tolist()):
                dot(h, w1, s_buf)
                add(s_buf, b1, s_buf)
                tanh(s_buf, s_buf)
                dot(s_buf, w2_top, t_buf)
                add(t_buf, held, t_buf)
                tanh(t_buf, t_buf)
                dot(t_buf, w3, d_buf)
                add(d_buf, b3, d_buf)
                mul(d_buf, gap, d_buf)
                h = add(h, d_buf, out)

        return fill
