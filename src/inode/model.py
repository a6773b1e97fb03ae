"""Input-filtering neural ODE classifier.

The latent state follows h' = f(h, u) with a small MLP for f,

    f(h, u) = FC3(tanh(FC2(tanh([FC1(h), FCu(u)]))))

(FC2 computed as the sum of its two row halves' products, see ``_Step``),
integrated by explicit Euler steps sized by the normalized inter-event
gaps, with a linear read-out g(h) = FCc(h) after every step.  Training
runs the whole window on a tape and differentiates it exactly (standard
backpropagation through time); online inference advances one event at a
time with sample-and-hold inputs.  Both run one step body,
``_Step.advance``: on a window's [B x ...] blocks, and on 1-D rows for a
live session and its replay.

The input's share of FC2, ``P(u) = tanh(FCu u) W2_bot + b2``, depends on
the input row alone, and an event window repeats few rows: a 100 x 100
window of 34 x 34 moving dots holds about 800 distinct ones.  So a
window pass projects every distinct row once into a table, of at most
``_TABLE_ROWS`` rows, that its steps read, and a live session (its
``observe`` and its replay) keeps one such table per pixel and polarity,
a direct-mapped cache on a sensor with more pairs than that; each row
has the bits of the product that it replaces.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import engine as en
from .params import init_store
from .preprocess import (CLAMP_WARNING, REGRESSION_WARNING, clamped_input, normalize_dt,
                         normalize_events)

STATE_DIM = 30
WIDTH = 128
FEATURES = 3
# the most rows of a projection table: a session's, a cache of its pixel and
# polarity pairs (a 34 x 34 sensor has 2,312), is 4 MB at the default width, and
# a window's, one per distinct input row with its tanh(FCu u) row, 8 MB
_TABLE_ROWS = 1 << 12
# odd multipliers that mix the bits of a feature row's three columns into
# one key per row
_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
                dtype=np.uint64)


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
    ``P`` can come from a table of the distinct input rows, one product
    over them all (``projections``), and still have the bits of the step's
    own: a window's steps read the one ``tabulate`` builds, and a live
    session keeps one of pixel-polarity pairs (``OnlineClassifier``).

    Every step, a window's (``step``), a live session's and the replay's,
    runs one body, ``advance``, into arrays that its caller allocates
    once: a window pass gets them from ``buffers``, a session binds its
    own 1-D rows.  The step itself holds only its weights and a pass's
    table.
    """

    def __init__(self, store):
        self.store = store
        self.w1, self.b1 = store["fc1_w"], store["fc1_b"][0]
        self.wu, self.bu = store["fcu_w"], store["fcu_b"]
        self.w2, self.b2 = store["fc2_w"], store["fc2_b"]
        self.w2_top, self.w2_bot = np.split(self.w2, 2)
        self.w3, self.b3 = store["fc3_w"], store["fc3_b"][0]
        self._table = None

    def project(self, u, tanh_u, out):
        """``P(u)`` into ``out``, ``tanh(FCu u)`` into ``tanh_u``."""
        np.matmul(u, self.wu, out=tanh_u)
        tanh_u += self.bu
        np.tanh(tanh_u, out=tanh_u)
        np.matmul(tanh_u, self.w2_bot, out=out)
        out += self.b2

    def projections(self, u, single_row):
        """``(tanh(FCu u), P(u))`` of the rows of a [k x 3] block as fresh
        [k x W] arrays, each row with the bits ``project`` gives it in a
        step of one row (``single_row``) or of several.  A broadcast
        product over [k x 1 x 3] runs one single-row product per row.  A
        row of a product over two rows or more has the same bits whatever
        the number of rows (OpenBLAS 0.3.31; the tests pin it), but a
        product over one row is a single-row one, so a lone row of a
        several-row step is projected twice."""
        k, width = len(u), self.w1.shape[1]
        if single_row:
            u = u[:, None]
        elif k == 1:
            u = np.repeat(u, 2, axis=0)
        shape = (*u.shape[:-1], width)
        tanh_u, p = np.empty(shape), np.empty(shape)
        self.project(u, tanh_u, p)
        return tanh_u.reshape(-1, width)[:k], p.reshape(-1, width)[:k]

    def tabulate(self, inputs, traced):
        """Project the distinct rows of a [B x S x 3] window once, into the
        table that ``step`` reads for ``rows``.  Returns the [S x B] table
        row of each step's inputs, or None when the window has more than
        ``_TABLE_ROWS`` distinct rows, counted before anything is projected:
        its steps then project their own.  Rows are told apart by their
        bytes, through one mixed key per row whose groups are checked
        exactly; two distinct rows that share a key also give None.  The
        ``tanh(FCu u)`` table, which only the adjoint reads, is kept when
        ``traced``.  A window of one row takes single-row products, as its
        steps do."""
        b, s, _ = inputs.shape
        flat = np.ascontiguousarray(inputs, dtype=np.float64).reshape(b * s, 3)
        bits = flat.view(np.uint64)
        mixed = (bits ^ bits >> 32) * _MIX
        keys, rows = np.unique(mixed[:, 0] ^ mixed[:, 1] ^ mixed[:, 2], return_inverse=True)
        if len(keys) > _TABLE_ROWS:
            return None
        first = np.empty(len(keys), dtype=np.intp)
        first[rows] = np.arange(b * s)  # one row of each key
        if not np.array_equal(bits[first][rows], bits):
            return None
        tanh_u, p = self.projections(flat[first], single_row=b == 1)
        self._table = p, tanh_u if traced else None
        return np.ascontiguousarray(rows.reshape(b, s).T)

    def buffers(self, b, s, traced):
        """The arrays that a pass of ``s`` steps over ``b`` rows writes
        into, as a function of the step number that gives the step's
        ``(hidden, act, state, lo, p)``: the [B x 2W] tanh activations
        ``[tanh(FC1 h), tanh(FCu u)]`` that the adjoint reads, the [B x W]
        second one, the [B x state] new state, and two [B x W] scratch
        buffers, for ``tanh(FC1 h)`` (first ``tanh(FCu u)``) and ``P(u)``.
        A traced pass gets [S x B x ...] blocks and step i their row i,
        which the tape keeps; an untraced pass, which keeps no ``hidden``
        (None), one set for every step, with two state buffers used in
        turn, so a step never overwrites the state it reads."""
        width, d = self.w1.shape[1], self.w3.shape[1]
        lo, p = np.empty((b, width)), np.empty((b, width))
        if traced:
            hidden, act, states = (np.empty((s, b, n)) for n in (2 * width, width, d))
            return lambda i: (hidden[i], act[i], states[i], lo, p)
        act, states = np.empty((b, width)), np.empty((2, b, d))
        return lambda i: (None, act, states[i % 2], lo, p)

    def advance(self, h, ps, gaps, outs, scratch, dot=np.dot, add=np.add, mul=np.multiply,
                tanh=np.tanh):
        """Euler steps h + f(h, u) dtau from the state ``h``: each of
        ``outs`` in turn gets the state one step on, with the next ``P(u)``
        of ``ps`` and gap of ``gaps``, through the ``scratch`` arrays ``(s,
        t, d)``, which end with ``tanh(FC1 h)``, the second tanh activation
        and ``f(h, u) dtau`` of the last step.  The arrays are the [B x
        ...] ones of a window step (``buffers``) or the 1-D rows of a live
        session and the replay, whose ``np.dot`` has the bits of the [1 x
        n] product; the biases broadcast over either.  An ``outs`` item may
        be ``h`` itself, and ``d`` may be the ``outs`` item when ``h`` is
        not.  The calls are bound locally and given their outputs by
        position, which costs less per call than a global and a keyword."""
        w1, b1, w2_top, w3, b3 = self.w1, self.b1, self.w2_top, self.w3, self.b3
        s_buf, t_buf, d_buf = scratch
        for out, p, gap in zip(outs, ps, gaps):
            dot(h, w1, s_buf)
            add(s_buf, b1, s_buf)
            tanh(s_buf, s_buf)
            dot(s_buf, w2_top, t_buf)
            add(t_buf, p, t_buf)
            tanh(t_buf, t_buf)
            dot(t_buf, w3, d_buf)
            add(d_buf, b3, d_buf)
            mul(d_buf, gap, d_buf)
            h = add(h, d_buf, out)

    def step(self, h, u, dtau, out, tape=None, rows=None):
        """``euler_step`` with this step's weights, into the step buffers
        ``out`` (see ``buffers``): returns their state buffer, or on a tape
        its node.  With ``rows``, the table rows of ``u``, ``P(u)`` comes
        from the table of ``tabulate``, and so does ``tanh(FCu u)`` if the
        table kept it.  ``advance`` works in the contiguous scratch, and a
        traced step copies the halves of the first tanh activation to
        ``hidden``'s strided halves, ``tanh(FCu u)`` before it and
        ``tanh(FC1 h)`` after: a ufunc on a strided view runs one inner
        loop per row, which cost 13 us more per tanh at B = 100, W = 128
        (2-core x86 host), and the bits do not depend on the layout."""
        hidden, act, state, lo, p = out
        hv = _val(h)
        if rows is None:
            self.project(u, lo, p)
        else:
            p_table, tanh_u = self._table
            np.take(p_table, rows, axis=0, out=p, mode="clip")  # "clip" writes unbuffered
            if tanh_u is not None:
                np.take(tanh_u, rows, axis=0, out=lo, mode="clip")
        width = self.w1.shape[1]
        if hidden is not None:
            hidden[:, width:] = lo
        self.advance(hv, (p,), (dtau,), (state,), (lo, act, state))
        if tape is None:
            return state
        hidden[:, :width] = lo
        w1, w2, w3 = self.w1, self.w2, self.w3

        # the generic ops' adjoints, product for product and in their order,
        # so the gradients equal those of the unfused tape bit for bit; FC2's
        # products stay whole, as a product over a half of its rows or
        # columns may round otherwise (OpenBLAS 0.3.31, B = 7, W = 128)
        def grad_fn(g):
            gd = g * dtau
            gz2 = gd @ w3.T
            gz2 *= _tanh_slope(act)
            gz1 = gz2 @ w2.T
            gz1 *= _tanh_slope(hidden)
            gh, gu = gz1[:, :width], gz1[:, width:]
            return (g + gh @ w1.T,
                    hv.T @ gh, gh.sum(axis=0, keepdims=True),
                    u.T @ gu, gu.sum(axis=0, keepdims=True),
                    hidden.T @ gz2, gz2.sum(axis=0, keepdims=True),
                    act.T @ gd, gd.sum(axis=0, keepdims=True))

        param = _binder(self.store, tape)
        parents = (h, param("fc1_w"), param("fc1_b"), param("fcu_w"), param("fcu_b"),
                   param("fc2_w"), param("fc2_b"), param("fc3_w"), param("fc3_b"))
        return tape.record(state, parents, grad_fn)


def _tanh_slope(t):
    """``1 - t * t``, the slope of tanh where it is ``t``, in one fresh array."""
    out = t * t
    return np.subtract(1.0, out, out=out)


def f_eval(h, u, store):
    """State derivative f(h, u) for a batch of rows of plain arrays: the
    ``f(h, u) dtau`` of one step body at ``dtau = 1``."""
    kernel = _Step(store)
    _, act, f, lo, p = kernel.buffers(len(h), 1, traced=False)(0)
    kernel.project(u, lo, p)
    kernel.advance(h, (p,), (1.0,), (np.empty_like(f),), (lo, act, f))  # f * 1.0 is f
    return f


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
        kernel = _Step(store)
        return kernel.step(h, u, dtau, kernel.buffers(len(u), 1, traced=True)(0), tape)
    return en.add(h, en.mul(dtau, dynamics(h, u, store, tape)))


@dataclass
class ForwardResult:
    logits: np.ndarray          # [B x S x C], one read-out per step ([B x 1 x C] for a
                                # final-only pass or a bi-LSTM)
    loss_node: object           # scalar mean loss over the read-outs, traced when a tape was
                                # given; None when a label is missing

    @property
    def loss(self):
        return None if self.loss_node is None else float(_val(self.loss_node))


def _val(x):
    return x.value if isinstance(x, en.Node) else x


class _ReadOut:
    """The read-out g(h) = FCc(h) of a window pass, fused with the
    cross-entropy of its logits and the running sum of the window's
    losses: a call writes the logits of a state into a [B x C] view and
    returns the loss sum so far, on a tape as one node.  The node has the
    products of the generic ops it replaces (``matmul``, ``add``,
    ``softmax_cross_entropy`` and the ``add`` of the sum), so its adjoint
    has their bits; the tape holds the node at its step's place, as the
    order in which a state's gradient terms add up must stay (an LSTM's
    ``h`` gets five).  The labels are checked once per window; without a
    loss (a label missing) the calls return None."""

    def __init__(self, store, labels, tape):
        self.tape = tape
        self.wc, self.bc = store["fcc_w"], store["fcc_b"]
        self.labels = labels if np.all(labels >= 0) else None
        if self.labels is not None:
            en.check_labels(labels, self.wc.shape[1])
            self.rows = np.arange(len(labels))

    def __call__(self, h, out, acc=None):
        hv = _val(h)
        np.matmul(hv, self.wc, out=out)
        out += self.bc
        labels, tape = self.labels, self.tape
        if labels is None:
            return None
        rows, wc = self.rows, self.wc
        loss, e, denom = en._cross_entropy(out, labels, rows)
        total = loss if acc is None else _val(acc) + loss
        if tape is None:
            return total

        def grad_fn(g):
            gl = en._cross_entropy_grad(e, denom, labels, rows, g)
            return (gl @ wc.T, hv.T @ gl, gl.sum(axis=0, keepdims=True), g)

        parents = (h, tape.param("fcc_w", wc), tape.param("fcc_b", self.bc))
        return tape.record(total, parents if acc is None else (*parents, acc), grad_fn)


def unroll(batch, store, state, step, tape, hidden=lambda state: state, final_only=False):
    """Run ``step(state, i)`` over the window's S steps with a read-out of
    ``hidden(state)`` after each (``_ReadOut``).  The loss is the mean
    cross-entropy over all steps and batch rows; it is None when any label
    is missing.

    With ``final_only`` the S steps run without a read-out, and only the
    final state is read out: [B x 1 x C] logits, the last step's bit for
    bit, and that read-out's cross-entropy as the loss.
    """
    b, s = batch.size, batch.steps
    read_out = _ReadOut(store, batch.labels, tape)
    if final_only:
        for i in range(s):
            state = step(state, i)
        logits = np.empty((b, 1, read_out.wc.shape[1]))
        return ForwardResult(logits=logits, loss_node=read_out(hidden(state), logits[:, 0]))
    logits = np.empty((b, s, read_out.wc.shape[1]))
    loss_sum = None
    for i in range(s):
        state = step(state, i)
        loss_sum = read_out(hidden(state), logits[:, i], loss_sum)
    loss_node = en.scale(loss_sum, 1.0 / s) if loss_sum is not None else None
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
    """Run the full window through ``unroll``: S Euler steps, a read-out
    and loss after each (``final_only``: only the final read-out and its
    loss).

    With a tape, the returned loss node supports exact gradients via
    ``engine.backward``.  The steps take ``P(u)`` from a table of the
    window's distinct input rows (``_Step.tabulate``), bit for bit the
    product each would run: a gemm over the rows, or single-row products
    for a window of one row.  Past ``_TABLE_ROWS`` distinct rows each step
    projects its own.  Either way the steps write into the buffers that
    ``_Step.buffers`` allocates once for the pass.
    """
    kernel = _Step(store)  # binds its weights and the window's table once
    traced = tape is not None
    rows = kernel.tabulate(batch.inputs, traced)
    buffers = kernel.buffers(batch.size, batch.steps, traced)

    def step(h, i):
        return kernel.step(h, batch.inputs[:, i, :], batch.dtaus[:, i:i + 1], buffers(i), tape,
                           None if rows is None else rows[i])

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
        self.sensor_dims = tuple(sensor_dims)
        self.reset()

    def reset(self):
        self._last_t = None
        self.regressions = 0
        self.clamped = 0

    def _gap(self, event):
        """Normalized gap since the previous event, 0 for the first one:
        ``normalize_dt`` on a float.  Each kind's ``observe`` starts here,
        so an event whose polarity is neither 0 nor 1 (one made by hand: a
        decoder and the line protocol refuse it), which would alias another
        pair's key, raises ``ValueError`` before any state changes."""
        if event.p not in (0, 1):
            raise ValueError(f"polarity {event.p!r} is neither 0 nor 1")
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
        """Features (x, y, p) of the event, its coordinates clamped into the
        sensor, and the key ``(x H + y) 2 + p`` of the pixel and polarity
        they are of."""
        u, clamped, (x, y, p) = clamped_input(event, self.sensor_dims)
        if clamped:
            self.clamped += 1
            if self.clamped == 1:
                warnings.warn(CLAMP_WARNING, stacklevel=3)
        return u, (x * self.sensor_dims[1] + y) * 2 + p

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
        gap needs clamping.  A recording from another sensor than the
        session's raises ``ValueError``.
        """
        if seq.sensor_dims != self.sensor_dims:
            raise ValueError(f"recording from a {seq.sensor_dims} sensor, not {self.sensor_dims}")
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
    step), then emits a read-out and holds the new input's ``P(u)`` row.
    Run over the S+1 events of a sampled window this reproduces
    ``forward`` exactly.  ``observe`` and the replay run one kernel,
    ``_Step.advance``, and read one table of ``P(u)`` for any sensor: a
    direct-mapped cache of ``min(2 W H, _TABLE_ROWS)`` rows, in which the
    pixel and polarity of key ``(x H + y) 2 + p`` live in row ``key %
    rows`` (the key itself within the cap) and ``_keys`` names the pair
    that each row holds, -1 when none.  A pair is projected when its row
    holds another, by one single-row product whichever of the two sees it
    (so each row has the bits of the product it replaces), and memory stays
    at most 4 MB.  A session binds its own step and the three 1-D scratch
    rows of its steps once, so sessions on one store may run in parallel
    threads, but one session must not be shared between them.
    """

    def __init__(self, store, stats, sensor_dims):
        self._step = _Step(store)
        width, d = self._step.w3.shape
        self._scratch = np.empty(width), np.empty(width), np.empty(d)
        rows = min(2 * sensor_dims[0] * sensor_dims[1], _TABLE_ROWS)
        self._table = np.empty((rows, width))
        self._keys = np.full(rows, -1)
        super().__init__(store, stats, sensor_dims)

    def reset(self):
        super().reset()
        self.state = _initial_state(self.store, 1, None)
        self._held_p = None

    def observe(self, event):
        """Consume one event; returns (predicted class, posterior row)."""
        dtau = self._gap(event)
        if self._held_p is not None:
            self._step.advance(self.state[0], (self._held_p,), (dtau,), self.state,
                               self._scratch)
        u, key = self._input(event)
        table, row = self._table, key % len(self._keys)
        if self._keys[row] != key:
            self._step.project(np.array([u]), np.empty_like(table[:1]), table[row:row + 1])
            self._keys[row] = key
        self._held_p = table[row]
        return self._predict(self.state)

    def _recursion(self, seq, states):
        """``_Step.advance`` over each chunk, from the session table's
        ``P(u)`` rows; the recording's first event only reads out.  The
        distinct pairs of a chunk that their rows do not hold are projected
        by one broadcast single-row product (``_Step.projections``), with
        the bits of ``observe``'s, and handed to the chunk directly, as two
        of them may share a row; then one pair per row is written back.  A
        replay may evict the row that ``observe`` holds, so the held row is
        copied first."""
        step, dims, table, held = self._step, self.sensor_dims, self._table, self._keys
        self._held_p = None if self._held_p is None else self._held_p.copy()
        states[0] = self.state

        def projections(lo, hi):
            keys = (seq.xs[lo:hi] * dims[1] + seq.ys[lo:hi]) * 2 + seq.ps[lo:hi]
            rows = keys % len(held)
            ps = table[rows]
            missing = np.flatnonzero(held[rows] != keys)
            if len(missing):
                fresh, first, inv = np.unique(keys[missing], return_index=True, return_inverse=True)
                at = lo + missing[first]
                u = normalize_events(seq.xs[at], seq.ys[at], seq.ps[at], dims)
                p = step.projections(u, single_row=True)[1]
                ps[missing] = p[inv]
                # fancy assignment leaves the winner of a repeated row undefined
                slots, one = np.unique(fresh % len(held), return_index=True)
                table[slots], held[slots] = p[one], fresh[one]
            return ps

        def fill(lo, hi, gaps):
            lead = int(lo == 0)
            if lead:
                states[1] = states[0]
            # event i advances across the gap since event i-1 with the
            # input held from it, so the projections start one event early
            step.advance(states[0, 0], projections(lo - 1 + lead, hi - 1), gaps.tolist(),
                         states[1 + lead:hi - lo + 1, 0], self._scratch)

        return fill
