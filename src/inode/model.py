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
from .params import ParamStore, uniform_init
from .preprocess import REGRESSION_WARNING, normalize_dt, normalize_input

STATE_DIM = 30
WIDTH = 128
FEATURES = 3


def init_params(rng, n_classes, state_dim=STATE_DIM, width=WIDTH, features=FEATURES,
                learnable_h0=False):
    """Fresh parameter store; weights uniform in +-1/sqrt(fan_in), biases zero."""
    store = ParamStore()
    store.add("fc1_w", uniform_init(rng, state_dim, (state_dim, width)))
    store.add("fc1_b", np.zeros(width))
    store.add("fcu_w", uniform_init(rng, features, (features, width)))
    store.add("fcu_b", np.zeros(width))
    store.add("fc2_w", uniform_init(rng, 2 * width, (2 * width, width)))
    store.add("fc2_b", np.zeros(width))
    store.add("fc3_w", uniform_init(rng, width, (width, state_dim)))
    store.add("fc3_b", np.zeros(state_dim))
    store.add("fcc_w", uniform_init(rng, state_dim, (state_dim, n_classes)))
    store.add("fcc_b", np.zeros(n_classes))
    if learnable_h0:
        store.add("h0", np.zeros(state_dim))
    return store


def state_dim_of(store):
    return store["fc1_w"].shape[0]


def class_count_of(store):
    return store["fcc_w"].shape[1]


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
    logits: np.ndarray          # [B x S x C], one read-out per solver step
    loss: float | None          # mean over steps and batch
    loss_node: object           # traced scalar when a tape was given
    final_state: np.ndarray     # [B x state]


def _val(x):
    return x.value if isinstance(x, en.Node) else x


def forward(batch, store, h0=None, tape=None, dynamics=None):
    """Run the full window: S Euler steps, a read-out and loss after each.

    The loss is the mean cross-entropy over all steps and batch rows; it is
    None when any label is missing.  With a tape, the returned loss node
    supports exact gradients via ``engine.backward``.
    """
    b, s = batch.size, batch.steps
    n = state_dim_of(store)
    if h0 is not None:
        h = tape.const(np.asarray(h0, dtype=np.float64)) if tape is not None else np.asarray(h0, dtype=np.float64)
    elif "h0" in store:
        p = _binder(store, tape)
        h = en.add(np.zeros((b, n)), p("h0"))
    else:
        h = np.zeros((b, n)) if tape is None else tape.const(np.zeros((b, n)))
    with_loss = bool(np.all(batch.labels >= 0))
    logits = np.empty((b, s, class_count_of(store)))
    loss_acc = None
    for i in range(s):
        u = batch.inputs[:, i, :]
        dtau = batch.dtaus[:, i:i + 1]
        h = euler_step(h, u, dtau, store, tape, dynamics)
        z = classify(h, store, tape)
        logits[:, i, :] = _val(z)
        if with_loss:
            step_loss, _ = en.softmax_cross_entropy(z, batch.labels)
            loss_acc = step_loss if loss_acc is None else en.add(loss_acc, step_loss)
    loss_node = en.scale(loss_acc, 1.0 / s) if loss_acc is not None else None
    return ForwardResult(
        logits=logits,
        loss=None if loss_node is None else float(_val(loss_node)),
        loss_node=loss_node,
        final_state=_val(h),
    )


def backward_bptt(batch, store, h0=None, dynamics=None):
    """Exact gradients of the mean window loss for every parameter.

    Returns ``(grads, loss)`` with one gradient array per store entry.
    """
    tape = en.Tape()
    result = forward(batch, store, h0=h0, tape=tape, dynamics=dynamics)
    if result.loss_node is None:
        raise ValueError("cannot differentiate an unlabeled batch")
    return en.backward(tape, result.loss_node), result.loss


def count_params(store, prefix=None):
    """Total number of scalar parameters, optionally under a name prefix."""
    return store.total_scalars(prefix)


class OnlineClassifier:
    """Event-by-event inference with sample-and-hold inputs.

    Each arriving event first advances the state across the elapsed gap
    using the input held from the previous event (the normalized step is
    clipped at dmax, so an arbitrarily long silence costs one capped
    step), then emits a read-out and holds the new input.  Run over the
    S+1 events of a sampled window this reproduces ``forward`` exactly.
    """

    def __init__(self, store, stats, sensor_dims):
        self.store = store
        self.stats = stats
        self.sensor_dims = sensor_dims
        self._h0 = store["h0"].copy() if "h0" in store else np.zeros((1, state_dim_of(store)))
        self.reset()

    def reset(self):
        self.state = self._h0.copy()
        self._held_u = None
        self._last_t = None
        self.regressions = 0

    def observe(self, event):
        """Consume one event; returns (predicted class, posterior row).

        Ties in the arg-max break toward the lowest class index.  An event
        older than its predecessor is clamped to a zero gap and counted in
        ``regressions``; only the first one since ``reset`` warns.
        """
        if self._held_u is not None:
            dt = event.t - self._last_t
            if dt < 0:
                self.regressions += 1
                if self.regressions == 1:
                    warnings.warn(REGRESSION_WARNING, stacklevel=2)
                dt = 0
            dtau = np.asarray(normalize_dt(dt, self.stats)).reshape(1, 1)
            self.state = euler_step(self.state, self._held_u, dtau, self.store)
        z = classify(self.state, self.store)
        posterior = en.softmax(z, axis=1)[0]
        self._held_u = normalize_input(event, self.sensor_dims).reshape(1, FEATURES)
        self._last_t = event.t
        return int(np.argmax(z[0])), posterior


def predict_online(events, store, stats, sensor_dims):
    """Generator form of online inference: yields (class, posterior) per event."""
    clf = OnlineClassifier(store, stats, sensor_dims)
    for event in events:
        yield clf.observe(event)
