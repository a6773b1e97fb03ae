"""Reference computations kept apart from the program.

Each one is written from the equations and byte layouts documented in
the program's modules, not by calling them:

* the INODE Euler recursion with its linear read-out (``model.py``):
  ``f(h, u) = FC3(tanh(FC2(tanh([FC1(h), FCu(u)]))))``, ``h <- h + dtau f``;
* the LSTM cell (``lstm.py``) with sigmoid gates and tanh candidate;
* an AER writer for the 5-byte layout of ``events.py``, built with
  division and remainder where the program's codec uses shifts and masks;
* central differences of a loss with respect to single weights.

The weights are read out of the store as plain arrays, so these
functions only need ``store[name]`` to return a 2-D float64 array.
"""

import numpy as np

T_WRAP_US = 8_388_608  # 2^23 us: the AER timestamp field holds 23 bits


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def inode_step(h, u, dtau, w):
    """One Euler step for a batch: h + dtau * f(h, u)."""
    a = np.tanh(np.concatenate([h @ w["fc1_w"] + w["fc1_b"], u @ w["fcu_w"] + w["fcu_b"]], axis=1))
    f = np.tanh(a @ w["fc2_w"] + w["fc2_b"]) @ w["fc3_w"] + w["fc3_b"]
    return h + dtau * f


def inode_weights(store):
    names = ("fc1_w", "fc1_b", "fcu_w", "fcu_b", "fc2_w", "fc2_b", "fc3_w", "fc3_b",
             "fcc_w", "fcc_b")
    w = {name: np.array(store[name], dtype=np.float64) for name in names}
    state_dim = w["fc1_w"].shape[0]
    w["h0"] = np.array(store["h0"]) if "h0" in store else np.zeros((1, state_dim))
    return w


def inode_logits(inputs, dtaus, store):
    """[B x S x C] read-outs after each of the S Euler steps of a batch."""
    w = inode_weights(store)
    b, s, _ = inputs.shape
    h = np.repeat(w["h0"], b, axis=0)
    out = np.empty((b, s, w["fcc_w"].shape[1]))
    for i in range(s):
        h = inode_step(h, inputs[:, i, :], dtaus[:, i:i + 1], w)
        out[:, i, :] = h @ w["fcc_w"] + w["fcc_b"]
    return out


def event_features(xs, ys, ps, sensor_dims):
    """[M x 3] inputs: coordinates mapped onto [-1, 1], polarity onto {-1, +1}."""
    wdt, hgt = sensor_dims
    return np.stack([2.0 * np.asarray(xs, float) / (wdt - 1) - 1.0,
                     2.0 * np.asarray(ys, float) / (hgt - 1) - 1.0,
                     2.0 * np.asarray(ps, float) - 1.0], axis=1)


def inode_stream_posteriors(xs, ys, ps, ts, store, dq, dmax, sensor_dims, split_fc2=False):
    """[M x C] posteriors of the sample-and-hold online recursion.

    Event k first advances the state across min(max(t_k - t_{k-1}, 0)/dq,
    dmax) using the input held from event k-1, then reads out.

    With ``split_fc2`` the FC2 product is grouped as
    ``tanh(FC1 h) W2_top + (tanh(FCu u) W2_bot + b2)``, the input half taken
    for all events at once.  That equals ``[a, b] W2 + b2`` in exact
    arithmetic; in float64 the two groupings differ in the last bits, and
    over a long recording the drifting state of an untrained model
    amplifies that far beyond 1e-9.  A reference for a path that groups
    the product one way must group it the same way.
    """
    w = inode_weights(store)
    feats = event_features(xs, ys, ps, sensor_dims)
    ts = np.asarray(ts, dtype=np.int64)
    gaps = np.zeros(len(ts))
    gaps[1:] = np.minimum(np.maximum(np.diff(ts), 0) / dq, dmax)
    states = np.empty((len(ts), w["fc1_w"].shape[0]))
    h = w["h0"]
    states[0] = h[0]
    if not split_fc2:
        for k in range(1, len(ts)):
            h = inode_step(h, feats[k - 1:k], gaps[k], w)
            states[k] = h[0]
    else:
        width = w["fc1_w"].shape[1]
        w1, b1, w3, b3 = w["fc1_w"], w["fc1_b"][0], w["fc3_w"], w["fc3_b"][0]
        w2_top = np.ascontiguousarray(w["fc2_w"][:width])
        held = np.tanh(feats @ w["fcu_w"] + w["fcu_b"][0]) @ w["fc2_w"][width:] + w["fc2_b"][0]
        h = h[0]
        for k in range(1, len(ts)):
            h = h + (np.tanh(np.tanh(h @ w1 + b1) @ w2_top + held[k - 1]) @ w3 + b3) * gaps[k]
            states[k] = h
    return _softmax_rows(states @ w["fcc_w"] + w["fcc_b"])


def lstm_logits(inputs, dtaus, store):
    """[B x S x C] read-outs of the unidirectional LSTM baseline.

    Its fourth input feature at step i is the normalized gap of step i-1
    (zero at the window head).
    """
    w = {name: np.array(store[name]) for name in store.names()}
    b, s, _ = inputs.shape
    prev_gap = np.zeros((b, s, 1))
    prev_gap[:, 1:, 0] = dtaus[:, :-1]
    feats = np.concatenate([inputs, prev_gap], axis=2)
    hidden = w["fwd_ui"].shape[0]
    h = np.zeros((b, hidden))
    c = np.zeros((b, hidden))
    out = np.empty((b, s, w["fcc_w"].shape[1]))

    def gate(name, u):
        return u @ w[f"fwd_w{name}"] + h @ w[f"fwd_u{name}"] + w[f"fwd_b{name}"]

    for i in range(s):
        u = feats[:, i, :]
        ig, fg, og = _sigmoid(gate("i", u)), _sigmoid(gate("f", u)), _sigmoid(gate("o", u))
        cand = np.tanh(gate("g", u))
        c = fg * c + ig * cand
        h = og * np.tanh(c)
        out[:, i, :] = h @ w["fcc_w"] + w["fcc_b"]
    return out


def lstm_stream_posteriors(xs, ys, ps, ts, store, dq, dmax, sensor_dims):
    """[M x C] posteriors of the online LSTM, one per event.

    Event k's fourth input is its own gap, min(max(t_k - t_{k-1}, 0)/dq,
    dmax), zero for the first event; the state starts at zero.
    """
    w = {name: np.array(store[name]) for name in store.names()}
    ts = np.asarray(ts, dtype=np.int64)
    gaps = np.zeros(len(ts))
    gaps[1:] = np.minimum(np.maximum(np.diff(ts), 0) / dq, dmax)
    feats = np.concatenate([event_features(xs, ys, ps, sensor_dims), gaps[:, None]], axis=1)
    hidden = w["fwd_ui"].shape[0]
    h = np.zeros((1, hidden))
    c = np.zeros((1, hidden))
    states = np.empty((len(ts), hidden))
    for k in range(len(ts)):
        u = feats[k:k + 1]
        pre = {g: u @ w[f"fwd_w{g}"] + h @ w[f"fwd_u{g}"] + w[f"fwd_b{g}"] for g in "ifgo"}
        c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = _sigmoid(pre["o"]) * np.tanh(c)
        states[k] = h[0]
    return _softmax_rows(states @ w["fcc_w"] + w["fcc_b"])


def write_aer_records(xs, ys, ps, ts):
    """5-byte AER records: x, y, then p in bit 7 over a 23-bit big-endian time.

    The timestamp is stored modulo 2^23 us, so a long recording wraps.
    """
    xs, ys, ps, ts = (np.asarray(a, dtype=np.int64) for a in (xs, ys, ps, ts))
    if len(xs) and (xs.max() > 255 or ys.max() > 255 or xs.min() < 0 or ys.min() < 0):
        raise ValueError("coordinates must fit one byte")
    t23 = ts % T_WRAP_US
    rec = np.empty((len(xs), 5), dtype=np.uint8)
    rec[:, 0] = xs
    rec[:, 1] = ys
    rec[:, 2] = ps * 128 + t23 // 65536
    rec[:, 3] = (t23 // 256) % 256
    rec[:, 4] = t23 % 256
    return rec.tobytes()


def central_difference_spots(loss_fn, store, spots, step=1e-6):
    """d loss / d store[name][idx] for each (name, idx) in ``spots``.

    ``loss_fn`` takes no arguments and reads the store in place; every
    weight is restored after its two evaluations.
    """
    out = []
    for name, idx in spots:
        p = store[name]
        orig = p[idx]
        p[idx] = orig + step
        up = loss_fn()
        p[idx] = orig - step
        down = loss_fn()
        p[idx] = orig
        out.append((up - down) / (2.0 * step))
    return out
