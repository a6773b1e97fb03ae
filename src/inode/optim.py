"""Adam optimizer with bias correction."""

import numpy as np

from .errors import ShapeError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    def __init__(self, store, lr=1e-3):
        self.lr = lr
        self.step_count = 0
        self.m = {name: np.zeros_like(v) for name, v in store.items()}
        self.v = {name: np.zeros_like(v) for name, v in store.items()}


def adam_step(store, grads, state):
    """One in-place Adam update of every parameter in ``store``.

    Missing gradients count as zero (moments still decay).
    """
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, p in store.items():
        g = grads.get(name)
        if g is None:
            g = 0.0
        elif np.shape(g) != p.shape:
            raise ShapeError(f"gradient for {name!r} has shape {np.shape(g)}, want {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    return store


def global_norm(grads):
    """The global L2 norm of all gradients."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g)))
    return float(np.sqrt(total))


def clip_global_norm(grads, max_norm):
    """Scale all gradients in place so their global L2 norm is <= max_norm;
    returns the norm before clipping."""
    norm = global_norm(grads)
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm
