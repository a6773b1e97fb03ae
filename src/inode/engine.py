"""Reverse-mode gradient engine over dense float64 matrices.

Matrices are plain 2-D C-order ``numpy.float64`` arrays (biases travel as
1 x n rows).  Every primitive below works in two modes:

* untraced: all operands are ndarrays and the result is an ndarray — the
  fast inference path;
* traced: at least one operand is a :class:`Node` created on a
  :class:`Tape`; the result is a new Node and the op is appended to that
  tape.

A tape is append-only and therefore topologically ordered; ``backward``
visits it exactly once in reverse.  Tapes are rebuilt per batch and must
stay confined to one worker.  A tape owns its nodes and a node refers
back to its tape weakly, so a tape and everything recorded on it are
freed by reference counting as soon as the last reference to the tape
goes, without waiting for the cycle collector.
"""

import weakref

import numpy as np

from .errors import ShapeError


class Node:
    """One recorded value: a parameter leaf, a constant, or an op output."""

    __slots__ = ("_tape", "value", "parents", "grad_fn", "needs_grad", "name")

    def __init__(self, tape, value, parents=(), grad_fn=None, needs_grad=False, name=None):
        self._tape = weakref.ref(tape)
        self.value = value
        self.parents = parents
        self.grad_fn = grad_fn
        self.needs_grad = needs_grad
        self.name = name

    @property
    def tape(self):
        """The tape this node was recorded on; it must still be referenced."""
        tape = self._tape()
        if tape is None:
            raise ValueError("the tape this node was recorded on has been freed")
        return tape


class Tape:
    """Append-only op recorder.  One tape per forward pass, one worker."""

    def __init__(self):
        self.nodes = []
        self._params = {}

    def param(self, name, value):
        """Register (or fetch) a named parameter leaf.

        Binding the same name twice returns the original node, so the
        gradients of every use accumulate into one leaf.
        """
        node = self._params.get(name)
        if node is not None:
            if node.value is not value:
                raise ValueError(f"parameter {name!r} bound to two different arrays")
            return node
        node = Node(self, value, needs_grad=True, name=name)
        self._params[name] = node
        self.nodes.append(node)
        return node

    def const(self, value):
        node = Node(self, np.asarray(value, dtype=np.float64))
        self.nodes.append(node)
        return node

    def record(self, value, parents, grad_fn):
        needs = any(p.needs_grad for p in parents)
        node = Node(self, value, parents, grad_fn if needs else None, needs_grad=needs)
        self.nodes.append(node)
        return node


def _value(x):
    if isinstance(x, Node):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _record(a, b, out, grad_fn):
    """Append a two-operand op to the tape owned by a or b."""
    tape = a.tape if isinstance(a, Node) else b.tape
    if isinstance(a, Node) and isinstance(b, Node) and a.tape is not b.tape:
        raise ValueError("operands recorded on different tapes")
    na = a if isinstance(a, Node) else tape.const(a)
    nb = b if isinstance(b, Node) else tape.const(b)
    return tape.record(out, (na, nb), grad_fn)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def matmul(a, b):
    """Matrix product; recorded on the tape when an operand is traced."""
    av, bv = _value(a), _value(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: {av.shape} x {bv.shape}")
    out = av @ bv
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out

    def grad_fn(g, av=av, bv=bv):
        return g @ bv.T, av.T @ g

    return _record(a, b, out, grad_fn)


def add(a, b):
    """Elementwise sum with numpy broadcasting (used for bias rows)."""
    av, bv = _value(a), _value(b)
    try:
        out = av + bv
    except ValueError as exc:
        raise ShapeError(f"add: {av.shape} + {bv.shape}") from exc
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out

    def grad_fn(g, ashape=av.shape, bshape=bv.shape):
        return _unbroadcast(g, ashape), _unbroadcast(g, bshape)

    return _record(a, b, out, grad_fn)


def mul(a, b):
    """Elementwise (Hadamard) product with broadcasting."""
    av, bv = _value(a), _value(b)
    try:
        out = av * bv
    except ValueError as exc:
        raise ShapeError(f"mul: {av.shape} * {bv.shape}") from exc
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out

    def grad_fn(g, av=av, bv=bv):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return _record(a, b, out, grad_fn)


def scale(a, k):
    """Multiply by a python scalar."""
    k = float(k)
    if not isinstance(a, Node):
        return _value(a) * k
    return a.tape.record(a.value * k, (a,), lambda g: (g * k,))


def tanh(a):
    """Elementwise tanh; backward uses 1 - tanh^2."""
    if not isinstance(a, Node):
        return np.tanh(_value(a))
    out = np.tanh(a.value)
    return a.tape.record(out, (a,), lambda g, out=out: (g * (1.0 - out * out),))


def sigmoid(a):
    """Elementwise logistic function."""
    if not isinstance(a, Node):
        return _sigmoid(_value(a))
    out = _sigmoid(a.value)
    return a.tape.record(out, (a,), lambda g, out=out: (g * out * (1.0 - out),))


def _sigmoid(x, out=None, scratch=None):
    """The logistic function of ``x``, into ``out`` (which may be ``x``
    itself) through ``scratch`` of ``x``'s shape when they are given, into
    fresh arrays when not."""
    # e = exp(-|x|) never overflows; the numerator max(e, x >= 0) is 1 for
    # x >= 0 and e below (e <= 1).  min(x, -x) keeps a NaN's sign, so every
    # bit equals splitting the array by sign, without masks or branches.
    e = np.negative(x, out=scratch)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0, out=out)
    e += 1.0
    out /= e
    return out


def concat(a, b):
    """Column-wise concatenation of two matrices with equal row counts."""
    av, bv = _value(a), _value(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[0] != bv.shape[0]:
        raise ShapeError(f"concat: {av.shape} | {bv.shape}")
    out = np.concatenate([av, bv], axis=1)
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out
    na = av.shape[1]

    def grad_fn(g, na=na):
        return g[:, :na], g[:, na:]

    return _record(a, b, out, grad_fn)


def sum_all(a):
    """Sum of every entry, as a 0-d scalar."""
    if not isinstance(a, Node):
        return np.asarray(_value(a).sum())
    out = np.asarray(a.value.sum())
    shape = a.value.shape
    return a.tape.record(out, (a,), lambda g, shape=shape: (np.full(shape, float(g)),))


def softmax(z, axis=-1):
    """Row-stochastic softmax of a plain array (not a traced op)."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of logits [B x C] against integer class labels [B].

    Returns ``(loss, probs)``: loss is a 0-d scalar (a Node when traced),
    probs is always a plain row-stochastic ndarray.
    """
    lv = _value(logits)
    if lv.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-D, got {lv.shape}")
    labels = np.asarray(labels)
    n, c = lv.shape
    if labels.shape != (n,):
        raise ShapeError(f"softmax_cross_entropy: labels {labels.shape} for logits {lv.shape}")
    check_labels(labels, c)
    rows = np.arange(n)
    loss, e, denom = _cross_entropy(lv, labels, rows)
    probs = e / denom
    if not isinstance(logits, Node):
        return loss, probs
    return logits.tape.record(loss, (logits,),
                              lambda g: (_cross_entropy_grad(e, denom, labels, rows, g),)), probs


def check_labels(labels, n_classes):
    """ValueError unless every label is a class of ``n_classes``."""
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= n_classes:
        raise ValueError(f"label out of range [0, {n_classes})")


def _cross_entropy(lv, labels, rows):
    """``(mean loss, exp(shifted logits), their row sums)`` of logits
    ``lv`` against ``labels``, one per row of ``rows = arange(B)``."""
    shifted = lv - lv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    denom = e.sum(axis=1, keepdims=True)
    # log-sum-exp form keeps the saturated case exact
    nll = np.log(denom[:, 0]) - shifted[rows, labels]
    return np.asarray(nll.mean()), e, denom


def _cross_entropy_grad(e, denom, labels, rows, g):
    """The logits' gradient of ``_cross_entropy``'s loss, scaled by ``g``:
    a fresh [B x C] array."""
    gl = e / denom
    gl[rows, labels] -= 1.0
    gl *= float(g) / len(rows)
    return gl


def backward(tape, loss):
    """Gradients of a scalar loss node w.r.t. every named parameter leaf.

    Pure: calling it twice on the same tape yields identical results.
    Parameters the loss does not depend on get zero gradients; unnamed
    leaves (constants, inputs) get none.

    A node's gradient is the sum of its uses' contributions, in the
    order the reverse walk meets them.  The first is kept as its
    ``grad_fn`` returned it, which may be shared (``add`` returns one
    array for both operands), so it is never written to; the second sum
    allocates a buffer that this pass owns, and later contributions are
    added into that buffer in place: the same IEEE adds in the same
    order as fresh sums.
    """
    if not isinstance(loss, Node):
        raise ValueError("backward needs a traced loss node")
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    grads = {loss: np.ones_like(loss.value)}
    owned = set()  # the nodes whose gradient is a buffer of this pass
    out = {}
    for node in reversed(tape.nodes):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node.name is not None:
            out[node.name] = g
            continue
        if node.grad_fn is None:
            continue
        for parent, pg in zip(node.parents, node.grad_fn(g)):
            if pg is None or not parent.needs_grad:
                continue
            acc = grads.get(parent)
            if acc is None:
                grads[parent] = pg
            elif parent in owned:
                acc += pg
                grads[parent] = acc  # a NumPy scalar is rebound, not updated
            else:
                grads[parent] = acc + pg
                owned.add(parent)
    for name, node in tape._params.items():
        if name not in out:
            out[name] = np.zeros_like(node.value)
    return out
