import gc
import weakref

import numpy as np
import pytest

from helpers import (central_difference, cross_entropy_direct, matmul_triple_loop, max_rel_err,
                     sigmoid_masked)
from inode import engine as en
from inode import lstm, model
from inode.errors import ShapeError
from inode.params import ParamStore
from inode.preprocess import Batch


def test_matmul_identity():
    a = np.arange(9, dtype=float).reshape(3, 3)
    assert np.array_equal(en.matmul(np.eye(3), a), a)


def test_matmul_hand_case():
    out = en.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
    assert np.array_equal(out, np.array([[3.0], [7.0]]))


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    assert np.abs(en.matmul(a, b) - matmul_triple_loop(a, b)).max() < 1e-12


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        en.matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 6))
        c = rng.standard_normal((6, 3))
        left = en.matmul(en.matmul(a, b), c)
        right = en.matmul(a, en.matmul(b, c))
        assert np.abs(left - right).max() < 1e-10


def test_tanh_values():
    assert en.tanh(np.zeros((1, 1)))[0, 0] == 0.0
    big = en.tanh(np.array([[50.0]]))[0, 0]
    assert 1.0 - 1e-15 < big <= 1.0


def test_tanh_gradient_at_0_3():
    store = ParamStore()
    store.add("x", np.array([[0.3]]))
    tape = en.Tape()
    grads = en.backward(tape, en.sum_all(en.tanh(tape.param("x", store["x"]))))
    h = 1e-6
    fd = (np.tanh(0.3 + h) - np.tanh(0.3 - h)) / (2 * h)
    assert abs(grads["x"][0, 0] - fd) / abs(fd) < 1e-8


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    p = en.softmax(rng.standard_normal((6, 9)) * 10)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


def test_softmax_cross_entropy_uniform():
    loss, probs = en.softmax_cross_entropy(np.zeros((4, 10)), np.array([0, 3, 5, 9]))
    assert abs(float(loss) - np.log(10)) < 1e-12
    assert np.abs(probs - 0.1).max() < 1e-12


def test_softmax_cross_entropy_saturated():
    logits = np.full((1, 5), -1000.0)
    logits[0, 2] = 1000.0
    loss, _ = en.softmax_cross_entropy(logits, np.array([2]))
    assert abs(float(loss)) < 1e-12


def test_softmax_cross_entropy_against_direct_oracle():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((3, 7)) * 3
    labels = np.array([1, 0, 6])
    loss, probs = en.softmax_cross_entropy(logits, labels)
    want_loss, want_probs = cross_entropy_direct(logits, labels)
    assert abs(float(loss) - want_loss) < 1e-12
    assert np.abs(probs - want_probs).max() < 1e-12


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError):
        en.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_backward_sum_gives_ones():
    store = ParamStore()
    w = store.add("w", np.random.default_rng(4).standard_normal((3, 4)))
    tape = en.Tape()
    loss = en.sum_all(tape.param("w", w))
    grads = en.backward(tape, loss)
    assert np.array_equal(grads["w"], np.ones((3, 4)))


def test_backward_constant_gives_zero():
    store = ParamStore()
    w = store.add("w", np.ones((2, 2)))
    tape = en.Tape()
    tape.param("w", w)
    loss = en.sum_all(tape.const(np.ones((1, 1))))
    grads = en.backward(tape, loss)
    assert np.array_equal(grads["w"], np.zeros((2, 2)))


def test_backward_rejects_non_scalar():
    tape = en.Tape()
    node = tape.param("w", np.ones((2, 2)))
    with pytest.raises(ValueError):
        en.backward(tape, node)


def _mlp_loss(store, x, labels, tape=None):
    p = store.__getitem__ if tape is None else (lambda n: tape.param(n, store[n]))
    h = en.tanh(en.add(en.matmul(x, p("w1")), p("b1")))
    z = en.add(en.matmul(h, p("w2")), p("b2"))
    loss, _ = en.softmax_cross_entropy(z, labels)
    return loss


def test_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(5)
    store = ParamStore()
    store.add("w1", rng.standard_normal((4, 6)) * 0.5)
    store.add("b1", rng.standard_normal(6) * 0.1)
    store.add("w2", rng.standard_normal((6, 3)) * 0.5)
    store.add("b2", rng.standard_normal(3) * 0.1)
    x = rng.standard_normal((5, 4))
    labels = np.array([0, 1, 2, 1, 0])
    tape = en.Tape()
    grads = en.backward(tape, _mlp_loss(store, x, labels, tape))
    fd = central_difference(lambda: float(_mlp_loss(store, x, labels)), store)
    assert max_rel_err(grads, fd) < 1e-6


@pytest.mark.parametrize("op,arity,wide", [
    (en.tanh, 1, False),
    (en.sigmoid, 1, False),
    (en.add, 2, False),
    (en.mul, 2, False),
    (en.matmul, 2, True),
    (en.concat, 2, False),
])
def test_primitive_gradients_match_finite_differences(op, arity, wide):
    rng = np.random.default_rng(hash(op.__name__) % 2 ** 31)
    store = ParamStore()
    store.add("a", rng.standard_normal((3, 4)) * 0.7)
    store.add("b", rng.standard_normal((4, 2)) * 0.7 if wide else rng.standard_normal((3, 4)) * 0.7)

    def run(tape=None):
        p = store.__getitem__ if tape is None else (lambda n: tape.param(n, store[n]))
        args = (p("a"),) if arity == 1 else (p("a"), p("b"))
        return en.sum_all(en.tanh(op(*args)))

    tape = en.Tape()
    grads = en.backward(tape, run(tape))
    names = ["a"] if arity == 1 else ["a", "b"]
    fd = central_difference(lambda: float(run()), store, names=names)
    assert max_rel_err({n: grads[n] for n in names}, fd) < 1e-6


def test_scale_and_softmax_cross_entropy_gradients():
    rng = np.random.default_rng(6)
    store = ParamStore()
    store.add("a", rng.standard_normal((3, 4)))
    labels = np.array([0, 2, 3])

    def run(tape=None):
        p = store.__getitem__ if tape is None else (lambda n: tape.param(n, store[n]))
        loss, _ = en.softmax_cross_entropy(en.scale(p("a"), 1.7), labels)
        return loss

    tape = en.Tape()
    grads = en.backward(tape, run(tape))
    fd = central_difference(lambda: float(run()), store)
    assert max_rel_err(grads, fd) < 1e-6


def test_backward_is_pure():
    rng = np.random.default_rng(7)
    store = ParamStore()
    store.add("w1", rng.standard_normal((4, 6)))
    store.add("b1", np.zeros(6))
    store.add("w2", rng.standard_normal((6, 3)))
    store.add("b2", np.zeros(3))
    x = rng.standard_normal((2, 4))
    tape = en.Tape()
    loss = _mlp_loss(store, x, np.array([0, 2]), tape)
    first = en.backward(tape, loss)
    second = en.backward(tape, loss)
    for name in first:
        assert np.array_equal(first[name], second[name])


def test_backward_sums_an_operand_used_twice_by_one_op():
    """``add`` returns one array for both operands; the second use must not
    be added into it."""
    store = ParamStore()
    x = store.add("x", np.random.default_rng(8).standard_normal((3, 4)))
    tape = en.Tape()
    node = tape.param("x", x)
    doubled = en.add(node, node)
    grads = en.backward(tape, en.sum_all(en.tanh(doubled)))
    out = np.tanh(doubled.value)
    want = 1.0 - out * out
    assert np.array_equal(grads["x"], want + want)
    assert np.array_equal(doubled.value, x + x)


@pytest.mark.parametrize("shape", [(3, 4), ()])
def test_backward_sums_three_uses_in_the_order_of_the_reverse_walk(shape):
    """x + x c + x d: the later uses add into a buffer of the pass in place,
    with the bits of fresh sums, and never into the array that the outer
    ``add`` hands both its operands, which the pending x c still reads.
    A 0-d gradient, whose sums are NumPy scalars, too."""
    rng = np.random.default_rng(9)
    x, c, d = (np.asarray(rng.standard_normal(shape)) for _ in range(3))
    held = [v.copy() for v in (x, c, d)]
    tape = en.Tape()
    node = tape.param("x", x)
    xc, xd = en.mul(node, c), en.mul(node, d)
    grads = en.backward(tape, en.sum_all(en.add(en.add(node, xc), xd)))
    assert np.array_equal(grads["x"], (1.0 + d) + c)  # the reverse walk meets x, x d, x c
    assert all(np.array_equal(v, h) for v, h in zip((x, c, d), held))


@pytest.mark.parametrize("module", [model, lstm])
def test_backward_twice_on_one_tape_leaves_values_and_gradients_untouched(module):
    """A second pass over one tape gives the first's gradients bit for bit
    and writes into no node's value and no array the first returned."""
    rng = np.random.default_rng(10)
    store = (model.init_params(rng, 3, state_dim=4, width=6) if module is model
             else lstm.init_params(rng, 3, hidden=5))
    batch = Batch(rng.uniform(-1, 1, (4, 6, 3)), rng.uniform(0, 1, (4, 6)),
                  rng.integers(0, 3, 4))
    tape = en.Tape()
    loss = module.forward(batch, store, tape=tape).loss_node
    values = [np.array(node.value, copy=True) for node in tape.nodes]
    first = en.backward(tape, loss)
    held = {name: g.copy() for name, g in first.items()}
    second = en.backward(tape, loss)
    assert list(first) == list(second)
    for name in first:
        assert np.array_equal(first[name], held[name]), name
        assert np.array_equal(second[name], held[name]), name
        assert first[name] is not second[name]
    assert all(np.array_equal(node.value, value) for node, value in zip(tape.nodes, values))


def test_untraced_ops_return_plain_arrays():
    a = np.ones((2, 2))
    for out in (en.add(a, a), en.mul(a, a), en.tanh(a), en.concat(a, a)):
        assert isinstance(out, np.ndarray)


def test_bias_row_broadcast_gradient():
    store = ParamStore()
    store.add("b", np.zeros(3))

    def run(tape=None):
        p = store.__getitem__ if tape is None else (lambda n: tape.param(n, store[n]))
        return en.sum_all(en.mul(en.add(np.ones((4, 3)), p("b")), np.arange(12, dtype=float).reshape(4, 3)))

    tape = en.Tape()
    grads = en.backward(tape, run(tape))
    # gradient of the bias row sums over the batch axis
    assert np.array_equal(grads["b"], np.arange(12, dtype=float).reshape(4, 3).sum(axis=0, keepdims=True))


@pytest.mark.parametrize("module,store", [
    (model, model.init_params(np.random.default_rng(8), 3, state_dim=4, width=6)),
    (lstm, lstm.init_params(np.random.default_rng(9), 3, hidden=5)),
], ids=["inode", "lstm"])
def test_bptt_tape_freed_on_return_without_collector(monkeypatch, module, store):
    tapes = []

    class WatchedTape(en.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(en, "Tape", WatchedTape)
    rng = np.random.default_rng(10)
    batch = Batch(rng.uniform(-1, 1, (2, 5, 3)), rng.uniform(0, 1, (2, 5)), np.array([0, 2]))
    enabled = gc.isenabled()
    gc.disable()
    try:
        module.backward_bptt(batch, store)
        assert len(tapes) == 1
        assert tapes[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_node_outliving_its_tape_refuses_new_ops():
    node = en.Tape().const(np.ones((2, 2)))
    with pytest.raises(ValueError, match="freed"):
        en.tanh(node)


def test_sigmoid_equals_masked_formula_bitwise():
    rng = np.random.default_rng(11)
    gates = rng.standard_normal((100, 72)) * 5.0
    stacked = rng.standard_normal((3, 1, 72)) * 5.0  # a live cell's i, f, o rows
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0])
    for x in (gates, stacked, edges):
        want = sigmoid_masked(x).view(np.uint64)
        assert np.array_equal(en._sigmoid(x).view(np.uint64), want)
        # into given buffers, and in place over the input
        out, scratch = np.empty_like(x), np.empty_like(x)
        assert en._sigmoid(x, out, scratch) is out
        assert np.array_equal(out.view(np.uint64), want)
        inplace = x.copy()
        assert en._sigmoid(inplace, inplace, scratch) is inplace
        assert np.array_equal(inplace.view(np.uint64), want)
