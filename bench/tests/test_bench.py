"""Tests of the benchmark's own code, kept out of the program's suite.

    python3 -m pytest bench/tests -q
"""

import math

import numpy as np
import pytest

import common
import oracles
import tracing


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert common.percentile(values, 30) == 20      # ceil(1.5) = 2nd smallest
    assert common.percentile(values, 40) == 20      # ceil(2.0) = 2nd smallest
    assert common.percentile(values, 50) == 35
    assert common.percentile(values, 100) == 50
    assert common.percentile(list(range(1, 101)), 90) == 90
    assert common.percentile([7.0], 1) == 7.0
    assert common.percentile(list(range(1, 10_001)), 99.9) == 9_990
    with pytest.raises(ValueError):
        common.percentile([], 50)
    with pytest.raises(ValueError):
        common.percentile([1], 0)


def test_median_of_odd_and_even_counts():
    assert common.median([3, 1, 2]) == 2
    assert common.median([4, 1, 3, 2]) == 2.5


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 6]; b holds d [2, 3]
    spans = [
        (3, 1, "d", 2.0, 3.0),
        (1, 0, "b", 1.0, 4.0),
        (2, 0, "c", 5.0, 6.0),
        (0, tracing.ROOT, "a", 0.0, 10.0),
    ]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    table = tracing.by_name(spans + [(4, tracing.ROOT, "c", 20.0, 22.0)])
    assert table["c"] == (2, 3.0)
    inside = tracing.by_name(spans + [(4, tracing.ROOT, "c", 20.0, 22.0)], within="b")
    assert inside == {"b": (1, 2.0), "d": (1, 1.0)}


def test_wrappers_record_parents_per_call():
    tracer = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda x: wrapped_inner(x) * 2, "outer")
    assert outer(1) == 4
    (sid_in, parent_in, name_in, s_in, e_in), (sid_out, parent_out, name_out, s_out, e_out) = \
        tracer.spans
    assert (name_in, name_out) == ("inner", "outer")
    assert parent_in == sid_out and parent_out == tracing.ROOT
    assert s_out <= s_in <= e_in <= e_out


def test_aer_writer_matches_hand_written_records_across_a_wrap():
    # t = 2^23 - 1 fills the 23-bit field; t = 2^23 + 1 wraps to 1
    blob = oracles.write_aer_records([1, 3], [2, 4], [1, 0], [8_388_607, 8_388_609])
    assert blob == bytes([0x01, 0x02, 0xFF, 0xFF, 0xFF,
                          0x03, 0x04, 0x00, 0x00, 0x01])
    from inode.events import parse_aer

    seq = parse_aer(blob)
    assert seq.ts.tolist() == [8_388_607, 8_388_609]
    assert seq.ps.tolist() == [1, 0]


def test_reference_euler_step_by_hand():
    w = {
        "fc1_w": np.array([[0.5]]), "fc1_b": np.array([[0.1]]),
        "fcu_w": np.array([[0.2], [-0.3], [0.4]]), "fcu_b": np.array([[0.0]]),
        "fc2_w": np.array([[1.5], [-0.5]]), "fc2_b": np.array([[0.2]]),
        "fc3_w": np.array([[2.0]]), "fc3_b": np.array([[-0.1]]),
    }
    h, u, dtau = 0.5, (1.0, 0.0, -1.0), 0.25
    a1 = math.tanh(0.5 * h + 0.1)                     # tanh(FC1(h))
    a2 = math.tanh(0.2 * u[0] - 0.3 * u[1] + 0.4 * u[2])  # tanh(FCu(u))
    f = 2.0 * math.tanh(1.5 * a1 - 0.5 * a2 + 0.2) - 0.1
    got = oracles.inode_step(np.array([[h]]), np.array([u]), dtau, w)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(h + dtau * f, rel=1e-15)


def test_stream_reference_holds_the_previous_input():
    rng = np.random.default_rng(0)
    from inode import model

    store = model.init_params(rng, n_classes=3, state_dim=4, width=5)
    xs, ys, ps, ts = [0, 5, 9], [9, 0, 4], [1, 0, 1], [0, 50, 400]
    got = oracles.inode_stream_posteriors(xs, ys, ps, ts, store, 100.0, 1.0, (10, 10))
    w = oracles.inode_weights(store)
    feats = oracles.event_features(xs, ys, ps, (10, 10))
    h = np.zeros((1, 4))
    want = []
    for k, gap in enumerate([0.0, 0.5, 1.0]):        # 350/100 is capped at dmax = 1
        if k:
            h = oracles.inode_step(h, feats[k - 1:k], gap, w)
        z = (h @ w["fcc_w"] + w["fcc_b"])[0]
        want.append(np.exp(z) / np.exp(z).sum())
    np.testing.assert_allclose(got, np.array(want), rtol=1e-12)


def test_lstm_stream_reference_uses_each_event_own_gap():
    from inode.params import ParamStore

    # one hidden unit; only the input gate reads the gap, so each event's
    # own gap, capped at dmax, shows in its posterior
    store = ParamStore()
    for g, bias in zip("ifgo", (0.0, 1.0, 0.5, -0.5)):
        w = np.zeros((4, 1))
        if g == "i":
            w[3, 0] = 2.0
        store.add(f"fwd_w{g}", w)
        store.add(f"fwd_u{g}", np.zeros((1, 1)))
        store.add(f"fwd_b{g}", np.array([bias]))
    store.add("fcc_w", np.array([[1.0, -1.0]]))
    store.add("fcc_b", np.zeros(2))
    got = oracles.lstm_stream_posteriors([0, 1], [0, 1], [1, 1], [0, 300], store,
                                         100.0, 2.0, (4, 4))
    sig = lambda x: 1.0 / (1.0 + math.exp(-x))  # noqa: E731
    c = h = 0.0
    want = []
    for gap in (0.0, 2.0):                          # 300/100 is capped at dmax = 2
        c = sig(1.0) * c + sig(2.0 * gap) * math.tanh(0.5)
        h = sig(-0.5) * math.tanh(c)
        want.append([1.0 / (1.0 + math.exp(-2 * h)), 1.0 / (1.0 + math.exp(2 * h))])
    np.testing.assert_allclose(got, np.array(want), rtol=1e-12)


def test_central_difference_of_a_quadratic():
    store = {"w": np.array([[1.0, -2.0], [0.5, 3.0]])}
    loss = lambda: float(np.sum(store["w"] ** 2))  # noqa: E731
    spots = [("w", (0, 1)), ("w", (1, 1))]
    got = oracles.central_difference_spots(loss, store, spots)
    assert got == pytest.approx([-4.0, 6.0], rel=1e-8)
    assert store["w"][0, 1] == -2.0


def test_round_budget_stops_before_the_deadline():
    import time

    now = time.perf_counter()
    assert common.room_for_round(now, now + 10.0, 0)
    assert not common.room_for_round(now - 6.0, now + 5.0, 1)   # 6 s rounds, 5 s left
    assert common.room_for_round(now - 6.0, now + 5.0, 3)       # 2 s rounds


def test_stopwatch_restates_each_time_by_the_probes_around_it(monkeypatch):
    readings = iter([8.0, 24.0, 32.0, 32.0])       # M iterations/s, before and after
    monkeypatch.setattr(common, "host_speed_probe", lambda: next(readings))
    ticks = iter([10.0, 12.0, 20.0, 20.5])         # perf_counter at start and end
    monkeypatch.setattr(common.time, "perf_counter", lambda: next(ticks))
    clock = common.Stopwatch()
    with clock.timing("epoch"):
        pass
    with clock.timing("epoch"):
        pass
    # a host at the reference speed (16 M/s on average) leaves 2 s as it
    # is; a host twice as fast (32 M/s) doubles 0.5 s
    assert clock.restated["epoch"] == [2.0, 1.0]
    assert clock.raw["epoch"] == [2.0, 0.5]
    assert clock.median("epoch") == 1.5
    info = clock.info()
    assert info["host_mips_samples"] == [8.0, 24.0, 32.0, 32.0]
    assert info["epoch_raw_median"] == 1.25


def test_a_failed_operation_leaves_no_sample(monkeypatch):
    monkeypatch.setattr(common, "host_speed_probe", lambda: 16.0)
    clock = common.Stopwatch()
    with pytest.raises(RuntimeError):
        with clock.timing("eval"):
            raise RuntimeError("boom")
    assert clock.raw == {} and clock.probes == []
