"""Spans around the calls into each layer's public functions.

The wrappers are installed from here, by rebinding a function wherever an
``inode`` module holds it (``from .x import f`` copies the reference), so
the program itself is unchanged.  Spans stay in memory as
``(id, parent_id, name, start, end)`` and are written out when the run
ends; a layer's self time is its span's duration minus the durations of
the spans it directly caused.  Calls nest on one thread, so direct
children never overlap.
"""

import functools
import gc
import itertools
import json
import sys
import threading
import time

ROOT = -1


def _traced_name(prefix, tape_pos):
    """Span namer telling a forward pass on a tape from an untraced one."""
    def namer(args, kwargs):
        tape = kwargs.get("tape", args[tape_pos] if len(args) > tape_pos else None)
        return prefix + ("_traced" if tape is not None else "_untraced")
    return namer


# (module, attribute path, span name or namer); the layer is the span prefix
TARGETS = (
    ("inode.events", "parse_aer", "events.parse_aer"),
    ("inode.synth", "moving_dot_dataset", "synth.dataset"),
    ("inode.preprocess", "compute_dq", "preprocess.compute_dq"),
    ("inode.preprocess", "make_batch", "preprocess.make_batch"),
    ("inode.engine", "backward", "engine.backward"),
    ("inode.model", "forward", _traced_name("model.forward", 3)),
    ("inode.model", "backward_bptt", "model.backward_bptt"),
    ("inode.model", "OnlineClassifier.observe", "model.observe"),
    ("inode.lstm", "forward", _traced_name("lstm.forward", 2)),
    ("inode.lstm", "backward_bptt", "lstm.backward_bptt"),
    ("inode.lstm", "OnlineLstm.observe", "lstm.observe"),
    ("inode.optim", "adam_step", "optim.adam_step"),
    ("inode.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("inode.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("inode.training", "Trainer.run_epoch", "training.run_epoch"),
    ("inode.training", "evaluate", "training.evaluate"),
    ("inode.training", "test_loss", "training.test_loss"),
    ("inode.stream", "LineSession.handle", "stream.handle"),
    ("inode.stream", "fast_replay", "stream.fast_replay"),
    ("inode.stream", "format_prediction", "stream.format_prediction"),
)


class Tracer:
    """In-memory span recorder, safe across the server's handler threads."""

    def __init__(self):
        self.spans = []
        self.tape_nodes = []
        self.gc_events = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._gc_started = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        """A function that records one span per call of ``fn``."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else ROOT
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, namer(args, kwargs) if namer else name, start, end))

        return wrapper

    def install(self):
        """Rebind every target in every loaded ``inode`` module."""
        for module_name, path, name in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name)
            if name == "engine.backward":
                wrapper = self._count_tape(wrapper)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "inode" or mod_name.startswith("inode."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _count_tape(self, wrapper):
        nodes = self.tape_nodes

        @functools.wraps(wrapper)
        def counted(tape, loss):
            nodes.append(len(tape.nodes))
            return wrapper(tape, loss)

        return counted

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_events.append((self._gc_started, time.perf_counter(), info["generation"]))
            self._gc_started = None

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "tape_nodes": self.tape_nodes,
                       "gc": self.gc_events}, fh)


def self_times(spans):
    """{span id: self seconds} for ``(id, parent, name, start, end)`` spans."""
    covered = {}
    for _, parent, _, start, end in spans:
        if parent != ROOT:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0.0) for sid, _, _, start, end in spans}


def by_name(spans, within=None):
    """{name: (calls, total self seconds)}; ``within`` keeps only spans
    whose ancestry reaches a span of that name (the span included)."""
    selfs = self_times(spans)
    keep = None
    if within is not None:
        parent_of = {sid: parent for sid, parent, *_ in spans}
        name_of = {sid: name for sid, _, name, *_ in spans}
        keep = set()
        for sid in parent_of:
            node = sid
            while node != ROOT:
                if name_of[node] == within:
                    keep.add(sid)
                    break
                node = parent_of.get(node, ROOT)
    out = {}
    for sid, _, name, _, _ in spans:
        if keep is not None and sid not in keep:
            continue
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + selfs[sid])
    return out
