"""Training loop, event-budget evaluation, and metrics reporting.

One epoch shuffles the (fraction-reduced) training set with a seeded
generator, samples one window per sequence, and applies exact
window gradients through Adam.  Evaluation measures accuracy at a range
of event budgets by sampling one seeded window per test item and taking
the final-step arg-max.  Identical configuration and seed give
bit-identical metrics.
"""

import json
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from .checkpoint import model_kind, save_checkpoint
from .errors import NaNLossError
from .events import subset_fraction
from .optim import AdamState, adam_step, clip_global_norm, global_norm
from .params import init_store
from .preprocess import compute_dq, make_batch

DEFAULT_EVAL_LENGTHS = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)


@dataclass
class RunConfig:
    """Every knob of a training run, JSON-serializable."""

    model: str = "inode"
    hidden: int = 30                 # latent state (ode) or cell size (lstm)
    n_classes: int = 2
    s_len: int = 100
    epochs: int = 300
    lr: float = 1e-3
    batch_size: int = 100
    rho: float = 1.0
    seed: int = 0
    eval_lengths: tuple = DEFAULT_EVAL_LENGTHS
    grad_clip: float | None = None
    learnable_h0: bool = False
    class_names: tuple | None = None  # a --data root's sorted class directories

    def to_json(self):
        """The config as a dict; ``class_names`` only when the run has them,
        so a synthetic run's JSON stays as it was before they existed."""
        d = asdict(self)
        d["eval_lengths"] = list(self.eval_lengths)
        if self.class_names is None:
            del d["class_names"]
        else:
            d["class_names"] = list(self.class_names)
        return d


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    test_loss: float
    accuracies: dict          # eval length -> accuracy in [0, 1]
    grad_norm: float = 0.0    # the largest global gradient norm of a batch, before clipping
    wall_seconds: float = 0.0
    eval_seconds: float = 0.0  # of wall_seconds, in the test loss and the budget sweep


def evaluate(store, stats, kind, test_set, lengths, seed, repeats=1):
    """Accuracy per event budget: one seeded window per item, final arg-max."""
    module = model_kind(kind).module
    out = {}
    for n in lengths:
        hits = 0
        total = 0
        for rep in range(repeats):
            rng = np.random.default_rng([int(seed), 0xE7A1, int(n), rep])
            batch = make_batch(test_set.sequences, n, stats, rng)
            pred = np.argmax(module.forward(batch, store, final_only=True).logits[:, 0, :],
                             axis=1)
            hits += int(np.sum(pred == batch.labels))
            total += batch.size
        out[int(n)] = hits / total
    return out


def test_loss(store, stats, kind, test_set, s_len, seed):
    rng = np.random.default_rng([int(seed), 0x7E57])
    batch = make_batch(test_set.sequences, s_len, stats, rng)
    return model_kind(kind).module.forward(batch, store).loss


class Trainer:
    """Stateful loop: one call to run_epoch per epoch, metrics appended."""

    def __init__(self, config, train_set, test_set):
        self.config = config
        if config.rho < 1.0:
            train_set = subset_fraction(train_set, config.rho, config.seed)
        self.train_set = train_set
        self.test_set = test_set
        self.batch_size = max(1, round(config.rho * config.batch_size))
        self.stats = compute_dq(self.train_set)
        self.kind = model_kind(config.model)
        self.store = init_store(np.random.default_rng([config.seed, 0x1]),
                                self.kind.layout(config.n_classes, config.hidden,
                                                 config.learnable_h0))
        self.adam = AdamState(self.store, lr=config.lr)
        self.log = []
        self.best_store = None
        self.best_accuracy = -1.0
        self._epoch = 0

    def steps_per_epoch(self):
        return math.ceil(len(self.train_set) / self.batch_size)

    def run_epoch(self):
        started = time.perf_counter()
        cfg = self.config
        self._epoch += 1
        rng = np.random.default_rng([cfg.seed, 0x5E9, self._epoch])
        order = rng.permutation(len(self.train_set))
        losses, grad_norm = [], 0.0
        for b in range(self.steps_per_epoch()):
            ids = order[b * self.batch_size:(b + 1) * self.batch_size]
            batch = make_batch([self.train_set[i] for i in ids], cfg.s_len, self.stats, rng)
            grads, loss = self.kind.module.backward_bptt(batch, self.store)
            if not np.isfinite(loss):
                raise NaNLossError(self._epoch, b)
            norm = (global_norm(grads) if cfg.grad_clip is None
                    else clip_global_norm(grads, cfg.grad_clip))
            grad_norm = max(grad_norm, norm)
            adam_step(self.store, grads, self.adam)
            losses.append(loss)
        eval_started = time.perf_counter()
        held_out_loss = test_loss(self.store, self.stats, cfg.model, self.test_set, cfg.s_len,
                                  self._bits(0x7E57))
        accuracies = self.evaluate()
        finished = time.perf_counter()
        record = MetricsRecord(
            epoch=self._epoch,
            train_loss=float(np.mean(losses)),
            test_loss=held_out_loss,
            accuracies=accuracies,
            grad_norm=grad_norm,
            wall_seconds=finished - started,
            eval_seconds=finished - eval_started,
        )
        self.log.append(record)
        top = record.accuracies[max(record.accuracies)]
        if top > self.best_accuracy:
            self.best_accuracy = top
            self.best_store = self.store.copy()
        return record

    def _bits(self, salt):
        return (self.config.seed << 16) ^ (self._epoch * 7919) ^ salt

    def evaluate(self, lengths=None, repeats=1):
        cfg = self.config
        return evaluate(self.store, self.stats, cfg.model, self.test_set,
                        lengths or cfg.eval_lengths, self._bits(0xACC), repeats)

    def save(self, path, store=None):
        cfg = self.config
        save_checkpoint(
            path, store if store is not None else self.store, self.stats,
            kind=cfg.model, n_classes=cfg.n_classes, state_dim=cfg.hidden,
            features=self.kind.features,
            sensor_dims=self.train_set.sensor_dims, config=cfg.to_json(),
        )


def train(config, train_set, test_set, out_path=None, best_path=None, progress=None):
    """Run the configured number of epochs; write final and best checkpoints."""
    trainer = Trainer(config, train_set, test_set)
    for _ in range(config.epochs):
        record = trainer.run_epoch()
        if progress is not None:
            progress(record)
    if out_path is not None:
        trainer.save(out_path)
        if best_path is not None and trainer.best_store is not None:
            trainer.save(best_path, store=trainer.best_store)
    return trainer


def metrics_csv(log):
    """CSV text: epoch, train_loss, test_loss, one acc@n column per length.

    Floats are written with repr so a re-parse recovers them exactly and
    identical runs produce identical bytes (wall-clock stays out, and so
    does the gradient norm, which the JSON carries).
    """
    if not log:
        raise ValueError("empty metrics log")
    lengths = sorted(log[0].accuracies)
    header = "epoch,train_loss,test_loss," + ",".join(f"acc@{n}" for n in lengths)
    lines = [header]
    for rec in log:
        cells = [str(rec.epoch), repr(rec.train_loss), repr(rec.test_loss)]
        cells += [repr(rec.accuracies[n]) for n in lengths]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_metrics_csv(text):
    """Inverse of metrics_csv (grad_norm, wall_seconds and eval_seconds come
    back as zero)."""
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    lengths = [int(col.split("@")[1]) for col in header[3:]]
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        out.append(MetricsRecord(
            epoch=int(cells[0]),
            train_loss=float(cells[1]),
            test_loss=float(cells[2]),
            accuracies={n: float(v) for n, v in zip(lengths, cells[3:])},
        ))
    return out


def metrics_json(log):
    rows = []
    for rec in log:
        rows.append({
            "epoch": rec.epoch,
            "train_loss": rec.train_loss,
            "test_loss": rec.test_loss,
            "accuracies": {str(k): v for k, v in sorted(rec.accuracies.items())},
            "grad_norm": rec.grad_norm,
            "wall_seconds": rec.wall_seconds,
            "eval_seconds": rec.eval_seconds,
        })
    return json.dumps(rows, indent=2) + "\n"


def _svg_polyline(xs, ys, x0, y0, w, h, xmax, ymin, ymax, color):
    span = (ymax - ymin) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = x0 + w * (x / xmax)
        py = y0 + h * (1.0 - (y - ymin) / span)
        pts.append(f"{px:.2f},{py:.2f}")
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}"/>'


def metrics_svg(log):
    """Two stacked panels of learning curves: losses, then accuracy per budget."""
    width, height = 640, 480
    if not log:
        raise ValueError("empty metrics log")
    epochs = [r.epoch for r in log]
    xmax = max(epochs)
    lengths = sorted(log[0].accuracies)
    losses = [r.train_loss for r in log] + [r.test_loss for r in log]
    lo, hi = min(losses), max(losses)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        '<text x="20" y="20" font-size="13">loss per epoch (train solid dark, test light)</text>',
        _svg_polyline(epochs, [r.train_loss for r in log], 40, 30, width - 80, height / 2 - 60,
                      xmax, lo, hi, "#203080"),
        _svg_polyline(epochs, [r.test_loss for r in log], 40, 30, width - 80, height / 2 - 60,
                      xmax, lo, hi, "#90a0e0"),
        f'<text x="20" y="{height / 2 + 10:.0f}" font-size="13">accuracy per epoch, '
        'one line per event budget</text>',
    ]
    for k, n in enumerate(lengths):
        shade = 230 - int(180 * (k + 1) / len(lengths))
        parts.append(_svg_polyline(
            epochs, [r.accuracies[n] for r in log], 40, height / 2 + 20,
            width - 80, height / 2 - 60, xmax, 0.0, 1.0, f"rgb(40,{shade},90)"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def report(log, base_path):
    """Write <base>.csv, <base>.json and <base>.svg; returns the three paths."""
    base = str(base_path)
    paths = (base + ".csv", base + ".json", base + ".svg")
    with open(paths[0], "w") as fh:
        fh.write(metrics_csv(log))
    with open(paths[1], "w") as fh:
        fh.write(metrics_json(log))
    with open(paths[2], "w") as fh:
        fh.write(metrics_svg(log))
    return paths
