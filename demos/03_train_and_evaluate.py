#!/usr/bin/env python3
"""End-to-end run: train the ODE classifier on moving dots, then sweep
the number of events available at test time.

The model sees random 100-step windows during training; at test time it
is probed with budgets from 10 to 100 events, mirroring how accuracy
builds up as a live stream delivers more events.
"""

import time
from pathlib import Path

from inode.checkpoint import load_checkpoint
from inode.synth import moving_dot_dataset
from inode.training import RunConfig, Trainer, report

train_set = moving_dot_dataset(2, per_class=200, seed=3, n_events=400, noise_rate=0.05,
                               split="train")
test_set = moving_dot_dataset(2, per_class=60, seed=900_001, n_events=400, noise_rate=0.05,
                              split="test")
print(f"{len(train_set)} training / {len(test_set)} test sequences, "
      f"{train_set.class_count} classes")

config = RunConfig(model="inode", hidden=30, n_classes=2, s_len=100, epochs=6,
                   lr=1e-3, batch_size=50, seed=3, eval_lengths=(10, 50, 100))
trainer = Trainer(config, train_set, test_set)
print(f"time-step divisor dq = {trainer.stats.dq:.0f} us, "
      f"{trainer.steps_per_epoch()} optimizer steps per epoch")

for _ in range(config.epochs):
    t0 = time.perf_counter()
    rec = trainer.run_epoch()
    print(f"epoch {rec.epoch}: train {rec.train_loss:.3f}  test {rec.test_loss:.3f}  "
          f"acc {rec.accuracies}  [{time.perf_counter() - t0:.1f}s]")

print("\naccuracy as the event budget grows:")
table = trainer.evaluate(lengths=tuple(range(10, 101, 10)), repeats=3)
for n, acc in table.items():
    print(f"  {n:4d} events: {acc:.3f} " + "#" * int(acc * 40))

out = Path("inode_demo")
out.mkdir(exist_ok=True)
trainer.save(out / "model.ckpt")
paths = report(trainer.log, out / "metrics")
print(f"\nwrote {out / 'model.ckpt'} and " + ", ".join(paths))

ck = load_checkpoint(out / "model.ckpt")
print(f"checkpoint reloads as kind={ck.kind}, {ck.store.total_scalars():,} parameters, "
      f"dq={ck.stats.dq:.0f}")
