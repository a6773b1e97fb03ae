"""Command-line entry points: train, eval, stream.

Exit codes: 0 success, 2 usage/argument problems (a missing or corrupt input
file among them), 3 training diverged.
"""

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import stream as streaming
from .checkpoint import MODEL_KINDS, load_checkpoint
from .errors import DatasetError, FormatError, NaNLossError
from .events import class_names, load_dataset, split_dataset
from .synth import moving_dot_dataset, num_patterns
from .training import DEFAULT_EVAL_LENGTHS, RunConfig, evaluate, report, train

# the longest window --s-len and --lengths take: five times the default
# --truncate; a batch of 100 such windows already holds gigabytes of tape
MAX_STEPS = 10_000


def _synthetic_classes(task):
    if not task.startswith("movedot"):
        raise argparse.ArgumentTypeError(f"unknown synthetic task {task!r}; try movedot2")
    try:
        n = int(task[len("movedot"):])
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown synthetic task {task!r}; try movedot2")
    if not 2 <= n <= num_patterns():
        raise argparse.ArgumentTypeError(f"movedot supports 2..{num_patterns()} classes")
    return n


def _bounded(convert, ok, what):
    """An argparse type: ``convert(text)``, refused unless ``ok`` holds for it."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_count = _bounded(int, lambda v: v >= 1, "a positive integer")
_steps = _bounded(int, lambda v: 1 <= v <= MAX_STEPS, f"a window length in 1..{MAX_STEPS}")
_seed = _bounded(int, lambda v: v >= 0, "a non-negative integer")
_positive = _bounded(float, lambda v: 0 < v < math.inf, "a positive number")
_fraction = _bounded(float, lambda v: 0 < v <= 1, "a fraction in (0, 1]")
_rate = _bounded(float, lambda v: 0 <= v <= 1, "a rate in [0, 1]")


def _address(text):
    host, _, port = text.rpartition(":")
    if not host or not re.fullmatch(r"[0-9]{1,5}", port) or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"bad address {text!r}; want HOST:PORT, "
                                         "the port in 0..65535")
    return host, int(port)


def _lengths(text):
    try:
        out = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad length list {text!r}")
    if not out or any(not 1 <= v <= MAX_STEPS for v in out):
        raise argparse.ArgumentTypeError(f"lengths must be in 1..{MAX_STEPS}")
    return out


def _add_data_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="dataset directory (root/<class>/<sample>.bin)")
    src.add_argument("--synthetic", type=_synthetic_classes, metavar="TASK",
                     help="built-in task, e.g. movedot2 or movedot10")
    p.add_argument("--truncate", type=_count, default=2000,
                   help="keep only the first N events per sequence (default 2000)")
    p.add_argument("--train-count", type=_count, default=2000,
                   help="synthetic training sequences, rounded down to whole sequences "
                        "per class (default 2000)")
    p.add_argument("--test-count", type=_count, default=500,
                   help="synthetic test sequences, rounded down to whole sequences "
                        "per class (default 500)")
    p.add_argument("--synth-events", type=_count, default=400,
                   help="events per synthetic sequence (default 400)")
    p.add_argument("--synth-noise", type=_rate, default=0.05,
                   help="fraction of spurious synthetic events (default 0.05)")


def _datasets(args, seed, split_seed, train=True):
    """(train, test, class names) of the data flags; the training set is
    None without ``train``, unless a --data root must be split to find
    the test set.  ``seed`` draws synthetic sets, which have no names
    (None); ``split_seed`` splits a --data root without train/ and test/
    directories, and None there is an error.  A root's names are its
    sorted class directories: class i is the i-th."""
    if args.synthetic is not None:
        n, scene = args.synthetic, dict(n_events=args.synth_events, noise_rate=args.synth_noise)
        return (moving_dot_dataset(n, args.train_count // n, seed=seed, **scene)
                if train else None,
                moving_dot_dataset(n, args.test_count // n, seed=seed + 7_000_003, **scene), None)
    root = Path(args.data)
    if (root / "train").is_dir() and (root / "test").is_dir():
        train_names, test_names = (set(class_names(root / split)) for split in ("train", "test"))
        if train_names != test_names:
            raise DatasetError(f"the class directories of {root}/train and {root}/test differ: "
                               f"only in train/ {sorted(train_names - test_names)}, "
                               f"only in test/ {sorted(test_names - train_names)}")
        return (load_dataset(root / "train", truncate_to=args.truncate) if train else None,
                load_dataset(root / "test", truncate_to=args.truncate), sorted(train_names))
    full = load_dataset(root, truncate_to=args.truncate)
    if split_seed is None:
        raise DatasetError(f"{root} has no train/ and test/ directories, and the checkpoint "
                           "records no training seed to split it as training did")
    return (*split_dataset(full, 0.9, split_seed), class_names(root))


def build_parser():
    parser = argparse.ArgumentParser(prog="inode",
                                     description="event-stream classification with an "
                                                 "input-filtering neural ODE")
    sub = parser.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_data_flags(pt)
    pt.add_argument("--model", choices=tuple(MODEL_KINDS), default="inode")
    pt.add_argument("--hidden", type=_count, default=None,
                    help="state size (default: 30 for inode, 72 for lstm/bilstm)")
    pt.add_argument("--epochs", type=_count, default=50)
    pt.add_argument("--lr", type=_positive, default=1e-3)
    pt.add_argument("--batch", type=_count, default=100)
    pt.add_argument("--rho", type=_fraction, default=1.0,
                    help="fraction of the training set to use; batch scales with it")
    pt.add_argument("--s-len", type=_steps, default=100)
    pt.add_argument("--seed", type=_seed, default=0)
    pt.add_argument("--grad-clip", type=_positive, default=None)
    pt.add_argument("--out", required=True, help="checkpoint output path")

    pe = sub.add_parser("eval", help="accuracy of a checkpoint across event budgets")
    pe.add_argument("--ckpt", required=True)
    _add_data_flags(pe)
    pe.add_argument("--lengths", type=_lengths, default=DEFAULT_EVAL_LENGTHS)
    pe.add_argument("--seed", type=_seed, default=0)
    pe.add_argument("--repeats", type=_count, default=1)
    pe.add_argument("--json-out", default=None,
                    help="where to write the accuracy table (default <ckpt>.eval.json)")

    ps = sub.add_parser("stream", help="classify a live event stream line by line")
    ps.add_argument("--ckpt", required=True)
    mode = ps.add_mutually_exclusive_group()
    mode.add_argument("--listen", metavar="HOST:PORT", type=_address,
                      help="serve the line protocol over TCP")
    mode.add_argument("--replay", metavar="FILE.bin",
                      help="feed a binary AER file through the classifier")
    ps.add_argument("--fast", action="store_true",
                    help="ignore event pacing during --replay")
    return parser


def cmd_train(args):
    train_set, test_set, names = _datasets(args, args.seed, args.seed)
    hidden = args.hidden if args.hidden is not None else MODEL_KINDS[args.model].hidden
    config = RunConfig(
        model=args.model, hidden=hidden, n_classes=train_set.class_count,
        s_len=args.s_len, epochs=args.epochs, lr=args.lr, batch_size=args.batch,
        rho=args.rho, seed=args.seed, grad_clip=args.grad_clip,
        class_names=None if names is None else tuple(names),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    def progress(rec):
        top = rec.accuracies[max(rec.accuracies)]
        print(f"epoch {rec.epoch:4d}  train_loss {rec.train_loss:.4f}  "
              f"test_loss {rec.test_loss:.4f}  acc@{max(rec.accuracies)} {top:.3f}  "
              f"grad_norm {rec.grad_norm:.4g}  eval {rec.eval_seconds:.2f}s", flush=True)

    try:
        trainer = train(config, train_set, test_set, out_path=out,
                        best_path=out.with_suffix(out.suffix + ".best"), progress=progress)
    except NaNLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    paths = report(trainer.log, out.with_suffix(""))
    print(f"wrote {out}, {out.with_suffix(out.suffix + '.best')}, " + ", ".join(paths))
    return 0


def cmd_eval(args):
    path = Path(args.ckpt)
    ckpt = load_checkpoint(path)
    # the held-out part of a split --data root is the one training left out
    config = ckpt.config if isinstance(ckpt.config, dict) else {}
    seed, trained = config.get("seed"), config.get("class_names")
    if trained is not None and not (type(trained) is list
                                    and all(type(name) is str for name in trained)):
        raise FormatError("the checkpoint's class names are not a list of strings")
    valid = type(seed) is int and seed >= 0
    _, test_set, names = _datasets(args, args.seed, seed if valid else None, train=False)
    if names is not None and trained is not None and names != trained:
        # the held-out set indexes its classes by its own names
        raise DatasetError(f"the class directories of {args.data} are not the checkpoint's: "
                           f"only in the checkpoint {sorted(set(trained) - set(names))}, "
                           f"only in {args.data} {sorted(set(names) - set(trained))}")
    if test_set.class_count > ckpt.n_classes:  # a label the read-out has no class for
        raise DatasetError(f"the held-out set has {test_set.class_count} classes; the "
                           f"checkpoint classifies {ckpt.n_classes}")
    table = evaluate(ckpt.store, ckpt.stats, ckpt.kind, test_set, args.lengths,
                     seed=args.seed, repeats=args.repeats)
    for n in args.lengths:
        print(f"{n:6d}  {table[n]:.4f}")
    json_out = Path(args.json_out) if args.json_out else path.with_suffix(path.suffix + ".eval.json")
    json_out.write_text(json.dumps({str(k): v for k, v in table.items()}, indent=2) + "\n")
    print(f"wrote {json_out}")
    return 0


def cmd_stream(args):
    ckpt = load_checkpoint(args.ckpt)
    try:
        session = streaming.make_session(ckpt)
    except ValueError as exc:  # a kind that classifies whole windows only
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.replay:
        seq = streaming.load_replay(args.replay, ckpt.sensor_dims)
        if args.fast:
            n, seconds = streaming.fast_replay(seq, ckpt, sys.stdout)
            rate = f" ({n / seconds:,.0f} events/s)" if seconds > 0 else ""
            print(f"# {n} events in {seconds:.3f}s{rate}", file=sys.stderr)
        else:
            streaming.paced_replay(seq, ckpt, sys.stdout)
        return 0
    if args.listen:
        host, port = args.listen
        print(f"listening on {host}:{port}", file=sys.stderr)
        streaming.serve_tcp(ckpt, host, port)
        return 0
    streaming.serve_lines(streaming.LineSession(session), sys.stdin.buffer, sys.stdout.buffer)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stream" and args.fast and not args.replay:
        parser.error("--fast needs --replay")
    for flag in ("train_count", "test_count"):
        if getattr(args, "synthetic", None) and getattr(args, flag) < args.synthetic:
            parser.error(f"--{flag.replace('_', '-')} must be at least the class count, "
                         f"{args.synthetic}")
    command = {"train": cmd_train, "eval": cmd_eval, "stream": cmd_stream}[args.command]
    try:
        return command(args)
    except (FormatError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
