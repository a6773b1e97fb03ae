"""Benchmark entry point: one workload per invocation.

    env OPENBLAS_NUM_THREADS=1 python3 bench/run.py \\
        --workload inode --seed 1 --seconds 50 --trace 0

A workload names the model, INODE or the LSTM baseline, and runs two
phases on it, one after the other, each in its own process and for a
share of ``--seconds``: training (``train_work``), then streaming
(``stream_work``).  Between them the phases measure every metric, so
both workloads print the same set.  A phase in a process of its own
starts from a fresh heap, and its peak memory is its own.

Run from the repository root.  The program is imported from ``src/``;
it receives only inputs generated from ``--seed``.  The machine block
and each phase's host-speed figure are printed first, then one line per
check and metric, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  Full records
and spans go to ``.bench_runs/``.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("inode", "lstm")
PHASES = ("train", "stream")
TRAIN_SHARE = 0.5          # of --seconds; the streaming phase gets the rest


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=PHASES, help=argparse.SUPPRESS)
    parser.add_argument("--run-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    sys.exit(128 + signum)


def run_phase(args, run_dir):
    """One phase in this process; prints its result as one JSON line."""
    import common

    tracer = None
    if args.trace:
        import inode  # noqa: F401  loads every layer before the wrappers go in
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if args.phase == "train":
        import train_work

        result = train_work.run(args.workload, args.seed, args.seconds, tracer)
        peak_rss = common.own_peak_rss_mb()
    else:
        import stream_work

        result = stream_work.run(args.workload, args.seed, args.seconds, tracer, run_dir, ROOT)
        # plus the server's, which the phase read before stopping it
        peak_rss = common.own_peak_rss_mb() + result[0].pop("server_peak_rss_mb")[0]
    metrics, layers, checks, attempted, failed, info = result
    checks = [(name, bool(passed), detail) for name, passed, detail in checks]
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    if tracer is not None:
        tracer.uninstall_gc()
        tracer.dump(run_dir / f"spans-{args.phase}.json")
    print(json.dumps({"metrics": metrics, "layers": layers, "checks": checks,
                      "attempted": attempted, "failed": failed, "info": info}, default=float),
          flush=True)
    return 0


def spawn_phase(args, phase, seconds, run_dir):
    """Run a phase in a child process and return its parsed result.

    If this process is stopped meanwhile, the child gets SIGTERM, so that
    it stops its own server, and is waited for.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--phase", phase, "--run-dir", str(run_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{phase} phase exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    args = parse_args(argv)
    # on SIGTERM the finally blocks still stop the child processes
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "inode" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.phase is not None:
        return run_phase(args, Path(args.run_dir))

    import common

    machine = common.machine_block()
    print("# machine " + json.dumps(machine), flush=True)
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    metrics, layers, checks, info = {}, {}, [], {}
    attempted = failed = 0
    for phase in PHASES:
        share = TRAIN_SHARE if phase == "train" else 1.0 - TRAIN_SHARE
        res = spawn_phase(args, phase, args.seconds * share, run_dir)
        p_metrics = {name: tuple(pair) for name, pair in res["metrics"].items()}
        print(f"# host_speed_mips {phase} {res['info']['host_mips_median']:.3f} "
              f"(median of {len(res['info']['host_mips_samples'])} probes)")
        # set-up and peak memory are the sums over the two phases
        for name in ("setup_s", "peak_rss_mb"):
            value, unit = p_metrics.pop(name)
            p_metrics[name] = (metrics.get(name, (0.0, unit))[0] + value, unit)
        metrics.update(p_metrics)
        layers.update({name: tuple(pair) for name, pair in res["layers"].items()})
        checks += [(f"{phase}.{name}", passed, detail) for name, passed, detail in res["checks"]]
        attempted += res["attempted"]
        failed += res["failed"]
        info.update({f"{phase}.{name}": value for name, value in res["info"].items()})

    for name, value in info.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            print(f"# info {name} {value:.6g}")
    for name, passed, detail in checks:
        print(f"# check {'PASS' if passed else 'FAIL'} {name}: {detail}")
    for name, (value, unit) in {**metrics, **layers}.items():
        print(f"# metric {name} {value:.6g} {unit}")
    correct = bool(checks) and all(passed for _, passed, _ in checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_unix": started, "machine": machine,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "layers": layers, "checks": checks, "info": info,
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    shown = layers if args.trace else metrics
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
