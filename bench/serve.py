"""Start ``inode stream`` with the benchmark's span wrappers installed.

    python bench/serve.py --spans OUT.json -- stream --ckpt M --listen H:P

The spans are written to OUT.json when the server is terminated.
"""

import argparse
import signal
import sys

import inode.cli
from tracing import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return inode.cli.main(cli_args)
    except KeyboardInterrupt:
        return 0
    finally:
        tracer.uninstall_gc()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
