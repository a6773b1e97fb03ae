"""Statistics, host-speed probe, machine block and memory readings.

Everything here is independent of the program under test, so the
benchmark's own tests can exercise it without importing ``inode``.
"""

import contextlib
import ctypes
import glob
import math
import os
import platform
import resource
import time


def percentile(values, pct):
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    # rounded first, so that 99.9% of 10,000 samples is rank 9,990
    rank = math.ceil(round(pct * len(ordered) / 100.0, 6))
    return ordered[max(rank, 1) - 1]


def median(values):
    """Middle value; the mean of the two middle ones for an even count."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def room_for_round(started, deadline, rounds_done):
    """Whether one more round, as long as the mean round so far, ends by
    the deadline; a run then measures no more than its stated time."""
    now = time.perf_counter()
    mean = (now - started) / rounds_done if rounds_done else 0.0
    return now + mean <= deadline


REFERENCE_MIPS = 16.0


class Stopwatch:
    """Times operations and restates each one at a reference host speed.

    The host's speed drifts, within a run and between runs: the probe
    below read from 12 to 24 M iterations/s between runs of one commit.
    So the probe runs just before and just after every timed operation,
    and the operation's time is multiplied by the mean of the two
    readings over REFERENCE_MIPS.  A figure is then the median of a
    name's restated times; the times as measured are kept beside them.
    """

    def __init__(self):
        self.raw = {}
        self.restated = {}
        self.probes = []

    @contextlib.contextmanager
    def timing(self, name):
        before = host_speed_probe()
        started = time.perf_counter()
        yield
        elapsed = time.perf_counter() - started
        after = host_speed_probe()
        self.probes += [before, after]
        self.raw.setdefault(name, []).append(elapsed)
        self.restated.setdefault(name, []).append(
            elapsed * (before + after) / (2.0 * REFERENCE_MIPS))

    def median(self, name):
        return median(self.restated[name])

    def info(self):
        """The samples behind every figure, for the run record."""
        out = {"host_mips_median": median(self.probes), "host_mips_samples": self.probes}
        for name, raw in self.raw.items():
            out[f"{name}_raw_samples"] = raw
            out[f"{name}_restated_samples"] = self.restated[name]
            out[f"{name}_raw_median"] = median(raw)
        return out


def host_speed_probe(iterations=200_000):
    """Millions of iterations per second of a fixed pure-Python loop.

    Taken between a workload's own samples, it tells a slow host apart
    from a slow program.
    """
    acc = 0
    started = time.perf_counter()
    for i in range(iterations):
        acc += i & 7
    return iterations / (time.perf_counter() - started) / 1e6


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_block():
    """nproc, Python, numpy, the BLAS library and its thread count."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def own_peak_rss_mb():
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds_of_pid(pid):
    """CPU time of the live threads of a child process, in nanoseconds'
    resolution (``/proc/<pid>/stat`` counts whole clock ticks).

    A thread that ends drops out of the sum, so a difference of two
    readings is right only while the same threads live: the server keeps
    one thread per open connection, and the connections stay open.
    """
    total = 0
    for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
        try:
            with open(path) as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread ended between glob and open
            pass
    return total / 1e9


def peak_rss_of_pid_mb(pid):
    """VmHWM of a live child process, read from /proc."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
