"""One cold repeat of one workload, in a fresh interpreter.

Started by run.py with a JSON config as its only argument.  It starts the
speed probe (plain repeats) or imports the tracer (traced repeats), imports
kdc from the checkout's ``src/``, runs the workload's set-up, timed section
and output checks, and prints one JSON line with the figures on stdout.

A fresh interpreter per repeat keeps the lru_caches on ``build``,
``_admissible_flat`` and ``counting.a`` cold, as they are for a user
running one ``kdc`` command.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The speed probe runs every PROBE_INTERVAL_S of wall time.  PROBE_REF_S is
# about its median duration on the tuning host (it ranged from 0.5 to 1.3 ms
# there), so scaled times read close to the raw times seen on that host.
PROBE_INTERVAL_S = 0.04
PROBE_REF_S = 0.001
# a window's slowdown is a mean over at least this many probes
MIN_PROBES = 10


class _Node:
    __slots__ = ("key", "index")

    def __init__(self, key, index):
        self.key = key
        self.index = index


def _probe_work(t):
    return t[0] * 3 + t[-1]


def probe_kernel() -> int:
    """A fixed pure-Python loop of tuples, sets, dicts, sorting and small objects.

    It does the kind of work kdc does and does not depend on kdc, so its
    duration tracks how fast the host runs Python at the moment.
    """
    seen = set()
    counts = {}
    acc = 0
    for i in range(500):
        t = (i % 5, (i * 7) % 11, i & 3)
        if t not in seen:
            seen.add(t)
        key = tuple(sorted(t))
        counts[key] = counts.get(key, 0) + len(t)
        acc += _probe_work(t) + _Node(key, i).index
    return acc


class SpeedProbe:
    """Times probe_kernel on SIGALRM every PROBE_INTERVAL_S.

    The host's speed drifts with other tenants' load.  A window's time,
    less the probe time inside it, divided by the window's mean slowdown
    (mean probe duration over PROBE_REF_S) is what the window would have
    taken at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: list = []

    @staticmethod
    def _probe() -> float:
        t0 = time.perf_counter()
        probe_kernel()
        return time.perf_counter() - t0

    def _fire(self, _signum, _frame) -> None:
        self.samples.append(self._probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, raw_s: float) -> dict:
        """Scale a window of ``raw_s`` seconds that ends now; starts the next window.

        A short window holds few probes, so probes run right after it
        until there are MIN_PROBES; they are not part of its raw time.
        """
        inside = self.samples
        extra = [self._probe() for _ in range(MIN_PROBES - len(inside))]
        self.samples = []
        probe_s = sum(inside)
        slowdown = statistics.fmean(inside + extra) / PROBE_REF_S
        return {"raw_s": raw_s, "probes": len(inside), "probe_s": probe_s,
                "slowdown": slowdown, "scaled_s": (raw_s - probe_s) / slowdown}


def main() -> int:
    started = time.monotonic()
    cfg = json.loads(sys.argv[1])
    # a traced repeat runs no probe, whose time would land in the self time
    # of whatever kdc function it interrupted
    probe = None if cfg["trace"] else SpeedProbe()
    if probe is not None:
        probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import kdc
    import kdc.cli  # noqa: F401  (kdc/__init__ does not import these two)
    import kdc.verify  # noqa: F401

    if Path(kdc.__file__).resolve().parent != ROOT / "src" / "kdc":
        print("kdc imported from %s, not from this checkout" % kdc.__file__, file=sys.stderr)
        return 2
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(kdc)
    import workloads

    setup, measure, check = workloads.WORKLOADS[cfg["workload"]]
    state = setup(cfg["seed"], cfg["size"])
    state["traced"] = tracer is not None
    ready = time.monotonic()
    out = {"spawn_s": started - cfg["launched"], "setup_raw_s": ready - cfg["launched"]}
    if probe is not None:
        # the probe samples this interpreter's own work only, so the start of
        # the process before it (spawn_s) is counted as measured
        out["setup_probe"] = probe.window(ready - started)
        out["setup_s"] = out["spawn_s"] + out["setup_probe"]["scaled_s"]
    if not cfg["setup_only"]:
        t0 = time.perf_counter()
        ops = measure(state)
        out["wall_raw_s"] = time.perf_counter() - t0
        if probe is not None:
            out["wall_probe"] = probe.window(out["wall_raw_s"])
            out["wall_s"] = out["wall_probe"]["scaled_s"]
    if probe is not None:
        probe.stop()
    if not cfg["setup_only"]:
        if tracer is not None:
            # taken before the checks, which call kdc themselves
            out["trace"] = tracer.snapshot()
        out["ops"] = [[op.label, op.seconds, op.parts] for op in ops]
        out["failures"] = check(state, ops)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
