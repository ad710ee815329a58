"""One workload run: set up, time a closed loop, check, trace, tear down.

The driver contract is one process per run (``run.py --workload NAME
--seed N --seconds S --trace 0|1``), so ``setup_s`` and ``peak_rss_mb``
belong to that workload alone and no workload inherits another's warm
caches.  The load shape is the same everywhere: one caller, closed loop
(each DSE caller waits for its reply); worker pools get 2 processes,
the box's ``nproc``, and never more.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import resource
import statistics
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from ledger import metrics
from ledger.stats import iqr_share, median, percentile, supported_tail
from ledger.trace import Recorder

SETUP_REPEATS = 3
MIN_OPS = 3
#: The host reference loop (see :class:`HostReference`): iterations of
#: one quantum, its wall clock on a quiet box of this class, and the
#: share of measured time spent on it.
REF_ITERATIONS = 100_000
REF_NOMINAL_S = 5.55e-3
REF_SHARE = 0.10
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


class HostReference:
    """A fixed pure-Python loop timed between operations.

    This class of box (2 vCPUs of a shared host) slows down by 10-50%
    for seconds to minutes at a time when a neighbour is busy; measured
    here, the same seed reads 903 ms on one run and 1005 ms on the
    next.  The slowdown hits this loop and the program alike, so the
    op times of the timed window are divided by ``median(quantum) /
    REF_NOMINAL_S``: they read as on a quiet host, where the factor is
    1.  README.md has the evidence (spread across runs roughly halves).
    """

    def __init__(self) -> None:
        self.quanta: List[float] = []
        self.spent = 0.0

    def quantum(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i
        seconds = time.perf_counter() - t0
        self.quanta.append(seconds)
        self.spent += seconds

    def top_up(self, busy_seconds: float) -> None:
        """Keep reference time at ``REF_SHARE`` of the measured time, so
        both sample the same stretches of host weather."""
        while self.spent < REF_SHARE * busy_seconds:
            self.quantum()

    def factor(self, reduce=median) -> float:
        return reduce(self.quanta) / REF_NOMINAL_S


class Workload:
    """Base class: subclasses fill in ``setup`` / ``op`` / ``verify`` /
    ``trace``.  All inputs come from ``self.rng``, the one
    ``random.Random(seed)`` of the run; the program under test receives
    only the generated inputs."""

    name = ""

    def __init__(self, seed: int, quick: bool, out_dir: str) -> None:
        self.rng = random.Random(seed)
        self.quick = quick
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Latencies of the most heavily instrumented traced ops, and the
        #: host reference timed between them; the harness compares them
        #: with the untraced ones.
        self.traced_lat: List[float] = []
        self.traced_ref = HostReference()

    # -- accounting -------------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        """One attempted operation or gate; a violation counts in
        ``failed`` and is printed with the offending value."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """:meth:`check` for a counted batch of like operations."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {what}")

    def tempdir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix + "-", dir=self.out_dir)

    # -- the protocol -----------------------------------------------------
    def setup(self) -> None:
        """Everything up to the first timed op, warm-up included."""

    def teardown(self) -> None:
        """Undo one :meth:`setup`; must reap every process it started."""

    def op(self, i: int) -> int:
        """Timed operation ``i``; returns the units of work it did."""
        raise NotImplementedError

    def verify(self) -> None:
        """The correctness gate, outside the timed window."""

    def pins(self) -> Optional[dict]:
        """Deterministic results of a fixed seed-11 reference input,
        independent of ``--seed``; compared with ``pinned.json`` so a
        change that is meant to alter no result can prove it."""
        return None

    def verify_pins(self) -> None:
        got = self.pins()
        if got is None:
            return
        with open(PINNED_PATH, encoding="utf-8") as fh:
            want = json.load(fh).get(self.name)
        self.check(got == want, f"pinned results moved: got {got}, pinned {want}")

    def trace(self, rec: Recorder, seconds: float) -> Dict[str, float]:
        """The traced pass: per-layer metrics this workload exercises."""
        return {}

    def rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(op: Callable[[int], int], seconds: float,
               ref: Optional[HostReference] = None) -> Tuple[List[float], int]:
    """Closed loop for ``seconds``: ``(latencies, units)``."""
    lat: List[float] = []
    units = 0
    busy = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        units += op(i)
        t1 = time.perf_counter()
        lat.append(t1 - t0)
        busy += t1 - t0
        i += 1
        if ref is not None:
            ref.top_up(busy)
        if time.perf_counter() >= deadline and len(lat) >= MIN_OPS:
            return lat, units


def surviving_children() -> List[int]:
    """Pids whose parent is this process, after reaping what has exited."""
    multiprocessing.active_children()  # joins finished pool workers
    me = str(os.getpid())
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            alive.append(int(entry))
    return alive


def run_workload(wl: Workload, seconds: float, traced: bool,
                 import_s: float, trace_path: str) -> dict:
    """Drive one workload and return the contract's result object."""
    repeats = 1 if wl.quick else SETUP_REPEATS
    setups = []
    ref = HostReference()
    try:
        for k in range(repeats):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
            if k + 1 < repeats:
                wl.teardown()
        window = seconds / 2 if traced else seconds
        lat, units = timed_loop(wl.op, window, ref)
        rss = wl.rss_mb()
        wl.verify()
        wl.verify_pins()
        if traced:
            rec = Recorder(wl.name)
            layers = wl.trace(rec, window)
            rec.write(trace_path)
    finally:
        wl.teardown()
    orphans = surviving_children()
    wl.check(not orphans, f"child processes survived teardown: {orphans}")

    p50, rate = median(lat), units / sum(lat)
    if traced:
        base = p50 / ref.factor()
        layers["bench.trace_overhead_share"] = (
            median(wl.traced_lat) / wl.traced_ref.factor() - base) / base
        layers["bench.op_iqr_share"] = iqr_share(lat)
        layers["bench.host_ref_ms"] = median(ref.quanta) * 1e3
        unknown = sorted(set(layers) - set(metrics.LAYER_NAMES))
        assert not unknown, f"unregistered per-layer metrics: {unknown}"
        # A layer this workload never enters did no work and took no time.
        values = {name: float(layers.get(name, 0.0)) for name in metrics.LAYER_NAMES}
    else:
        values = {
            "work_per_s": rate * ref.factor(statistics.fmean),
            "op_p50_ms": p50 * 1e3 / ref.factor(),
            "setup_s": import_s + median(setups),
            "peak_rss_mb": rss,
        }

    pct, tail, _ = supported_tail(lat)
    print(f"# {wl.name}: {len(lat)} timed ops, {units} units in {sum(lat):.3f} s; "
          f"{wl.attempted} attempted, {wl.failed} failed")
    print(f"# op latency ms (n={len(lat)}): min {min(lat) * 1e3:.3f} "
          f"p25 {percentile(lat, 25) * 1e3:.3f} p50 {p50 * 1e3:.3f} "
          f"p75 {percentile(lat, 75) * 1e3:.3f} tail(p{pct:g}) {tail * 1e3:.3f} "
          f"max {max(lat) * 1e3:.3f}")
    print(f"# host reference quantum (n={len(ref.quanta)}): median "
          f"{median(ref.quanta) * 1e3:.3f} ms, mean "
          f"{statistics.fmean(ref.quanta) * 1e3:.3f} ms, nominal "
          f"{REF_NOMINAL_S * 1e3:.3f} ms; as timed, before scaling: "
          f"work_per_s {rate:.6g}, op_p50_ms {p50 * 1e3:.6g}")
    for problem in wl.problems:
        print(f"# FAILED: {problem}")
    return {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    }
