"""``python -m repro top`` -- a live terminal view of a running campaign.

Tails the structured event stream (``events.jsonl``, see
:mod:`repro.telemetry.events`) that :class:`ExperimentRunner` and the
replicated campaign harness write next to the run cache.  Each
frame shows per-point state (running / ok / failed / cached), the retry
total, the cache-hit rate, an ETA extrapolated from the
mean finished-point duration, and replica-lane throughput from
``lane_batch`` events.

``--once`` renders a single frame and exits (the path
``tests/test_events.py`` drives in a subprocess); ``--prom FILE``
additionally writes a Prometheus-style text exposition built from a
:class:`MetricsRegistry`, so the same numbers are scrapeable.
"""

import os
import time
from typing import Any, Dict, List, Optional

from repro.telemetry import events as _events
from repro.telemetry.registry import MetricsRegistry


def load_summary(run_dir: str) -> Dict[str, Any]:
    """Replay the run directory's event stream into a summary dict
    (the empty summary when there is no stream yet)."""
    events_path = os.path.join(run_dir, _events.EVENTS_BASENAME)
    records = _events.read_events(events_path)
    summary = _events.replay_summary(records)
    summary["source"] = events_path if records else None
    return summary


def eta_seconds(summary: Dict[str, Any], now: Optional[float] = None) -> Optional[float]:
    """Remaining-work estimate from mean finished-point duration."""
    points: Dict[str, Dict[str, Any]] = summary.get("points", {})
    expected = summary.get("points_expected")
    finished = [
        float(p["seconds"])
        for p in points.values()
        if p.get("seconds") is not None and p["status"] in ("ok", "failed")
    ]
    done = sum(
        1 for p in points.values() if p["status"] in ("ok", "failed", "cached")
    )
    if not isinstance(expected, int) or expected <= done:
        return None
    if not finished:
        return None
    mean = sum(finished) / len(finished)
    return mean * (expected - done)


def lane_throughput(summary: Dict[str, Any]) -> Optional[float]:
    """Aggregate replica-lane cycles per second from lane_batch events."""
    lanes: Dict[int, Dict[str, Any]] = summary.get("lanes", {})
    if len(lanes) < 2:
        return None
    stamps = [l["t"] for l in lanes.values() if isinstance(l.get("t"), (int, float))]
    if len(stamps) < 2 or max(stamps) <= min(stamps):
        return None
    cycles = 0.0
    for lane in lanes.values():
        metrics = lane.get("metrics") or {}
        cycles += float(metrics.get("cycles_run") or 0.0)
    span = max(stamps) - min(stamps)
    return cycles / span if span > 0 else None


def summary_registry(summary: Dict[str, Any]) -> MetricsRegistry:
    """The summary as a :class:`MetricsRegistry` (for ``metrics.prom``)."""
    reg = MetricsRegistry()
    reg.counter("top.points_ok").inc(int(summary.get("ok", 0)))
    reg.counter("top.points_failed").inc(int(summary.get("failed", 0)))
    reg.counter("top.points_cached").inc(int(summary.get("cached", 0)))
    reg.counter("top.retries").inc(int(summary.get("retries", 0)))
    reg.counter("top.worker_stalls").inc(int(summary.get("stalls", 0)))
    reg.counter("top.points_poisoned").inc(int(summary.get("poisoned", 0)))
    reg.gauge("top.circuit_open").set(
        1 if summary.get("circuit") == "open" else 0
    )
    reg.gauge("top.points_running").set(len(summary.get("running", [])))
    expected = summary.get("points_expected")
    reg.gauge("top.points_expected").set(
        int(expected) if isinstance(expected, int) else 0
    )
    reg.gauge("top.lanes_done").set(len(summary.get("lanes", {})))
    eta = eta_seconds(summary)
    if eta is not None:
        reg.gauge("top.eta_seconds").set(eta)
    rate = lane_throughput(summary)
    if rate is not None:
        reg.gauge("top.lane_cycles_per_second").set(rate)
    return reg


def write_prometheus(path: str, summary: Dict[str, Any]) -> str:
    """Write the Prometheus text exposition for ``summary``."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(summary_registry(summary).to_prometheus())
    return path


def render_dashboard(
    summary: Dict[str, Any], run_dir: str = "", max_rows: int = 20
) -> str:
    """One dashboard frame as text."""
    points: Dict[str, Dict[str, Any]] = summary.get("points", {})
    expected = summary.get("points_expected")
    total = expected if isinstance(expected, int) else len(points)
    ok = int(summary.get("ok", 0))
    failed = int(summary.get("failed", 0))
    cached = int(summary.get("cached", 0))
    running = summary.get("running", [])
    done = ok + failed + cached
    pending = max(total - done - len(running), 0)
    served = ok + cached
    hit_rate = cached / served if served else 0.0

    lines = [f"repro top -- {run_dir or summary.get('label') or 'run'}"]
    state = "finished" if summary.get("finished") else (
        "running" if summary.get("started") else "no run data"
    )
    lines.append(
        f"points: {total} total | {ok} ok, {failed} failed, {cached} cached, "
        f"{len(running)} running, {pending} pending [{state}]"
    )
    lines.append(
        f"retries: {summary.get('retries', 0)}   "
        f"cache-hit rate: {hit_rate:.0%}"
    )
    stalls = int(summary.get("stalls", 0) or 0)
    poisoned = int(summary.get("poisoned", 0) or 0)
    circuit = summary.get("circuit", "closed")
    if stalls or poisoned or circuit != "closed":
        lines.append(
            f"supervision: {stalls} worker stall(s), {poisoned} poisoned "
            f"point(s), farm circuit {circuit}"
        )
    eta = eta_seconds(summary)
    if eta is not None:
        lines.append(f"ETA: ~{eta:.1f}s for {total - done} outstanding point(s)")
    lanes = summary.get("lanes", {})
    if lanes:
        rate = lane_throughput(summary)
        rate_txt = f", {rate:,.0f} cycles/s" if rate else ""
        lines.append(f"lanes: {len(lanes)} finished{rate_txt}")
    if points:
        lines.append(f"  {'point':<32} {'state':<8} {'seconds':>8} {'retries':>8}")
        shown = 0
        for label in sorted(points):
            if shown >= max_rows:
                lines.append(f"  ... {len(points) - shown} more")
                break
            p = points[label]
            secs = p.get("seconds")
            secs_txt = f"{float(secs):8.3f}" if secs is not None else "       -"
            lines.append(
                f"  {label:<32} {p['status']:<8} {secs_txt} {p.get('retries', 0):>8}"
            )
            shown += 1
    if summary.get("source"):
        lines.append(f"source: {summary['source']}")
    return "\n".join(lines)


def top_main(
    run_dir: str,
    once: bool = False,
    interval: float = 1.0,
    prom: Optional[str] = None,
) -> int:
    """The ``python -m repro top`` entry point."""
    if not os.path.isdir(run_dir):
        print(f"top: {run_dir} is not a directory")
        return 2
    while True:
        summary = load_summary(run_dir)
        frame = render_dashboard(summary, run_dir)
        if prom:
            write_prometheus(prom, summary)
        if once:
            print(frame)
            return 0
        # Clear + home, then the frame: a classic full-repaint TUI.
        print("\x1b[2J\x1b[H" + frame, flush=True)
        if summary.get("finished"):
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
