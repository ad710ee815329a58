"""The performance ledger: one command for every workload and metric.

Two ways in, one code path:

* **One run** (what the benchmark driver calls)::

      python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

  sets the workload up, times a closed loop for ``S`` seconds, checks
  the outputs, and prints every metric by name with its unit, then one
  JSON object as the last line: ``correct`` / ``attempted`` / ``failed``
  / ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
  metrics with ``--trace 1``).  Exit code 1 when any check failed.

* **The ledger** (no ``--workload``): every workload ``--repeats``
  times, each run in a fresh child interpreter, one at a time, order
  rotated per repeat; prints the median of repeats with
  ``(max-min)/median`` beside it and writes ``out/ledger.json``.
  ``--traced`` adds one ``--trace 1`` pass; ``--aa`` runs two full sets
  on the same code and exits non-zero when any end-to-end median moved
  by more than its bound.

See README.md beside this file for the glossary and the method.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(HERE, "out")
# `ledger` becomes a package name; the script directory itself leaves
# sys.path so trace.py does not shadow the standard library's `trace`.
sys.path[0:1] = [os.path.dirname(HERE), SRC]

from ledger import metrics  # noqa: E402
from ledger.stats import median, range_share, worse_by  # noqa: E402

WORKLOAD_CLASSES = {
    "sim_saturated": ("ledger.wl_sim", "SimSaturated"),
    "sim_sparse": ("ledger.wl_sim", "SimSparse"),
    "batch_campaign": ("ledger.wl_sim", "BatchCampaign"),
    "sweep_farm": ("ledger.wl_farm", "SweepFarm"),
    "sweep_warm": ("ledger.wl_farm", "SweepWarm"),
    "query_hit": ("ledger.wl_serve", "QueryHit"),
    "query_miss": ("ledger.wl_serve", "QueryMiss"),
}
assert list(WORKLOAD_CLASSES) == metrics.WORKLOAD_NAMES


def load_workload(name: str):
    """Import only the chosen workload's modules, so ``setup_s`` is its own."""
    import importlib

    module, cls = WORKLOAD_CLASSES[name]
    return getattr(importlib.import_module(module), cls)


# -- one run ----------------------------------------------------------------

def run_one(args) -> int:
    from ledger.harness import run_workload

    cls = load_workload(args.workload)
    import_s = time.perf_counter() - _T0
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = cls(args.seed, args.quick, work)
        if args.write_pins:
            return write_pins(wl)
        result = run_workload(
            wl, args.seconds, bool(args.trace), import_s,
            os.path.join(OUT, f"trace-{args.workload}.json"),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(metrics.format_value(name, m["value"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def write_pins(wl) -> int:
    from ledger.harness import PINNED_PATH

    try:
        with open(PINNED_PATH, encoding="utf-8") as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {}
    pins[wl.name] = wl.pins()
    if pins[wl.name] is None:
        print(f"{wl.name} pins nothing: its gate compares answers with each other")
        return 0
    with open(PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"pinned {wl.name}: {pins[wl.name]}")
    return 0


# -- the ledger -------------------------------------------------------------

def child(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    """One run in a fresh interpreter; returns its parsed result line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"{workload}: no result line (exit {proc.returncode}):\n{proc.stdout}")
    for line in lines[:-1]:
        if line.startswith("# FAILED"):
            print(f"  {workload}: {line[2:]}")
    return result


def run_set(args, names, trace: int) -> dict:
    """``{workload: [result, ...]}`` over ``--repeats`` rotated passes."""
    repeats = 1 if trace else args.repeats
    runs = {name: [] for name in names}
    for r in range(repeats):
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            t0 = time.perf_counter()
            runs[name].append(child(name, args.seed, args.seconds, trace, args.quick))
            print(f"  [{'traced' if trace else f'repeat {r + 1}/{repeats}'}] "
                  f"{name}: {time.perf_counter() - t0:.1f} s", flush=True)
    return runs


def summarize(runs: dict) -> dict:
    """Per workload: median and (max-min)/median of every metric, plus
    the failure count over attempts.  A per-layer metric that read 0 on
    every run belongs to a layer the workload never enters; it is left
    out."""
    out = {}
    for name, results in runs.items():
        rows = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            if any(values):
                rows[metric] = {"median": median(values),
                                "spread": range_share(values),
                                "unit": metrics.UNITS[metric], "n": len(values)}
        out[name] = {
            "metrics": rows,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
        }
    return out


def print_summary(title: str, summary: dict) -> None:
    print(f"\n== {title} ==")
    for name, row in summary.items():
        share = row["failed"] / row["attempted"]
        print(f"{name}: failed_share = {share:.4f} "
              f"({row['failed']} of {row['attempted']})")
        for metric, m in row["metrics"].items():
            print(f"  {metric:<44} {m['median']:>14.6g} {m['unit']:<6} "
                  f"spread {m['spread']:.1%} (n={m['n']})")


def run_ledger(args) -> int:
    names = list(metrics.WORKLOAD_NAMES)
    doc = {"seed": args.seed, "seconds": args.seconds, "quick": args.quick}
    first = summarize(run_set(args, names, 0))
    print_summary("end-to-end (median of repeats)", first)
    doc["end_to_end"] = first
    failed = sum(row["failed"] for row in first.values())
    if args.aa:
        second = summarize(run_set(args, names, 0))
        print_summary("end-to-end, second set", second)
        doc["end_to_end_second"] = second
        failed += sum(row["failed"] for row in second.values())
        print("\n== A/A: how much worse the second set's median is ==")
        for name in names:
            for m in metrics.END_TO_END:
                a = first[name]["metrics"][m.name]["median"]
                b = second[name]["metrics"][m.name]["median"]
                gap = worse_by(a, b, m.better)
                verdict = "ok" if gap <= m.bound else "EXCEEDS BOUND"
                if gap > m.bound:
                    failed += 1
                print(f"{name:<16} {m.name:<12} {a:>12.6g} -> {b:>12.6g} {m.unit:<4} "
                      f"{gap:+.1%} (bound {m.bound:.0%}) {verdict}")
    if args.traced:
        layers = summarize(run_set(args, names, 1))
        print_summary("per-layer (one traced run)", layers)
        doc["per_layer"] = layers
        failed += sum(row["failed"] for row in layers.values())
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "ledger.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(path)}; "
          f"{'OK' if not failed else f'{failed} FAILURES'}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=metrics.WORKLOAD_NAMES,
                    help="run this one workload and print its result line")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS),
                    help="length of the timed window of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="one run: 1 = report per-layer metrics and write the span file")
    ap.add_argument("--quick", action="store_true",
                    help="sizes ~20x smaller; for selfcheck.py only, never for reported numbers")
    ap.add_argument("--write-pins", action="store_true",
                    help="with --workload: re-derive that workload's pinned statistics into pinned.json")
    ap.add_argument("--repeats", type=int, default=3, help="ledger: runs per workload")
    ap.add_argument("--traced", action="store_true", help="ledger: add the --trace 1 pass")
    ap.add_argument("--aa", action="store_true",
                    help="ledger: two sets on the same code; fail when a median moves past its bound")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
