"""Self-test of the ledger harness (not of the program it measures).

Run as a script or through ``python -m pytest
benchmarks/ledger/selfcheck.py``.  Deliberately not named ``test_*`` /
``bench_*``: tier-1 collection and ``repro figures`` never pick it up.
Every workload runs once with ``--quick`` (sizes ~20x smaller), so the
whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
RUN = os.path.join(HERE, "run.py")
for path in (os.path.join(REPO, "src"), os.path.dirname(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from ledger import metrics  # noqa: E402
from ledger.stats import iqr_share, supported_tail  # noqa: E402
from ledger.trace import Recorder  # noqa: E402

GLOSSARY_BEGIN = "<!-- glossary:begin (generated by metrics.py --glossary) -->\n"
GLOSSARY_END = "<!-- glossary:end -->\n"


def run_quick(workload: str, trace: int, seed: int = 11) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_registry_matches_benchmark_json():
    # Importing the registry already asserted name syntax and the caps
    # (<=16 end-to-end, <=128 per-layer, <=8 workloads).
    path = os.path.join(REPO, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == metrics.benchmark_json(), (
        "BENCHMARK.json drifted: python3 benchmarks/ledger/metrics.py "
        "--benchmark-json > BENCHMARK.json")
    doc = json.loads(text)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert len(text) < 64 * 1024


def test_readme_glossary_matches_registry():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    body = readme.split(GLOSSARY_BEGIN)[1].split(GLOSSARY_END)[0]
    assert body == metrics.glossary_markdown(), (
        "README glossary drifted: paste the output of metrics.py --glossary")


def test_span_self_time():
    rec = Recorder("synthetic")
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, parent=root)
    rec.add("a.child", 2.0, 3.0, parent=a)
    rec.add("b", 3.0, 6.0, parent=root)  # overlaps `a` for one second
    rec.add("late", 9.0, 12.0, parent=root)  # clipped to the parent
    self_s = dict(zip((s.name for s in rec.spans), rec.self_seconds()))
    # root: 10 - |[1,6] u [9,10]| = 10 - 6
    assert abs(self_s["root"] - 4.0) < 1e-12
    assert abs(self_s["a"] - 2.0) < 1e-12
    assert abs(self_s["a.child"] - 1.0) < 1e-12
    assert abs(rec.self_total("b") - 3.0) < 1e-12
    events = rec.chrome_events()
    assert {e["name"] for e in events if e["ph"] == "X"} == set(self_s)


def test_percentile_helper_states_what_it_can_support():
    for n, pct in ((2000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
                   (100, 90.0), (60, 75.0), (40, 75.0), (39, 50.0), (9, 50.0)):
        got, value, count = supported_tail(list(range(n)))
        assert (got, count) == (pct, n), (n, got)
        assert n - 1 - value >= 10 or pct == 50.0  # >=10 samples beyond it
    assert iqr_share([1.0, 1.0, 1.0, 1.0]) == 0.0


def test_inputs_are_a_function_of_the_seed():
    from ledger.wl_serve import QueryHit, QueryMiss
    from ledger.wl_sim import SimSparse

    for cls in (QueryHit, QueryMiss):
        a, b, c = cls(7, True, OUT), cls(7, True, OUT), cls(8, True, OUT)
        assert a.payloads == b.payloads
        assert a.payloads != c.payloads
    assert QueryHit(7, True, OUT).order == QueryHit(7, True, OUT).order
    assert SimSparse(7, True, OUT).seeds == SimSparse(7, True, OUT).seeds
    assert SimSparse(7, True, OUT).seeds != SimSparse(8, True, OUT).seeds


def test_every_workload_runs_quick_and_honours_the_schema():
    for name in metrics.WORKLOAD_NAMES:
        for trace, names in ((0, metrics.E2E_NAMES), (1, metrics.LAYER_NAMES)):
            result = run_quick(name, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1
            assert list(result["metrics"]) == names, name
            for metric, m in result["metrics"].items():
                assert set(m) == {"value", "unit"}
                assert m["unit"] == metrics.UNITS[metric]
                assert isinstance(m["value"], (int, float))
                if not trace:
                    assert m["value"] > 0, (name, metric)
        with open(os.path.join(OUT, f"trace-{name}.json"), encoding="utf-8") as fh:
            spans = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["args"]["workload"] == name for e in spans)
        if name == "query_hit":
            # The pure serve path: no simulator and no farm span at all.
            layers = {e["name"].split(".")[0] + "." + e["name"].split(".")[1]
                      for e in spans}
            assert not layers & {"sim.kernel", "sim.batch", "flow.runner",
                                 "serve.dispatch", "network.build"}, layers


def test_refuses_to_run_without_the_program():
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks", "ledger"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/ledger/run.py", "--workload", "query_hit",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180,
        )
        assert proc.returncode != 0
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok  {name}")
    print("LEDGER SELFCHECK OK")
