"""Benchmark of the clusterqq certifier: run one workload for a while.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass runs in a fresh worker
process (``worker.py``), as each CLI invocation does: cold caches and a
fresh ``QEvaluator``.  Passes repeat until S seconds have gone by (at
least ``MIN_PASSES``); a reference loop timed between passes on the same
CPU scales the end-to-end times (see ``reference_s``).  Every pass is
checked: each certificate must pass, each negative control must fail,
and the pass digest must equal the one recorded in ``digests.json`` for
this workload and input.

The last line of stdout is one JSON object.  With ``--trace 0`` its
metrics are the end-to-end ones (medians over the passes); with
``--trace 1`` traced and untraced passes alternate, and its metrics are
the per-layer ones from the traced passes plus the tracing overhead.
Progress and failures go to stderr.  Exit code 2 means the benchmark
could not run at all (no ``src/clusterqq`` here, or a bad argument).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED = 2
WORKER_TIMEOUT_S = 150
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"
# Nominal time of reference_s(): end-to-end times are scaled to it.
REF_NOMINAL_S = 0.2


def reference_s() -> float:
    """Time a fixed loop of the kind of work the package does.

    Exact fractions, tuple keys and dict stores.  It runs in this process,
    which never imports the package, so a change to the package cannot
    change it; it only tracks how fast the CPU runs right now.  On a
    shared machine one vCPU runs up to a third slower for minutes at a
    time, so the runner and its workers share one CPU, the loop is timed
    before and after every pass, and ``setup_s`` and ``run_s`` are scaled
    by ``REF_NOMINAL_S`` over the mean of the two.
    """
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 70_000):
        acc += Fraction(i % 7, i % 11 + 1)
        table[(i % 97, i % 13)] = acc
    return time.perf_counter() - t0


def spawn(workload: str, seed: int, trace_to: tuple | None, deadline: float):
    """Run one pass in a fresh worker; return (setup_s, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if trace_to is not None:
        cmd += [str(trace_to[0]), str(trace_to[1])]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        line = proc.stdout.readline()
        proc.stdout.read()
    finally:
        killer.cancel()
        proc.wait()
    if ready.strip() != "ready" or not line:
        return setup_s, {"error": f"worker exited with {proc.returncode}"}
    return setup_s, json.loads(line)


def check_pass(res: dict, want: str | None) -> tuple[int, int, list]:
    """(attempted, failed, problems) for one pass result.

    A digest mismatch fails every certificate of the pass.
    """
    if "error" in res:
        return 1, 1, [res["error"]]
    problems = list(res["failures"])
    attempted, failed = res["attempted"], res["failed"]
    if want is None:
        problems.append("no digest recorded for this input")
        failed = attempted
    elif res["digest"] != want:
        problems.append(f"digest {res['digest']} != recorded {want}")
        failed = attempted
    return attempted, failed, problems


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def trace_metrics(traced: list, untraced_run_s: float) -> tuple[dict, list]:
    """Per-layer metrics from the traced passes, and any count mismatch.

    Counts must repeat exactly across passes of one seed; times are
    medians.  The vacuous-comparison count must be zero.
    """
    problems = []
    first = traced[0]["trace"]
    for other in traced[1:]:
        for key, value in other["trace"].items():
            if not key.endswith("_s") and value != first[key]:
                problems.append(f"{key} differs across traced passes: "
                                f"{first[key]} != {value}")
    if first["qseries.KSeries.matches.vacuous"]:
        problems.append("KSeries.matches compared two empty series")
    out = {
        key: median([t["trace"][key] for t in traced]) if key.endswith("_s")
        else value
        for key, value in first.items()
    }
    out["trace.run_s"] = median([t["run_s"] for t in traced])
    out["trace.overhead_s"] = out["trace.run_s"] - untraced_run_s
    return out, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    recorded = json.loads(DIGESTS.read_text()).get(workload, {})
    want = recorded.get(str(seed % workloads.VARIANTS))
    spans = SPANS_DIR / f"{workload}.spans.tsv"
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans.unlink(missing_ok=True)
    start = time.monotonic()
    deadline = start + WORKER_TIMEOUT_S
    plain, traced = [], []
    attempted = failed = 0
    correct = True
    ref_before = reference_s()
    while True:
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_TRACED)
        if enough and time.monotonic() - start >= seconds:
            break
        do_trace = trace and len(traced) <= len(plain)
        setup_s, res = spawn(
            workload, seed, (spans, len(traced)) if do_trace else None, deadline
        )
        a, f, problems = check_pass(res, want)
        attempted, failed = attempted + a, failed + f
        if problems:
            correct = False
            for p in problems:
                print(f"FAIL {workload} seed {seed}: {p}", file=sys.stderr)
        if "error" in res:
            break
        ref_after = reference_s()
        res["setup_s"] = setup_s
        res["scale"] = REF_NOMINAL_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        (traced if do_trace else plain).append(res)
        print(f"{workload} seed {seed} pass {len(plain) + len(traced)}: "
              f"{'traced ' if do_trace else ''}run {res['run_s']:.3f}s "
              f"setup {setup_s:.3f}s scale {res['scale']:.3f} "
              f"rss {res['peak_rss_mb']:.1f}MB", file=sys.stderr)
    if trace and traced and plain:
        metrics, problems = trace_metrics(
            traced, median([p["run_s"] for p in plain])
        )
        for p in problems:
            print(f"FAIL {workload} seed {seed}: {p}", file=sys.stderr)
        correct = correct and not problems
    else:
        metrics = {
            "setup_s": median([p["setup_s"] * p["scale"] for p in plain]),
            "run_s": median([p["run_s"] * p["scale"] for p in plain]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
            "cert_pass_ratio": (attempted - failed) / attempted,
        }
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": unit_of(k)}
            for k, v in metrics.items()
        },
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "clusterqq" / "__init__.py").is_file():
        print(f"no src/clusterqq under {ROOT}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # workers inherit the affinity: passes and reference loops share a CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
