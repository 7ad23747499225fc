"""One workload pass in a fresh process, as one CLI invocation would run.

    python3 perfbench/worker.py WORKLOAD SEED [SPANS_FILE PASS_ID]

Prints ``ready`` once set-up is done (the parent times process start to
that line as ``setup_s``), then runs one pass and prints one JSON line:
wall time, peak RSS, the certificate counts and the pass digest.  Given
SPANS_FILE, the pass is traced: the line also carries the per-layer
metrics, and the spans are appended to SPANS_FILE under PASS_ID.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tracer import PASS_SPAN, Tracer  # noqa: E402


def digest(certs: list, extra) -> str:
    """sha256 of the canonical JSON of the certificates and extra material."""
    text = json.dumps(
        {"certs": certs, "extra": extra}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(workload: str, seed: int, tracer: Tracer | None = None) -> dict:
    """Set-up is done; run one pass, check it and describe it."""
    wl = workloads.WORKLOADS[workload]
    inp = workloads.inputs(workload, seed)
    if tracer is not None:
        tracer.install()
        idx = tracer.open(PASS_SPAN)
    try:
        t0 = time.perf_counter()
        done = wl.run(inp)
        run_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.close(idx)
            tracer.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = [c for c in done.certs if not workloads.expected(c)]
    return {
        "run_s": run_s,
        "peak_rss_mb": rss_mb,
        "attempted": len(done.certs),
        "failed": len(bad),
        "failures": [json.dumps(c, sort_keys=True)[:300] for c in bad[:5]],
        "digest": digest(done.certs, done.extra()),
    }


def setup(workload: str) -> None:
    wl = workloads.WORKLOADS[workload]
    for module in wl.modules:
        importlib.import_module(module)
    rootsys = importlib.import_module("clusterqq.rootsys")
    for name in wl.types:
        rootsys.RootSystem.from_name(name)


def main(argv: list) -> int:
    workload, seed = argv[0], int(argv[1])
    setup(workload)
    print("ready", flush=True)
    tracer = Tracer() if len(argv) > 2 else None
    try:
        result = run_pass(workload, seed, tracer)
    except Exception:
        traceback.print_exc()
        result = {"error": traceback.format_exc(limit=3)}
    if tracer is not None:
        result["trace"] = tracer.metrics()
        with open(argv[2], "a") as stream:
            tracer.write(stream, int(argv[3]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
