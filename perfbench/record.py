"""Record the digest of every input the benchmark can make.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one untraced pass per workload and variant (seed modulo
``workloads.VARIANTS``) and writes ``digests.json``.  A pass with a
failing certificate is not recorded: the command stops with exit 1.
Record only at a commit whose certificates are known to be right; a
change that keeps its results must reproduce these digests.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main(names: list) -> int:
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in names or sorted(workloads.WORKLOADS):
        table = {}
        for variant in range(workloads.VARIANTS):
            deadline = time.monotonic() + run.WORKER_TIMEOUT_S
            _, res = run.spawn(name, variant, None, deadline)
            if "error" in res or res["failed"]:
                print(f"{name} variant {variant}: "
                      f"{res.get('error') or res['failures']}", file=sys.stderr)
                return 1
            table[str(variant)] = res["digest"]
            print(f"{name} {variant} {res['digest']} {res['run_s']:.2f}s",
                  file=sys.stderr)
        digests[name] = table
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
