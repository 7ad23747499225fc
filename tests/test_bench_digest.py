"""One benchmark pass, in-process, against its recorded digest.

The ``gvec_cli`` workload of ``perfbench/`` runs the g-vector, sweep and
seed-mutation commands through the CLI; its digest covers every byte they
print.  Running one pass here makes a byte drift in those commands fail
the test suite, not only the benchmark.  ``perfbench/digests.json`` is
only read.
"""

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402


def test_gvec_cli_variant_0_matches_its_digest():
    recorded = json.loads((PERFBENCH / "digests.json").read_text())["gvec_cli"]["0"]
    done = workloads.gvec_cli(workloads.inputs("gvec_cli", 0))
    relations = [c["relation"] for c in done.certs]
    assert relations == (
        ["gvec-compare"] * 2 + ["green-sweep"] * 30 + ["seed-mutation"] * 36
    )
    assert [c for c in done.certs if not workloads.expected(c)] == []
    assert worker.digest(done.certs, done.extra()) == recorded
