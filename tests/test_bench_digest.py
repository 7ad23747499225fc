"""Benchmark passes, in-process, against their recorded digests.

The ``gvec_cli`` workload of ``perfbench/`` runs the g-vector, sweep and
seed-mutation commands through the CLI; its digest covers every byte they
print.  Each of its variants shuffles the E7, E8, D4 and E6 Coxeter words,
so its variants pin the windows of 128 words.  The ``minor_systems``
workload runs ``check_wronskian`` (with its failing control, whose notes
are part of the digest) and ``bruhat_check``.  The ``qq_battery`` workload
runs the A3 QQ and QQ* checks with a failing shift control, and its
digest covers the series it certified; the ``rank_one`` workload runs the
Ptolemy grid, the exchange relations and the factorizations.  Running
passes here makes a byte drift in those certificates fail the test suite,
not only the benchmark: variant 0 of ``minor_systems``, and all the
variants of ``gvec_cli``, ``qq_battery`` and ``rank_one``.
``perfbench/digests.json`` is only read.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import worker  # noqa: E402
import workloads  # noqa: E402


def recorded(workload: str, variant: int = 0) -> str:
    return json.loads((PERFBENCH / "digests.json").read_text())[workload][
        str(variant)
    ]


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_gvec_cli_matches_its_digest(variant):
    done = workloads.gvec_cli(workloads.inputs("gvec_cli", variant))
    relations = [c["relation"] for c in done.certs]
    assert relations == (
        ["gvec-compare"] * 2 + ["green-sweep"] * 30 + ["seed-mutation"] * 36
    )
    assert [c for c in done.certs if not workloads.expected(c)] == []
    assert worker.digest(done.certs, done.extra()) == recorded("gvec_cli", variant)


def test_minor_systems_variant_0_matches_its_digest():
    done = workloads.minor_systems(workloads.inputs("minor_systems", 0))
    assert [c["relation"] for c in done.certs] == ["wronskian"] * 2 + ["bruhat"]
    assert [c for c in done.certs if not workloads.expected(c)] == []
    control = done.certs[1]
    assert not control["ok"]
    assert any(e["note"] for e in control["equations"])
    assert worker.digest(done.certs, done.extra()) == recorded("minor_systems")


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_qq_battery_matches_its_digest(variant):
    done = workloads.qq_battery(workloads.inputs("qq_battery", variant))
    relations = [c["relation"] for c in done.certs]
    assert relations == ["qq"] * 6 + ["qq-shift-control"] + ["qqstar"] * 4
    assert [c for c in done.certs if not workloads.expected(c)] == []
    assert not done.certs[6]["ok"]
    assert worker.digest(done.certs, done.extra()) == recorded("qq_battery", variant)


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_rank_one_matches_its_digest(variant):
    done = workloads.rank_one(workloads.inputs("rank_one", variant))
    relations = [c["relation"] for c in done.certs]
    assert relations[:715] == ["ptolemy"] * 715
    assert relations[-1000:] == ["factorization"] * 1000
    assert [c for c in done.certs if not workloads.expected(c)] == []
    assert worker.digest(done.certs, done.extra()) == recorded("rank_one", variant)
