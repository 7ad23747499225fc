"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_nested_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]
    t = tracer.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 8, 9, 10]))
    a = t.open("qseries.qq_check")
    b = t.open("qseries.KSeries.mul")
    t.close(b)
    c = t.open("qseries.KSeries.inverse")
    d = t.open("qseries.KSeries.mul")
    t.close(d)
    t.close(c)
    t.close(a)
    assert list(t.parent) == [-1, a, a, c]
    assert tracer.self_times(t.start, t.end, t.parent) == [3, 3, 2, 2]
    m = t.metrics()
    assert m["qseries.qq_check.self_s"] == 3
    assert m["qseries.KSeries.mul.calls"] == 2
    assert m["qseries.KSeries.mul.self_s"] == 5
    assert m["qseries.KSeries.inverse.self_s"] == 2
    assert m["qseries.self_s"] == 10


def _bound_names():
    """Every (module, attribute) whose value is a traced original."""
    originals = {
        id(tracer.resolve(*where)[2]): name
        for name, where in {**tracer.SPANS, **tracer.COUNTS}.items()
    }
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name.startswith("clusterqq"):
            for key, value in vars(mod).items():
                if id(value) in originals:
                    out[(mod_name, key)] = value
    return out


def test_install_reaches_every_call_site_and_restore_is_exact():
    import clusterqq.cli  # noqa: F401  (loads every module)
    from clusterqq import cli, qseries, rootsys, seed, wronskian

    before = _bound_names()
    methods = {
        (cls, attr): cls.__dict__[attr]
        for cls, attr in [
            (qseries.KSeries, "__mul__"),
            (qseries.QEvaluator, "q_raw"),
            (wronskian.SeriesMatrix, "minor"),
            (rootsys.RootSystem, "root_coords2"),
        ]
    }
    original_weyl = rootsys.weyl_from_word
    t = tracer.Tracer()
    t.install()
    try:
        # names copied by ``from .x import f`` are re-bound too
        assert qseries.weyl_from_word is not original_weyl
        assert qseries.weyl_from_word is rootsys.weyl_from_word
        assert wronskian.weyl_from_word is rootsys.weyl_from_word
        assert cli.green_sweep is seed.green_sweep
        assert cli.build_coxeter_quiver.__wrapped__ is before[
            ("clusterqq.quiver", "build_coxeter_quiver")
        ]
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr].__wrapped__ is original
        rs = rootsys.RootSystem.from_name("A2")
        qseries.qq_check(qseries.QEvaluator(rs, depth=2), (), 1, 0)
    finally:
        t.restore()
    assert _bound_names().keys() == before.keys()
    for key, value in _bound_names().items():
        assert value is before[key], key
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original
    m = t.metrics()
    assert m["qseries.qq_check.calls"] == 1
    assert m["qseries.KSeries.mul.calls"] > 0
    assert m["rootsys.weyl_from_word.calls"] > 0
    assert m["rootsys.root_coords2.calls"] > 0
    assert m["qseries.KSeries.matches.vacuous"] == 0


def test_digest_is_stable_across_passes():
    seed = 3
    deadline = time.monotonic() + run.WORKER_TIMEOUT_S
    results = [run.spawn("rank_one", seed, None, deadline)[1] for _ in range(2)]
    assert results[0]["failed"] == 0
    assert results[0]["digest"] == results[1]["digest"]
    recorded = json.loads(run.DIGESTS.read_text())["rank_one"]
    assert results[0]["digest"] == recorded[str(seed % workloads.VARIANTS)]


def test_corrupted_certificate_lowers_the_pass_ratio(monkeypatch):
    from clusterqq import sl2

    honest = sl2.ptolemy_check
    calls = []

    def corrupted(*args):
        cert = honest(*args)
        calls.append(args)
        return dict(cert, ok=False) if len(calls) == 1 else cert

    monkeypatch.setattr(sl2, "ptolemy_check", corrupted)
    res = worker.run_pass("rank_one", 0)
    assert res["failed"] == 1
    want = json.loads(run.DIGESTS.read_text())["rank_one"]["0"]
    assert res["digest"] != want
    attempted, failed, problems = run.check_pass(res, want)
    assert failed == attempted and problems

    monkeypatch.setattr(run, "spawn", lambda *a: (0.1, dict(res)))
    out = run.run("rank_one", 0, seconds=0, trace=False)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] == run.MIN_PASSES * res["attempted"]
    assert out["metrics"]["cert_pass_ratio"]["value"] == 0.0


def test_times_are_scaled_by_the_reference_loop(monkeypatch):
    want = json.loads(run.DIGESTS.read_text())["rank_one"]["0"]
    res = {"run_s": 3.0, "peak_rss_mb": 20.0, "attempted": 4, "failed": 0,
           "failures": [], "digest": want}
    refs = iter([0.3, 0.5, 0.3, 0.5])  # every pass sees a mean of 0.4
    monkeypatch.setattr(run, "reference_s", lambda: next(refs))
    monkeypatch.setattr(run, "spawn", lambda *a: (0.12, dict(res)))
    out = run.run("rank_one", 0, seconds=0, trace=False)
    scale = run.REF_NOMINAL_S / ((0.3 + 0.5) / 2)
    assert out["correct"] is True
    assert out["metrics"]["run_s"]["value"] == 3.0 * scale
    assert out["metrics"]["setup_s"]["value"] == 0.12 * scale
    assert out["metrics"]["cert_pass_ratio"]["value"] == 1.0


def test_negative_control_that_passes_is_a_failure():
    assert workloads.expected({"ok": True})
    assert workloads.expected({"ok": False, "expect": False})
    assert not workloads.expected({"ok": True, "expect": False})
    assert not workloads.expected({"ok": False})


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank_one",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
