"""The four benchmark workloads: inputs made from a seed, and one pass each.

A workload (see ``WORKLOADS``) is:

* ``make_inputs(variant)`` — the generated inputs, a JSON-able dict.
  :func:`inputs` reduces the seed modulo ``VARIANTS`` so that every input
  the benchmark can make has a digest recorded in ``digests.json``.
* ``types`` and ``modules`` — what set-up builds and imports: the cost a
  user pays before the first certificate.
* ``run(inputs)`` — one pass, returning a :class:`Pass`.  It calls the
  package only through module attributes (``qseries.qq_check``, never a
  name imported into this file), so the tracer's re-bound wrappers see
  every call.

Each pass keeps the mix of layers its workload was chosen for; see
README.md for why each one exists and which layer metrics should move it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

VARIANTS = 32


@dataclass
class Pass:
    """What one pass produced: its certificates, and a callable that
    returns more digest material.  The callable runs after the timed
    region, so reading results back for the digest is not timed."""

    certs: list = field(default_factory=list)
    extra: Callable[[], object] = lambda: None


def expected(cert: dict) -> bool:
    """A certificate passes when ``ok`` equals its expectation.

    Negative controls carry ``"expect": False``: they pass only when the
    relation they test is reported as failing.
    """
    return cert.get("ok") is cert.get("expect", True)


def _ser_series(s) -> list:
    return sorted(
        [list(lam2), [[list(v), e] for v, e in psi], c]
        for (lam2, psi), c in s.terms.items()
    )


# ---------------------------------------------------------------------------
# qq_battery: the series ring and the evaluator memo
# ---------------------------------------------------------------------------

# One commutation class of reduced words of w0 in A3 (s1 and s3 commute).
# The words of one class visit the same weights, so every seed costs the
# same; the seed still changes the certificates and the series compared.
A3_W0_WORDS = (
    (2, 1, 3, 2, 1, 3),
    (2, 1, 3, 2, 3, 1),
    (2, 3, 1, 2, 1, 3),
    (2, 3, 1, 2, 3, 1),
)
QQ_DEPTH = 3


def qq_battery_inputs(variant: int) -> dict:
    rng = random.Random(f"qq_battery:{variant}")
    r0 = rng.randint(-6, 3)
    return {
        "type": "A3",
        "depth": QQ_DEPTH,
        "word": list(rng.choice(A3_W0_WORDS)),
        "heights": [r0],
        "qqstar_r": r0 - 2,
    }


def qq_battery(inp: dict) -> Pass:
    from clusterqq import qseries, rootsys

    rs = rootsys.RootSystem.from_name(inp["type"])
    depth, word = inp["depth"], tuple(inp["word"])
    ev = qseries.QEvaluator(rs, depth=depth)
    out = Pass()
    for t in range(len(word)):
        for r in inp["heights"]:
            ok = qseries.qq_check(ev, word[:t], word[t], r)
            out.certs.append(
                {"relation": "qq", "word": list(word[:t]), "i": word[t],
                 "r": r, "depth": depth, "ok": ok}
            )
    # negative control: a Q-variable never matches its own q^2-shift
    r = inp["heights"][0] - 2
    ok = ev.q_bar(word, word[-1], r).matches(ev.q_bar(word, word[-1], r + 2))
    out.certs.append(
        {"relation": "qq-shift-control", "word": list(word), "i": word[-1],
         "r": r, "depth": depth, "ok": ok, "expect": False}
    )
    ev_star = qseries.QEvaluator(rs, depth=depth)
    rq = inp["qqstar_r"]
    for i, j in rs.edges():
        for a, b in ((i, j), (j, i)):
            ok = qseries.qqstar_check(ev_star, (), a, b, rq)
            out.certs.append(
                {"relation": "qqstar", "i": a, "j": b, "r": rq,
                 "depth": depth, "ok": ok}
            )

    def series():
        return [
            _ser_series(ev.q_bar(word[: t + 1], word[t], r))
            for t in range(len(word))
            for r in inp["heights"]
        ]

    out.extra = series
    return out


# ---------------------------------------------------------------------------
# minor_systems: the n!-term Leibniz minors, series and rational
# ---------------------------------------------------------------------------


def minor_systems_inputs(variant: int) -> dict:
    rng = random.Random(f"minor_systems:{variant}")
    r0 = rng.randint(-4, 2)
    return {
        "wronskian": {"type": "A3", "r": [r0], "depth": 3},
        "control": {"type": "A2", "r": [r0], "depth": 3,
                    "system_word": [2, 1]},
        "bruhat": {"n": 3, "trials": 300, "seed": rng.randrange(10**6)},
    }


def minor_systems(inp: dict) -> Pass:
    from clusterqq import rootsys, wronskian

    w, c, b = inp["wronskian"], inp["control"], inp["bruhat"]
    out = Pass()
    out.certs.append(
        wronskian.check_wronskian(
            rootsys.RootSystem.from_name(w["type"]), w["r"], w["depth"]
        )
    )
    # negative control: a non-standard Coxeter word breaks the system
    control = wronskian.check_wronskian(
        rootsys.RootSystem.from_name(c["type"]), c["r"], c["depth"],
        tuple(c["system_word"]),
    )
    out.certs.append(dict(control, expect=False))
    out.certs.append(wronskian.bruhat_check(b["n"], b["trials"], b["seed"]))
    return out


# ---------------------------------------------------------------------------
# gvec_cli: the combinatorial layers and the CLI, no series ring
# ---------------------------------------------------------------------------

RANKS = {"D4": 4, "E6": 6, "E7": 7, "E8": 8}

# Green vertices of the E6 window for the Coxeter word 1,2,...,6, as
# (column, top height, count) with heights stepping down by 4.  Mutating
# the seed at all of them, in any order, never leaves sign-coherence.
E6_GREENS = ((1, -2, 8), (2, -3, 6), (3, -3, 7), (4, -4, 6), (5, -5, 5),
             (6, -6, 4))


def gvec_cli_inputs(variant: int) -> dict:
    rng = random.Random(f"gvec_cli:{variant}")

    def coxeter(t):
        word = list(range(1, RANKS[t] + 1))
        rng.shuffle(word)
        return ",".join(map(str, word))

    greens = [f"{i},{top - 4 * k}" for i, top, n in E6_GREENS for k in range(n)]
    rng.shuffle(greens)
    mutate = ["seed", "mutate", "--type", "E6", "--json"]
    for v in greens:
        mutate += ["--vertex", v]
    return {
        "commands": [
            ["gvec", "compare", "--type", "E7", "--coxeter", coxeter("E7"),
             "--json"],
            ["gvec", "compare", "--type", "E8", "--coxeter", coxeter("E8"),
             "--json"],
            ["seed", "sweep", "--type", "D4", "--sweeps", "20", "--coxeter",
             coxeter("D4"), "--json"],
            ["seed", "sweep", "--type", "E6", "--sweeps", "10", "--coxeter",
             coxeter("E6"), "--json"],
            mutate,
        ]
    }


def run_cli(args: list) -> tuple[int, str]:
    """Run ``clusterqq.cli.main`` in-process; return (exit code, stdout)."""
    from clusterqq import cli

    # stderr carries the summary with wall time; it stays out of the digest
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, prog_name="clusterqq")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def gvec_cli(inp: dict) -> Pass:
    out, stdouts = Pass(), []
    for args in inp["commands"]:
        code, stdout = run_cli(args)
        lines = stdout.splitlines()
        for line in lines:
            out.certs.append(json.loads(line))
        if code != 0 or not lines:
            out.certs.append(
                {"relation": "cli-exit", "args": args, "code": code,
                 "ok": False}
            )
        stdouts.append(stdout)
    out.extra = lambda: stdouts
    return out


# ---------------------------------------------------------------------------
# rank_one: many small independent series, no evaluator
# ---------------------------------------------------------------------------


def rank_one_inputs(variant: int) -> dict:
    rng = random.Random(f"rank_one:{variant}")
    shift = rng.randint(-4, 4)
    monomials = []
    for _ in range(1000):
        heights = rng.sample(range(-6 + shift, 7 + shift), rng.randint(1, 6))
        monomials.append([[h, rng.choice([-3, -2, -1, 1, 2, 3])]
                          for h in heights])
    return {
        "ptolemy": {"lo": -5 + shift, "hi": 5 + shift, "depth": 6},
        "exchange": {"r": [shift - 3 + k for k in range(7)], "depth": 6,
                     "span": 3},
        "monomials": monomials,
    }


def rank_one(inp: dict) -> Pass:
    from clusterqq import qseries, sl2

    p = inp["ptolemy"]
    lo, hi, d = p["lo"], p["hi"], p["depth"]
    out = Pass()
    for r in range(lo, hi + 1):
        for rp in range(r + 1, hi + 1):
            for s in range(rp - 1, hi + 1):
                for sp in range(s + 1, hi + 1):
                    out.certs.append(sl2.ptolemy_check(r, s, rp, sp, d))
    e = inp["exchange"]
    for r in e["r"]:
        out.certs.extend(sl2.exchange_relations_at(r, e["depth"], e["span"]))
    for mono in inp["monomials"]:
        psi = ()
        for h, x in mono:
            psi = qseries.psi_mul(psi, qseries.psi_var(1, 2 * h, x))
        segments, _ = sl2.factorize(((0,), psi))
        rebuilt = qseries.key_one(1)
        for seg in segments:
            rebuilt = qseries.key_mul(rebuilt, seg.ell_weight())
        compatible = all(
            sl2.compatible(a, b)
            for k, a in enumerate(segments)
            for b in segments[k + 1:]
        )
        out.certs.append(
            {"relation": "factorization", "monomial": mono,
             "segments": [str(s) for s in segments],
             "ok": compatible and rebuilt[1] == psi}
        )
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    types: tuple  # root systems built during setup
    modules: tuple  # modules imported during setup
    make_inputs: object
    run: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("qq_battery", ("A3",), ("clusterqq.qseries",),
                 qq_battery_inputs, qq_battery),
        Workload("minor_systems", ("A2", "A3"), ("clusterqq.wronskian",),
                 minor_systems_inputs, minor_systems),
        Workload("gvec_cli", ("D4", "E6", "E7", "E8"), ("clusterqq.cli",),
                 gvec_cli_inputs, gvec_cli),
        Workload("rank_one", ("A1",), ("clusterqq.sl2",),
                 rank_one_inputs, rank_one),
    )
}


def inputs(workload: str, seed: int) -> dict:
    return WORKLOADS[workload].make_inputs(seed % VARIANTS)
