"""Batch command-line front-end.

Every verification routine of the library is exposed as a sub-command
that emits one certificate per checked instance.  With ``--json`` the
certificates stream as JSON lines (deterministic for fixed parameters
and seed; wall time goes to stderr only); otherwise a human-readable
table is printed.  Exit codes: 0 all certificates pass, 1 some fail,
2 usage error, 3 time budget exceeded.
"""

from __future__ import annotations

import json
import sys
import time

import click

from . import gvector, sl2, wronskian
from .qseries import KSeries, QEvaluator, qq_check, qqstar_check, f_label
from .quiver import (
    MarginError,
    build_coxeter_quiver,
    mutate_quiver,
    quiver_to_json,
)
from .rootsys import (
    RootSystem,
    coxeter_data_from_word,
    is_reduced,
    longest_element,
)
from .seed import SignError, _mutate_seed, green_sweep, initial_seed

EXIT_FAIL = 1
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# parameter parsing
# ---------------------------------------------------------------------------


def _root_system(name: str) -> RootSystem:
    try:
        return RootSystem.from_name(name)
    except (ValueError, KeyError) as exc:
        raise click.UsageError(f"unknown type {name!r}: {exc}")


def _parse_word(rs: RootSystem, spec: str, option: str) -> tuple[int, ...]:
    """A comma-separated word whose letters are nodes 1..n ("" is empty)."""
    try:
        word = tuple(int(t) for t in spec.split(",")) if spec else ()
    except ValueError:
        raise click.UsageError(f"bad {option} {spec!r}: expected i,j,k,...")
    if any(not 1 <= i <= rs.n for i in word):
        raise click.UsageError(f"{option} letters must be nodes 1..{rs.n}")
    return word


def _coxeter_word(
    rs: RootSystem, spec: str | None, option: str = "--coxeter"
) -> tuple[int, ...]:
    if spec is None:
        return tuple(range(1, rs.n + 1))
    word = _parse_word(rs, spec, option)
    if sorted(word) != list(range(1, rs.n + 1)):
        raise click.UsageError(
            f"{option} must list each node 1..{rs.n} exactly once"
        )
    return word


def _parse_range(spec: str) -> range:
    try:
        lo, hi = spec.split("..")
        out = range(int(lo), int(hi) + 1)
    except ValueError:
        raise click.UsageError(f"bad range {spec!r}: expected a..b")
    if not out:  # a run over it would certify nothing
        raise click.UsageError(f"empty range {spec!r}: need a <= b")
    return out


def _parse_vertex(spec: str) -> tuple[int, int]:
    try:
        i, r = spec.split(",")
        return (int(i), int(r))
    except ValueError:
        raise click.UsageError(f"bad vertex {spec!r}: expected i,r")


def _parse_end(tok: str) -> float:
    if tok in ("-inf", "-oo"):
        return -sl2.INF
    if tok in ("+inf", "inf", "oo", "+oo"):
        return sl2.INF
    try:
        return int(tok)
    except ValueError:
        raise click.UsageError(f"bad segment end {tok!r}")


def _window(rs: RootSystem, word, depth_below: int = 8, margin: int = 2):
    datum = coxeter_data_from_word(rs, word)
    try:
        return build_coxeter_quiver(
            rs, datum, depth_below=depth_below, margin=margin
        )
    except ValueError as exc:  # MarginError, or an empty window
        raise click.UsageError(f"bad window: {exc}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _ser_gvec(g: gvector.GVec) -> list:
    return [[i, r, c] for (i, r), c in g.coeffs]


def _ser_series(s: KSeries) -> dict:
    terms = []
    for (lam2, psi), coeff in sorted(s.terms.items()):
        terms.append(
            {"bracket": list(lam2), "psi": [list(v) for v in psi], "coeff": coeff}
        )
    return {"cutoff2": [s.cutoff2.numerator, s.cutoff2.denominator], "terms": terms}


# ---------------------------------------------------------------------------
# certificate streaming
# ---------------------------------------------------------------------------


class Reporter:
    """Streams certificates, tracks pass/fail and the time budget."""

    def __init__(self, as_json: bool, budget: float | None):
        self.as_json = as_json
        self.budget = budget
        self.t0 = time.monotonic()
        self.total = 0
        self.failed = 0

    def emit(self, cert: dict) -> None:
        self.total += 1
        ok = cert.get("ok", True)
        if not ok:
            self.failed += 1
        if self.as_json:
            click.echo(json.dumps(cert, sort_keys=True))
        else:
            status = "pass" if ok else "FAIL"
            rest = {k: v for k, v in cert.items() if k not in ("ok", "relation")}
            detail = " ".join(f"{k}={_short(v)}" for k, v in rest.items())
            click.echo(f"{status:4}  {cert.get('relation', '-'):<14} {detail}")
        if self.budget is not None and time.monotonic() - self.t0 > self.budget:
            click.echo("time budget exceeded", err=True)
            sys.exit(EXIT_BUDGET)

    def finish(self) -> None:
        elapsed = time.monotonic() - self.t0
        summary = (
            f"{self.total - self.failed}/{self.total} certificates passed"
            f" in {elapsed:.2f}s"
        )
        click.echo(summary, err=self.as_json)
        sys.exit(EXIT_FAIL if self.failed else 0)


def _short(v) -> str:
    text = json.dumps(v, sort_keys=True, default=str)
    return text if len(text) <= 60 else text[:57] + "..."


def _common(fn):
    fn = click.option("--json", "as_json", is_flag=True, help="JSON-lines output")(fn)
    fn = click.option("--budget", type=float, default=None, help="time budget (s)")(fn)
    return fn


# ---------------------------------------------------------------------------
# command tree
# ---------------------------------------------------------------------------


@click.group()
def main() -> None:
    """Exact certification toolkit for windowed cluster structures."""


@main.group("quiver")
def quiver_group() -> None:
    """Windowed quivers."""


@quiver_group.command("build")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--depth-below", type=int, default=8)
@click.option("--margin", type=int, default=2)
def quiver_build(type_, coxeter, depth_below, margin):
    """Print the Coxeter window quiver as JSON."""
    rs = _root_system(type_)
    cw = _window(rs, _coxeter_word(rs, coxeter), depth_below, margin)
    click.echo(quiver_to_json(cw.quiver))


@quiver_group.command("mutate")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--vertex", required=True)
@click.option("--depth-below", type=int, default=8)
def quiver_mutate(type_, coxeter, vertex, depth_below):
    """Mutate the window quiver at a vertex and print the result."""
    rs = _root_system(type_)
    cw = _window(rs, _coxeter_word(rs, coxeter), depth_below)
    try:
        click.echo(quiver_to_json(mutate_quiver(cw.quiver, _parse_vertex(vertex))))
    except (KeyError, ValueError) as exc:
        raise click.UsageError(str(exc))


@main.group("seed")
def seed_group() -> None:
    """Seeds and green sweeps."""


@seed_group.command("sweep")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--sweeps", type=click.IntRange(min=1), default=4)
@click.option("--depth-below", type=click.IntRange(min=1), default=10)
@_common
def seed_sweep(type_, coxeter, sweeps, depth_below, as_json, budget):
    """Run green sweeps and certify them against the block matrices."""
    rep = Reporter(as_json, budget)
    rs = _root_system(type_)
    # each sweep pushes the green band one slice deeper, so the window
    # must grow with the number of sweeps
    cw = _window(rs, _coxeter_word(rs, coxeter), depth_below + 2 * sweeps)
    seed = initial_seed(cw, stabilized=False)
    for m in range(1, sweeps + 1):
        seed = green_sweep(seed)
        expected = gvector.sweep_gvectors(cw, m)
        mismatch = [v for v, g in seed.g if g != expected[v]]
        rep.emit(
            {
                "relation": "green-sweep",
                "sweep": m,
                "vertices": len(seed.g),
                "mismatches": [list(v) for v in mismatch],
                "ok": not mismatch,
            }
        )
    rep.finish()


@seed_group.command("mutate")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--vertex", "vertices", required=True, multiple=True)
@_common
def seed_mutate(type_, coxeter, vertices, as_json, budget):
    """Mutate the tracked seed and report the new g-vectors."""
    rep = Reporter(as_json, budget)
    rs = _root_system(type_)
    cw = _window(rs, _coxeter_word(rs, coxeter))
    seed = initial_seed(cw)
    for spec in vertices:
        v = _parse_vertex(spec)
        try:
            seed, sign = _mutate_seed(seed, v)
        except (SignError, MarginError) as exc:
            raise click.UsageError(f"cannot mutate at {v}: {exc}")
        rep.emit(
            {
                "relation": "seed-mutation",
                "vertex": list(v),
                "cvector_sign": sign,
                "gvector": _ser_gvec(seed.g_of(v)),
                "ok": True,
            }
        )
    rep.finish()


@main.group("gvec")
def gvec_group() -> None:
    """Stabilized g-vectors."""


def _gvec_listing(method):
    @click.option("--type", "type_", required=True)
    @click.option("--coxeter", default=None)
    @click.option("--depth-below", type=int, default=8)
    @_common
    def cmd(type_, coxeter, depth_below, as_json, budget):
        rep = Reporter(as_json, budget)
        rs = _root_system(type_)
        cw = _window(rs, _coxeter_word(rs, coxeter), depth_below)
        table = method(cw)
        for v in sorted(table):
            rep.emit(
                {
                    "relation": "gvector",
                    "vertex": list(v),
                    "gvector": _ser_gvec(table[v]),
                    "ok": True,
                }
            )
        rep.finish()

    return cmd


gvec_group.command("knit")(_gvec_listing(lambda cw: gvector.knit_gvectors(cw.quiver)))
gvec_group.command("braid")(_gvec_listing(gvector.braid_gvectors))
gvec_group.command("blocks")(_gvec_listing(gvector.blocks_gvectors))


@gvec_group.command("compare")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--depth-below", type=int, default=8)
@_common
def gvec_compare(type_, coxeter, depth_below, as_json, budget):
    """Certify the three-way agreement of knit, braid and block g-vectors."""
    rep = Reporter(as_json, budget)
    rs = _root_system(type_)
    cw = _window(rs, _coxeter_word(rs, coxeter), depth_below)
    knit = gvector.knit_gvectors(cw.quiver)
    braid = gvector.braid_gvectors(cw)
    blocks = gvector.blocks_gvectors(cw)
    mismatch = sorted(
        {v for v in knit if knit[v] != blocks.get(v)}
        | {v for v in blocks if v not in knit}
        | {v for v in braid if braid[v] != knit.get(v)}
    )
    rep.emit(
        {
            "relation": "gvec-compare",
            "type": rs.dynkin_type,
            "vertices": len(knit),
            "band_vertices": len(braid),
            "mismatches": [list(v) for v in mismatch],
            "ok": bool(knit) and bool(braid) and not mismatch,
        }
    )
    rep.finish()


@main.group("qq")
def qq_group() -> None:
    """Two-term functional relations."""


@qq_group.command("verify")
@click.option("--type", "type_", required=True)
@click.option("--depth", type=click.IntRange(min=1), default=4)
@click.option("--window", "window_", default="-4..2")
@_common
def qq_verify(type_, depth, window_, as_json, budget):
    """Certify the relation for every prefix of the longest word."""
    rep = Reporter(as_json, budget)
    rs = _root_system(type_)
    window = _parse_range(window_)
    ev = QEvaluator(rs, depth=depth)
    word = longest_element(rs).word
    for t in range(len(word)):
        prefix, i = word[:t], word[t]
        for r in window:
            rep.emit(
                {
                    "relation": "qq",
                    "word": list(prefix),
                    "i": i,
                    "r": r,
                    "depth": depth,
                    "ok": qq_check(ev, prefix, i, r),
                }
            )
    rep.finish()


@main.group("qqstar")
def qqstar_group() -> None:
    """Three-term exchange relations."""


@qqstar_group.command("verify")
@click.option("--type", "type_", required=True)
@click.option("--depth", type=click.IntRange(min=1), default=4)
@click.option("--r", "r_", type=int, default=-2)
@_common
def qqstar_verify(type_, depth, r_, as_json, budget):
    """Certify the three-term relation for all adjacent node pairs."""
    rep = Reporter(as_json, budget)
    rs = _root_system(type_)
    if rs.n < 2:
        raise click.UsageError("needs rank >= 2")
    ev = QEvaluator(rs, depth=depth)
    for i, j in rs.edges():
        for a, b in ((i, j), (j, i)):
            rep.emit(
                {
                    "relation": "qqstar",
                    "i": a,
                    "j": b,
                    "r": r_,
                    "depth": depth,
                    "ok": qqstar_check(ev, (), a, b, r_),
                }
            )
    rep.finish()


@main.group("qvar")
def qvar_group() -> None:
    """Individual renormalized series."""


@qvar_group.command("eval")
@click.option("--type", "type_", required=True)
@click.option("--word", default="")
@click.option("--i", "i_", type=int, required=True)
@click.option("--r", "r_", type=int, required=True)
@click.option("--depth", type=click.IntRange(min=1), default=4)
@click.option("--raw", is_flag=True, help="skip the renormalization")
def qvar_eval(type_, word, i_, r_, depth, raw):
    """Print one series as JSON."""
    rs = _root_system(type_)
    w = _parse_word(rs, word, "--word")
    if not 1 <= i_ <= rs.n:
        raise click.UsageError(f"--i must be a node 1..{rs.n}")
    if not is_reduced(rs, w):
        raise click.UsageError(f"word {w} is not reduced")
    ev = QEvaluator(rs, depth=depth)
    series = ev.q_raw(w, i_, r_) if raw else ev.q_bar(w, i_, r_)
    click.echo(
        json.dumps(
            {"word": list(w), "i": i_, "r": r_, "series": _ser_series(series)},
            sort_keys=True,
        )
    )


@main.command("f-eval")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--depth-below", type=int, default=8)
@_common
def f_eval(type_, coxeter, depth_below, as_json, budget):
    """Label every window vertex with the series its variable maps to."""
    rep = Reporter(as_json, budget)
    rs = _root_system(type_)
    cw = _window(rs, _coxeter_word(rs, coxeter), depth_below)
    g = gvector.knit_gvectors(cw.quiver)
    for v in sorted(cw.quiver.vertices):
        try:
            word, i, r = f_label(cw, v, g)
            cert = {
                "relation": "f-label",
                "vertex": list(v),
                "word": list(word),
                "i": i,
                "r": r,
                "ok": True,
            }
        except ValueError as exc:
            cert = {
                "relation": "f-label",
                "vertex": list(v),
                "note": str(exc),
                "ok": False,
            }
        rep.emit(cert)
    rep.finish()


@main.group("sl2")
def sl2_group() -> None:
    """Rank-one segment calculus."""


@sl2_group.command("factor")
@click.argument("monomial")
@_common
def sl2_factor(monomial, as_json, budget):
    """Factor an ell-weight monomial into prime segments.

    MONOMIAL is whitespace-separated tokens "r:e", each denoting the
    factor with spectral exponent 2r raised to the integer power e.
    """
    rep = Reporter(as_json, budget)
    try:
        key = sl2.parse_monomial(monomial)
        segments, _ = sl2.factorize(key)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    from .qseries import key_mul, key_one

    rebuilt = key_one(1)
    for seg in segments:
        rebuilt = key_mul(rebuilt, seg.ell_weight())
    compatible = all(
        sl2.compatible(a, b)
        for idx, a in enumerate(segments)
        for b in segments[idx + 1 :]
    )
    rep.emit(
        {
            "relation": "factorization",
            "input": monomial,
            "segments": [str(s) for s in segments],
            "pairwise_compatible": compatible,
            "ok": compatible and rebuilt[1] == key[1],
        }
    )
    rep.finish()


@sl2_group.command(
    "ptolemy", context_settings={"ignore_unknown_options": True}
)
@click.argument("r")
@click.argument("s")
@click.argument("rp")
@click.argument("sp")
@click.option("--depth", type=click.IntRange(min=1), default=6)
@_common
def sl2_ptolemy(r, s, rp, sp, depth, as_json, budget):
    """Certify one quadrilateral exchange relation."""
    rep = Reporter(as_json, budget)
    try:
        cert = sl2.ptolemy_check(
            _parse_end(r), _parse_end(s), _parse_end(rp), _parse_end(sp), depth
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rep.emit(cert)
    rep.finish()


@main.group("wronskian")
def wronskian_group() -> None:
    """Shift-equivariant minor systems."""


@wronskian_group.command("check")
@click.option("--type", "type_", required=True)
@click.option("--r", "r_", default="-4..4")
@click.option("--depth", type=click.IntRange(min=1), default=4)
@click.option("--system-word", default=None)
@_common
def wronskian_check_cmd(type_, r_, depth, system_word, as_json, budget):
    """Certify the minor shift system and det = 1 over a base range."""
    rep = Reporter(as_json, budget)
    rs = _root_system(type_)
    r_values = list(_parse_range(r_))
    # the shift system is defined for a Coxeter element only
    word = _coxeter_word(rs, system_word, "--system-word") if system_word else None
    try:  # a non-A type, or another precondition of the system
        cert = wronskian.check_wronskian(rs, r_values, depth, word)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rep.emit(cert)
    rep.finish()


@main.group("bruhat")
def bruhat_group() -> None:
    """Exact rational minor identities."""


@bruhat_group.command("verify")
@click.option("--n", "n_", type=int, required=True)
@click.option("--trials", type=click.IntRange(min=1), default=20)
@click.option("--seed", type=int, default=0)
@_common
def bruhat_verify(n_, trials, seed, as_json, budget):
    """Sample cell points and certify the exchange and reconstruction laws."""
    rep = Reporter(as_json, budget)
    if n_ < 2:
        raise click.UsageError("need --n >= 2")
    rep.emit(wronskian.bruhat_check(n_, trials, seed))
    rep.finish()


if __name__ == "__main__":
    main()
