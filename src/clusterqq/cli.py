"""Batch command-line front-end.

Every verification routine of the library is exposed as a sub-command
that emits one certificate per checked instance.  With ``--json`` the
certificates stream as JSON lines (deterministic for fixed parameters
and seed; wall time goes to stderr only); otherwise a human-readable
table is printed.  Exit codes: 0 all certificates pass, 1 some fail,
2 usage error, 3 time budget exceeded.

The ten certifying commands are ``seed sweep``, ``seed mutate``, ``gvec
compare``, ``qq verify``, ``qqstar verify``, ``f-eval``, ``sl2 factor``,
``sl2 ptolemy``, ``wronskian check`` and ``bruhat verify``.  Each runs
one lifecycle, :func:`_certifies`: its ``--budget`` and ``--json``
options, one :class:`Reporter` passed to the body as ``rep``, and
``rep.finish()`` after it.  The printers compare nothing and exit 0:
``quiver build`` and ``quiver mutate`` print quiver JSON, ``qvar eval``
one series, and ``gvec knit``, ``gvec braid`` and ``gvec blocks`` one
JSON line per vertex.  Every Coxeter window comes from one
:func:`_window` call on the raw option values.

Importing this module loads click and the combinatorial layers only:
``rootsys``, ``quiver``, ``gvector`` and ``seed``.  The series ring
(``qseries``, ``sl2``, ``wronskian``) is loaded by the seven commands
that evaluate series, inside their bodies: ``qq verify``, ``qqstar
verify``, ``qvar eval``, ``sl2 factor``, ``sl2 ptolemy``, ``wronskian
check`` and ``bruhat verify``.  The quiver, seed and g-vector commands
never compile it.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from typing import TYPE_CHECKING

import click

from . import gvector
from .quiver import (
    build_coxeter_quiver,
    mutate_quiver,
    quiver_to_json,
)
from .rootsys import (
    RootSystem,
    coxeter_data,
    is_reduced,
    longest_element,
)
from .seed import green_sweep, initial_seed, mutate_seed

if TYPE_CHECKING:
    from .qseries import KSeries

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
        return -math.inf
    if tok in ("+inf", "inf", "oo", "+oo"):
        return math.inf
    try:
        return int(tok)
    except ValueError:
        raise click.UsageError(f"bad segment end {tok!r}")


def _window(type_: str, coxeter: str | None, depth_below: int = 8, margin: int = 2):
    """The Coxeter window of the raw ``--type`` and ``--coxeter`` values."""
    rs = _root_system(type_)
    datum = coxeter_data(rs, _coxeter_word(rs, coxeter))
    try:
        return build_coxeter_quiver(datum, depth_below=depth_below, margin=margin)
    except ValueError as exc:  # MarginError, or an empty window
        raise click.UsageError(f"bad window: {exc}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _ser_gvec(g: dict) -> list:
    """A g-vector's (vertex, coefficient) pairs, in sorted order, as JSON."""
    return [[i, r, c] for (i, r), c in sorted(g.items())]


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
        """Stream one certificate; one without ``ok`` or ``relation`` raises."""
        ok, relation = cert["ok"], cert["relation"]
        self.total += 1
        if not ok:
            self.failed += 1
        if self.as_json:
            click.echo(json.dumps(cert, sort_keys=True))
        else:
            status = "pass" if ok else "FAIL"
            rest = {k: v for k, v in cert.items() if k not in ("ok", "relation")}
            detail = " ".join(f"{k}={_short(v)}" for k, v in rest.items())
            click.echo(f"{status:4}  {relation:<14} {detail}")
        self.check_budget()

    def check_budget(self) -> None:
        """Exit 3 once the budget is spent; long checks call it while they run."""
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


def _certifies(body):
    """Give ``body`` the run lifecycle; apply it below the command's options."""

    @functools.wraps(body)
    def run(as_json, budget, **params):
        if budget is not None and not budget >= 0:  # NaN compares false
            raise click.UsageError(f"bad budget {budget}: need a number >= 0")
        rep = Reporter(as_json, budget)
        body(rep, **params)
        rep.finish()

    run = click.option("--json", "as_json", is_flag=True, help="JSON-lines output")(run)
    run = click.option("--budget", type=float, default=None, help="time budget (s)")(run)
    return run


# ---------------------------------------------------------------------------
# command tree
# ---------------------------------------------------------------------------


class _Main(click.Group):
    """The command tree.  A number too large for the packed keys of the
    series ring raises ``OverflowError`` in whichever command meets it;
    that is a usage error, reported here once for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except OverflowError as exc:
            click.echo(f"Error: out of range: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_Main)
def main() -> None:
    """Exact certification toolkit for windowed cluster structures."""


@main.group("quiver")
def quiver_group() -> None:
    """Windowed quivers."""


@quiver_group.command("build")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--depth-below", type=int, default=8)
@click.option("--margin", type=click.IntRange(min=0), default=2)
def quiver_build(type_, coxeter, depth_below, margin):
    """Print the Coxeter window quiver as JSON."""
    cw = _window(type_, coxeter, depth_below, margin)
    click.echo(quiver_to_json(cw.quiver))


@quiver_group.command("mutate")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--vertex", required=True)
@click.option("--depth-below", type=int, default=8)
def quiver_mutate(type_, coxeter, vertex, depth_below):
    """Mutate the window quiver at a vertex and print the result."""
    cw = _window(type_, coxeter, depth_below)
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
@_certifies
def seed_sweep(rep, type_, coxeter, sweeps, depth_below):
    """Run green sweeps and certify them against the block matrices."""
    # each sweep pushes the green band one slice deeper, so the window
    # must grow with the number of sweeps
    cw = _window(type_, coxeter, depth_below + 2 * sweeps)
    # one working seed through every sweep, frozen (and so checked) once
    seed = initial_seed(cw, stabilized=False).thaw()
    expected = gvector.sweep_gvectors(cw, sweeps)
    for m in range(1, sweeps + 1):
        green_sweep(seed)
        mismatch = sorted(v for v, g in seed.g.items() if g != expected[m][v])
        rep.emit(
            {
                "relation": "green-sweep",
                "sweep": m,
                "vertices": len(seed.g),
                "mismatches": [list(v) for v in mismatch],
                "ok": not mismatch,
            }
        )
    seed.freeze()


@seed_group.command("mutate")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--vertex", "vertices", required=True, multiple=True)
@_certifies
def seed_mutate(rep, type_, coxeter, vertices):
    """Mutate the tracked seed and report the new g-vectors."""
    cw = _window(type_, coxeter)
    points = [_parse_vertex(spec) for spec in vertices]
    # one working seed through every mutation, frozen (and so checked) once
    seed = initial_seed(cw).thaw()
    for v in points:
        try:
            seed, sign = mutate_seed(seed, v)
        except ValueError as exc:
            raise click.UsageError(f"cannot mutate at {v}: {exc}")
        rep.emit(
            {
                "relation": "seed-mutation",
                "vertex": list(v),
                "cvector_sign": sign,
                "gvector": _ser_gvec(seed.g[v]),
                "ok": True,
            }
        )
    seed.freeze()


@main.group("gvec")
def gvec_group() -> None:
    """Stabilized g-vectors."""


def _gvec_listing(method):
    """A printer of one method's g-vectors: it compares nothing, so it
    certifies nothing; ``gvec compare`` is the certificate."""

    @click.option("--type", "type_", required=True)
    @click.option("--coxeter", default=None)
    @click.option("--depth-below", type=int, default=8)
    def cmd(type_, coxeter, depth_below):
        table = method(_window(type_, coxeter, depth_below))
        for v in sorted(table):
            line = {"gvector": _ser_gvec(table[v]), "vertex": list(v)}
            click.echo(json.dumps(line, sort_keys=True))

    return cmd


gvec_group.command(
    "knit", help="Print the knitted g-vectors, one JSON line per vertex."
)(_gvec_listing(lambda cw: gvector.knit_gvectors(cw.quiver)))
gvec_group.command(
    "braid", help="Print the braid-action g-vectors, one JSON line per green."
)(_gvec_listing(gvector.braid_gvectors))
gvec_group.command(
    "blocks", help="Print the block-limit g-vectors, one JSON line per vertex."
)(_gvec_listing(gvector.blocks_gvectors))


@gvec_group.command("compare")
@click.option("--type", "type_", required=True)
@click.option("--coxeter", default=None)
@click.option("--depth-below", type=int, default=8)
@_certifies
def gvec_compare(rep, type_, coxeter, depth_below):
    """Certify the three-way agreement of knit, braid and block g-vectors."""
    cw = _window(type_, coxeter, depth_below)
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
            "type": cw.datum.rs.dynkin_type,
            "vertices": len(knit),
            "band_vertices": len(braid),
            "mismatches": [list(v) for v in mismatch],
            "ok": bool(knit) and bool(braid) and not mismatch,
        }
    )


@main.group("qq")
def qq_group() -> None:
    """Two-term functional relations."""


@qq_group.command("verify")
@click.option("--type", "type_", required=True)
@click.option("--depth", type=click.IntRange(min=1), default=4)
@click.option("--window", "window_", default="-4..2")
@_certifies
def qq_verify(rep, type_, depth, window_):
    """Certify the relation for every prefix of the longest word."""
    from .qseries import QEvaluator, qq_check

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


@main.group("qqstar")
def qqstar_group() -> None:
    """Three-term exchange relations."""


@qqstar_group.command("verify")
@click.option("--type", "type_", required=True)
@click.option("--depth", type=click.IntRange(min=1), default=4)
@click.option("--r", "r_", type=int, default=-2)
@_certifies
def qqstar_verify(rep, type_, depth, r_):
    """Certify the three-term relation for all adjacent node pairs."""
    from .qseries import QEvaluator, qqstar_check

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
    from .qseries import QEvaluator

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
@_certifies
def f_eval(rep, type_, coxeter, depth_below):
    """Label every window vertex with the series its variable maps to."""
    cw = _window(type_, coxeter, depth_below)
    labels = gvector.f_labels(cw, gvector.knit_gvectors(cw.quiver))
    for v in sorted(cw.quiver.vertices):
        if v in labels:
            word, i, r = labels[v]
            detail = {"word": list(word), "i": i, "r": r}
        else:
            detail = {"note": f"braid expression does not match g-vector at {v}"}
        rep.emit(
            {"relation": "f-label", "vertex": list(v), **detail, "ok": v in labels}
        )


@main.group("sl2")
def sl2_group() -> None:
    """Rank-one segment calculus."""


@sl2_group.command("factor")
@click.argument("monomial")
@_certifies
def sl2_factor(rep, monomial):
    """Factor an ell-weight monomial into prime segments.

    MONOMIAL is whitespace-separated tokens "r:e", each denoting the
    factor with spectral exponent 2r raised to the integer power e.
    """
    from . import sl2
    from .qseries import key_mul, key_one

    try:
        key = sl2.parse_monomial(monomial)
        segments, _ = sl2.factorize(key)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if not key[1]:  # the unit has no segments: nothing would be compared
        raise click.UsageError(f"monomial {monomial!r} is the unit")
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


@sl2_group.command(
    "ptolemy", context_settings={"ignore_unknown_options": True}
)
@click.argument("r")
@click.argument("s")
@click.argument("rp")
@click.argument("sp")
@click.option("--depth", type=click.IntRange(min=1), default=6)
@_certifies
def sl2_ptolemy(rep, r, s, rp, sp, depth):
    """Certify one quadrilateral exchange relation."""
    from . import sl2

    try:
        cert = sl2.ptolemy_check(
            _parse_end(r), _parse_end(s), _parse_end(rp), _parse_end(sp), depth
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rep.emit(cert)


@main.group("wronskian")
def wronskian_group() -> None:
    """Shift-equivariant minor systems."""


@wronskian_group.command("check")
@click.option("--type", "type_", required=True)
@click.option("--r", "r_", default="-4..4")
@click.option("--depth", type=click.IntRange(min=1), default=4)
@click.option("--system-word", default=None)
@_certifies
def wronskian_check_cmd(rep, type_, r_, depth, system_word):
    """Certify the minor shift system and det = 1 over a base range."""
    from . import wronskian

    rs = _root_system(type_)
    r_values = _parse_range(r_)
    # the shift system is defined for a Coxeter element only
    word = _coxeter_word(rs, system_word, "--system-word")
    try:  # a non-A type, or another precondition of the system
        cert = wronskian.check_wronskian(
            rs, r_values, depth, word, deadline=rep.check_budget
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rep.emit(cert)


@main.group("bruhat")
def bruhat_group() -> None:
    """Integer minor identities on random SL(n+1) points."""


@bruhat_group.command("verify")
@click.option("--n", "n_", type=int, required=True, help="rank n of SL(n+1)")
@click.option("--trials", type=click.IntRange(min=1), default=20)
@click.option("--seed", type=int, default=0)
@_certifies
def bruhat_verify(rep, n_, trials, seed):
    """Sample cell points and certify the exchange and Desnanot-Jacobi laws."""
    from . import wronskian

    try:  # n outside the documented range
        cert = wronskian.bruhat_check(n_, trials, seed, deadline=rep.check_budget)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    rep.emit(cert)


if __name__ == "__main__":
    main()
