"""Quantum Wronskian matrices over the series ring, and exact minor checks.

For type ``A_n`` and the Coxeter element ``c = s_1 s_2 ... s_n`` the
renormalized q-variables assemble into an ``(n+1) x (n+1)`` matrix

    entry(k, l) = Q̲_{c^l(ϖ_1), q^{r+2k}},        0 <= k, l <= n,

whose ``i x i`` minor on consecutive row block ``{k..k+i-1}`` and column
block ``{l..l+i-1}`` is the generalized minor ``Δ_{c^k(ϖ_i), c^l(ϖ_i)}``
and evaluates to the single q-variable ``Q̲_{c^l(ϖ_i), q^{r+2k+i-1}}``.
``block_labels`` is the one table of this block ↔ label map: per node i,
each orbit weight c^l(ϖ_i) with a reduced word for it.
The defining system of the quantum Wronskian property — each minor at
spectral base ``q^r`` equals the row-shifted minor at ``q^{r+2}`` — and
the determinant-1 property are verified by exact truncated-series
arithmetic; every minor doubles as an independent cross-check of the
series engine.

The second half of the module works over exact rationals: random
``SL(n+1)`` points of the open double Bruhat cell and the corner
exchange identity (a Desnanot-Jacobi / Lewis Carroll instance).  It
computes in integers: a point is an integer matrix ``M`` over one
positive denominator ``D``, so an ``i x i`` minor of the point is that
of ``M`` over ``D**i``.  With N, S, W and E the four ``n x n`` minors of
``M`` that drop one outer row and one outer column (north: the last row
and column; west: the first row and last column), ``inner`` its central
minor and ``det`` its determinant, the two identities are the integer
equations ``N·S - W·E == inner·D**(n+1)`` (the exchange identity, which
uses det = 1) and ``N·S - W·E == det·inner`` (Desnanot-Jacobi).  Both
halves take their determinants from the one Laplace routine,
``rootsys._minor``, which works over any commutative ring.

At n = 2 a point must also keep the other initial cluster minors of
SL(3) nonzero.  The rule only selects points: it keeps the points, and
so the certificates, of ``bruhat verify --n 2`` as they have been.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .qseries import KSeries, QEvaluator
from .rootsys import RootSystem, _greedy, _minor, coxeter_orbit, weyl_from_word


def weight_word(rs: RootSystem, lam2) -> tuple[tuple[int, ...], int]:
    """Reduced word (j1..jt) and index i with s_{j1}...s_{jt}(ϖ_i) = λ.

    Uses the descent algorithm: while some coordinate of λ on the
    fundamental-weight basis is negative, reflect it away.
    """
    cur = list(lam2)
    word = _greedy(rs, cur, -1)
    units = [j for j in range(1, rs.n + 1) if cur[j - 1]]
    if len(units) != 1 or cur[units[0] - 1] != 2:
        raise ValueError(f"{lam2} is not in a fundamental-weight orbit")
    return tuple(word), units[0]


@dataclass(frozen=True)
class SeriesMatrix:
    """Square array of truncated series with one memo for its minors."""

    entries: tuple[tuple[KSeries, ...], ...]
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.entries)

    def minor(self, rows, cols) -> KSeries:
        """Exact truncated determinant of the (rows x cols) submatrix.

        Every minor and sub-minor is computed once per matrix: the shift
        equations, the determinant and the Q-variable identifications
        share one memo.
        """
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("minor needs equally many rows and columns")
        return _minor(self.entries, rows, cols, self._memo)

    def block_minor(self, i: int, k: int, l: int) -> KSeries:
        """The i x i minor on row block k.., column block l.. ."""
        return self.minor(range(k, k + i), range(l, l + i))

    def det(self) -> KSeries:
        return self.minor(range(self.size), range(self.size))


# No determinant table bounds the rank any more: a k x k minor has at
# most 2**k memoized sub-minors.  MAX_RANK stays the documented input
# range of `wronskian check` and `bruhat verify` (exit 2 above it); no
# run above rank 8 has been measured or given a budget.
MAX_RANK = 8


@lru_cache(maxsize=None)  # one per root system
def block_labels(rs: RootSystem):
    """The labels of the consecutive-block minors, for c = s_1 s_2 ... s_n.

    Entry i - 1 holds the pairs ``(c^l(ϖ_i), word)`` for l = 0..m_i, the
    doubled weight and its reduced word from ``weight_word``: block
    (i, k, l) of the matrix at base r is ``Q̲_{c^l(ϖ_i), q^{r+2k+i-1}}``.
    Node i has n + 2 - i weights, all distinct, so a weight names its
    block.  Raises ``ValueError`` for a type other than A.
    """
    if not rs.dynkin_type.startswith("A"):
        raise ValueError("Wronskian matrices require type A")
    c = weyl_from_word(rs, range(1, rs.n + 1))
    return tuple(
        tuple((lam2, weight_word(rs, lam2)[0]) for lam2 in coxeter_orbit(c, i))
        for i in range(1, rs.n + 1)
    )


def _blocks_of(at: dict, u, v) -> tuple[int, int]:
    """The block indices of the weight pair (u, v) in the table ``at`` of
    one node; a ``KeyError`` naming the pair if either weight is missing."""
    if u in at and v in at:
        return at[u], at[v]
    raise KeyError(f"weights {(u, v)} are not consecutive-block weights")


def build_wronskian(ev: QEvaluator, r: int, *, deadline=None) -> SeriesMatrix:
    """The (n+1)x(n+1) series matrix with entry(k,l) = Q̲_{c^l(ϖ_1), q^{r+2k}}.

    The root system and the depth are those of ``ev``, which solves every
    entry.  ``deadline``, if given, is called with no arguments before
    each entry; it may raise to abandon the build.
    """
    words = [word for _, word in block_labels(ev.rs)[0]]
    tick = deadline or (lambda: None)

    def entry(k: int, l: int) -> KSeries:
        tick()
        return ev.q_bar(words[l], 1, r + 2 * k)

    idx = range(len(words))
    return SeriesMatrix(tuple(tuple(entry(k, l) for l in idx) for k in idx))


def check_wronskian(
    rs: RootSystem,
    r_values,
    depth: int = 4,
    system_word=None,
    *,
    deadline=None,
) -> dict:
    """Certify the quantum-Wronskian property of the standard matrices.

    For each base r the defining system

        Δ_{ĉ^k(ϖ_i), ĉ^l(ϖ_i)}(g(q^r)) = Δ_{ĉ^{k-1}(ϖ_i), ĉ^l(ϖ_i)}(g(q^{r+2}))

    is evaluated for the Coxeter element ĉ given by ``system_word``
    (default: the standard one, for which it must hold), together with
    det = 1 and the identification of every block minor with its
    independently computed q-variable.

    ``r_values`` is any iterable of bases, read one base at a time, so a
    huge range costs nothing until its bases are checked.  The matrices
    at bases <= r are dropped once the pass at r is done: an ascending
    range builds each matrix once and holds at most three at a time, and
    any other order gives the same certificate with some matrices built
    again.
    Raises ``ValueError``, before any series work, for a type other than
    A, a rank above ``MAX_RANK``, a depth below 1 (``QEvaluator`` refuses
    it), an empty ``r_values``, a letter of ``system_word`` outside 1..n,
    or a word whose orbits never reach the lowest weights.  ``deadline``,
    if given, is called with no arguments before each matrix build, each
    matrix entry and each minor comparison; it may raise to abandon the
    run.
    """
    # before the table is built; block_labels refuses the other types
    if rs.dynkin_type.startswith("A") and rs.n > MAX_RANK:
        raise ValueError(f"need rank at most {MAX_RANK}, got {rs.n}")
    labels = block_labels(rs)
    standard = tuple(range(1, rs.n + 1))
    word = standard if system_word is None else tuple(system_word)
    if not all(1 <= j <= rs.n for j in word):
        raise ValueError(f"system word {word} has a letter outside 1..{rs.n}")
    c = weyl_from_word(rs, word)
    orbits = [coxeter_orbit(c, i) for i in range(1, rs.n + 1)]
    # the block index of each weight of node i's standard orbit
    blocks = [{lam2: l for l, (lam2, _) in enumerate(node)} for node in labels]
    tick = deadline or (lambda: None)
    ev = QEvaluator(rs, depth=depth)
    # base r + 2 of one pass is base r of the next: build each matrix once
    mats: dict[int, SeriesMatrix] = {}
    equations = []
    dets = []
    minors = []
    for r in r_values:
        for base in (r, r + 2):
            if base not in mats:
                tick()
                mats[base] = build_wronskian(ev, base, deadline=tick)
        m0, m2 = mats[r], mats[r + 2]
        for i, (orbit, at) in enumerate(zip(orbits, blocks), 1):
            for k in range(1, len(orbit)):
                for l, v in enumerate(orbit):
                    tick()
                    try:
                        lhs = m0.block_minor(i, *_blocks_of(at, orbit[k], v))
                        rhs = m2.block_minor(i, *_blocks_of(at, orbit[k - 1], v))
                        ok, note = lhs.matches(rhs), ""
                    except KeyError as exc:
                        ok, note = False, str(exc)
                    equations.append(
                        {"r": r, "i": i, "k": k, "l": l, "ok": ok, "note": note}
                    )
        tick()
        det = m0.det()
        dets.append({"r": r, "ok": det.matches(KSeries.one(rs, det.cutoff2))})
        if word == standard:
            for i, node in enumerate(labels, 1):
                for k in range(len(node)):
                    for l, (_, w) in enumerate(node):
                        tick()
                        ok = m0.block_minor(i, k, l).matches(
                            ev.q_bar(w, i, r + 2 * k + i - 1)
                        )
                        minors.append(
                            {"r": r, "i": i, "k": k, "l": l, "ok": ok}
                        )
        mats = {base: m for base, m in mats.items() if base > r}
    if not dets:  # no base: nothing was built or compared
        raise ValueError("need at least one base r")
    all_ok = all(
        e["ok"] for e in equations
    ) and all(d["ok"] for d in dets) and all(x["ok"] for x in minors)
    return {
        "relation": "wronskian",
        "type": rs.dynkin_type,
        "system_word": list(word),
        "depth": depth,
        "ok": all_ok,
        "equations": equations,
        "determinants": dets,
        "minor_identifications": minors,
    }


# ---------------------------------------------------------------------------
# exact rational double-Bruhat-cell checks
# ---------------------------------------------------------------------------


def _clear_denominators(mat) -> tuple[list[list[int]], int]:
    """``(M, D)`` with integer ``M``, ``D > 0`` and ``mat == M / D``."""
    d = math.lcm(*(x.denominator for row in mat for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in mat], d


def _int_minor(m, rows, cols, memo: dict) -> int:
    """Minor of the integer matrix ``m``; sub-minors go to ``memo``, which
    all the minors of one point share."""
    return _minor(m, tuple(rows), tuple(cols), memo)


def rational_minor(mat, rows, cols) -> Fraction:
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    m, d = _clear_denominators([[mat[r][c] for c in cols] for r in rows])
    k = tuple(range(len(rows)))
    return Fraction(_minor(m, k, k, {}), d ** len(rows))


def _random_scaled_sl(size: int, rng: random.Random):
    """A product of elementary transvections as ``(M, D)``: the matrix M / D.

    Each of the ``3·size²`` steps draws rows a and b and, unless a = b,
    p in -3..3 and q in 1..3, and adds ``(p/q)·row_b`` to row a.  The
    draw reads the generator through ``getrandbits`` only, by rejection:

    * a row index is ``getrandbits(size.bit_length())``, drawn again
      while it is ``>= size``;
    * p is ``getrandbits(3)``, drawn again while it is ``>= 7``, minus 3;
    * q is ``getrandbits(2)``, drawn again while it is ``>= 3``, plus 1.

    This is what ``Random.randrange(n)`` does through
    ``_randbelow_with_getrandbits`` with k = ``n.bit_length()``, and
    ``randint(lo, hi)`` is ``lo + randrange(hi - lo + 1)``; so the values,
    the rejection counts and the generator state after every draw are
    those of ``randrange(size)``, ``randint(-3, 3)`` and ``randint(1, 3)``,
    without their call chain.

    The step multiplies the common denominator D by q.  Row r is held as
    ``m[r]`` times ``D // at[r]``, where ``at[r]`` is D at the row's last
    write, so a step rewrites row a alone:
    ``m[a] ← q·(D // at[a])·m[a] + p·(D // at[b])·m[b]``, then ``D ← q·D``
    and ``at[a] ← D``.  At the end each row is scaled out to D, and ``M``
    and ``D`` are divided by their common gcd, which leaves the matrix in
    lowest terms whatever common denominator D was.  So a step with
    p = 0, which adds nothing, is skipped once its draws are made: the
    rewrite would keep every row's ratio ``m[r] / at[r]`` and only grow D.
    """
    g = rng.getrandbits
    k = size.bit_length()
    m = [[int(a == b) for b in range(size)] for a in range(size)]
    at = [1] * size
    d = 1
    for _ in range(3 * size * size):
        a = g(k)
        while a >= size:
            a = g(k)
        b = g(k)
        while b >= size:
            b = g(k)
        if a == b:
            continue
        p = g(3)
        while p >= 7:
            p = g(3)
        q = g(2)
        while q >= 3:
            q = g(2)
        p -= 3
        if not p:
            continue
        q += 1
        sa, sb = q * (d // at[a]), p * (d // at[b])
        m[a] = [sa * x + sb * y for x, y in zip(m[a], m[b])]
        d *= q
        at[a] = d
    m = [[x * (d // at[r]) for x in row] for r, row in enumerate(m)]
    c = math.gcd(d, *(x for row in m for x in row))
    return [[x // c for x in row] for row in m], d // c


def _corner_minors(m, memo: dict):
    """The pairs (lower, upper) of i x i corner minors, i = 1..size-1.

    ``None`` at the first pair with a zero: the point is outside the open
    cell.  Scaling ``m`` by a positive constant changes no zero.
    """
    size = len(m)
    pairs = []
    for i in range(1, size):
        lower = _int_minor(m, range(size - i, size), range(i), memo)
        upper = _int_minor(m, range(i), range(size - i, size), memo)
        if lower == 0 or upper == 0:
            return None
        pairs.append((lower, upper))
    return pairs


def _carroll_minors(m, memo: dict) -> tuple[int, int, int, int]:
    """North, south, inner and det: the minors of the Desnanot-Jacobi
    identity besides west and east, which are the last corner pair.
    North's expansion holds inner, and det's holds south and the lower
    corner minors, so with the point's memo each is computed once."""
    size = len(m)
    return (
        _int_minor(m, range(size - 1), range(size - 1), memo),
        _int_minor(m, range(1, size), range(1, size), memo),
        _int_minor(m, range(1, size - 1), range(1, size - 1), memo),
        _int_minor(m, range(size), range(size), memo),
    )


def bruhat_check(n: int, trials: int = 20, seed: int = 0, *, deadline=None) -> dict:
    """Sample SL(n+1) points of the open cell and certify minor identities.

    Each sample is drawn as ``(M, D)``, the integer matrix ``M`` over one
    positive denominator ``D``, and every minor is taken of ``M``: an
    ``i x i`` minor of the point is the one of ``M`` over ``D**i``.  All
    minors of one point share one ``_minor`` memo, so each sub-minor is
    computed once per point; the corner minors of the open-cell test
    are computed once, and its ``i = n`` pair is west and east.  Two
    identities are checked as integer equations, with N, S, W, E, inner
    and det the minors of ``M``:

    * the corner exchange identity (Desnanot-Jacobi with det = 1),
      ``N·S - W·E == inner·D**(n+1)``;
    * Desnanot-Jacobi itself, ``N·S - W·E == det·inner``.

    At n = 2 a draw is also rejected when one of the other four initial
    cluster minors of SL(3) is zero: entries (1, 2), (2, 1), (2, 2) and
    north (the other four are corner minors).  The rule certifies
    nothing; it keeps the points, and so the certificates, that n = 2
    has always drawn.  Raises ``ValueError`` for n outside 2..``MAX_RANK``.
    ``deadline``, if given, is called with no arguments before each draw;
    it may raise to abandon the run.
    """
    if not 2 <= n <= MAX_RANK:
        raise ValueError(f"need 2 <= n <= {MAX_RANK}, got {n}")
    if trials < 1:
        raise ValueError("need trials >= 1")
    tick = deadline or (lambda: None)
    rng = random.Random(seed)
    size = n + 1
    results = []
    rejected = 0
    for t in range(trials):
        while True:
            tick()
            m, d = _random_scaled_sl(size, rng)
            memo: dict = {}  # one per point, shared by all its minors
            corners = _corner_minors(m, memo)
            if corners is None or n == 2 and 0 in (
                m[0][1], m[1][0], m[1][1], _int_minor(m, range(2), range(2), memo)
            ):
                rejected += 1
                continue
            break
        west, east = corners[-1]
        north, south, inner, det = _carroll_minors(m, memo)
        lhs = north * south - west * east
        ok = lhs == inner * d**size and lhs == det * inner
        results.append({"trial": t, "ok": ok})
    return {
        "relation": "bruhat",
        "n": n,
        "trials": trials,
        "seed": seed,
        "rejected": rejected,
        "ok": all(x["ok"] for x in results),
        "results": results,
    }
