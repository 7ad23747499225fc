"""Quantum Wronskian matrices over the series ring, and exact minor checks.

For type ``A_n`` and the Coxeter element ``c = s_1 s_2 ... s_n`` the
renormalized q-variables assemble into an ``(n+1) x (n+1)`` matrix

    entry(k, l) = Q̲_{c^l(ϖ_1), q^{r+2k}},        0 <= k, l <= n,

whose ``i x i`` minor on consecutive row block ``{k..k+i-1}`` and column
block ``{l..l+i-1}`` is the generalized minor ``Δ_{c^k(ϖ_i), c^l(ϖ_i)}``
and evaluates to the single q-variable ``Q̲_{c^l(ϖ_i), q^{r+2k+i-1}}``.
The defining system of the quantum Wronskian property — each minor at
spectral base ``q^r`` equals the row-shifted minor at ``q^{r+2}`` — and
the determinant-1 property are verified by exact truncated-series
arithmetic; every minor doubles as an independent cross-check of the
series engine.

The second half of the module works over exact rationals: random
``SL(n+1)`` points of the open double Bruhat cell, the corner exchange
identity (a Desnanot-Jacobi / Lewis Carroll instance), and the
reconstruction of a 3x3 matrix from its eight initial cluster minors.
It computes in integers: a point is an integer matrix ``M`` over one
positive denominator ``D``, so an ``i x i`` minor of the point is that
of ``M`` over ``D**i``.  With N, S, W and E the four ``n x n`` minors of
``M`` that drop one outer row and one outer column (north: the last row
and column; west: the first row and last column), ``inner`` its central
minor and ``det`` its determinant, the two identities are the integer
equations ``N·S - W·E == inner·D**(n+1)`` (the exchange identity, which
uses det = 1) and ``N·S - W·E == det·inner`` (Desnanot-Jacobi).  Both
halves take their determinants from one Leibniz routine, ``_leibniz``,
which works over any commutative ring.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .qseries import KSeries, QEvaluator
from .rootsys import (
    RootSystem,
    WeylElement,
    coxeter_exponent,
    fundamental_weight,
    weyl_from_word,
)


def weight_word(rs: RootSystem, lam2) -> tuple[tuple[int, ...], int]:
    """Reduced word (j1..jt) and index i with s_{j1}...s_{jt}(ϖ_i) = λ.

    Uses the descent algorithm: while some coordinate of λ on the
    fundamental-weight basis is negative, reflect it away.
    """
    cur = list(lam2)
    word: list[int] = []
    for _ in range(4 * rs.n * rs.n + 4):
        negatives = [j for j in range(1, rs.n + 1) if cur[j - 1] < 0]
        if not negatives:
            break
        j = negatives[0]
        coeff = cur[j - 1]
        cur[j - 1] = -coeff
        for m in rs.neighbors(j):
            cur[m - 1] += coeff
        word.append(j)
    else:
        raise ValueError(f"{lam2} is not in a fundamental-weight orbit")
    units = [j for j in range(1, rs.n + 1) if cur[j - 1]]
    if len(units) != 1 or cur[units[0] - 1] != 2:
        raise ValueError(f"{lam2} is not in a fundamental-weight orbit")
    return tuple(word), units[0]


def coxeter_orbit_weights(rs: RootSystem, word, i: int, count: int):
    """Doubled coordinates of ϖ_i, c(ϖ_i), ..., c^count(ϖ_i)."""
    c = weyl_from_word(rs, word)
    out = [fundamental_weight(rs, i)]
    for _ in range(count):
        out.append(c.apply(out[-1]))
    return [w.coords2 for w in out]


def orbit_exponent(rs: RootSystem, word, i: int) -> int:
    """Smallest m with c^m(ϖ_i) equal to the lowest weight of the orbit."""
    return coxeter_exponent(weyl_from_word(rs, word), i)


@dataclass(frozen=True)
class SeriesMatrix:
    """Square array of truncated series with its spectral base and engine."""

    rs: RootSystem
    r: int
    depth: int
    entries: tuple[tuple[KSeries, ...], ...]
    ev: QEvaluator

    @property
    def size(self) -> int:
        return len(self.entries)

    def minor(self, rows, cols) -> KSeries:
        """Exact truncated determinant of the (rows x cols) submatrix."""
        rows, cols = tuple(rows), tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("minor needs equally many rows and columns")
        return _leibniz([[self.entries[rk][c] for c in cols] for rk in rows])

    def block_minor(self, i: int, k: int, l: int) -> KSeries:
        """The i x i minor on row block k.., column block l.. ."""
        return self.minor(range(k, k + i), range(l, l + i))

    def det(self) -> KSeries:
        return self.minor(range(self.size), range(self.size))


def _perm_sign(perm) -> int:
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


@functools.lru_cache(maxsize=16)
def _signed_permutations(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple(
        (perm, _perm_sign(perm)) for perm in itertools.permutations(range(k))
    )


def _leibniz(rows):
    """Leibniz determinant of a square matrix over any commutative ring.

    Each term multiplies its factors left to right; the first term enters
    with its sign and every later one is added or subtracted, so a
    truncated-series determinant always runs the same operations.  The
    empty matrix has determinant 1.
    """
    acc = None
    for perm, sign in _signed_permutations(len(rows)):
        factors = (row[p] for row, p in zip(rows, perm))
        term = next(factors, 1)
        for f in factors:
            term = term * f
        if acc is None:
            acc = term if sign > 0 else -term
        else:
            acc = acc + term if sign > 0 else acc - term
    return acc


def _require_type_a(rs: RootSystem) -> None:
    if not rs.dynkin_type.startswith("A"):
        raise ValueError("Wronskian matrices require type A")


def standard_coxeter_word(rs: RootSystem) -> tuple[int, ...]:
    return tuple(range(1, rs.n + 1))


def build_wronskian(
    rs: RootSystem, r: int, depth: int = 4, ev: QEvaluator | None = None
) -> SeriesMatrix:
    """The (n+1)x(n+1) series matrix with entry(k,l) = Q̲_{c^l(ϖ_1), q^{r+2k}}."""
    _require_type_a(rs)
    if ev is None:
        ev = QEvaluator(rs, depth=depth)
    n = rs.n
    weights = coxeter_orbit_weights(rs, standard_coxeter_word(rs), 1, n)
    words = [weight_word(rs, lam2)[0] for lam2 in weights]
    rows = tuple(
        tuple(ev.q_bar(words[l], 1, r + 2 * k) for l in range(n + 1))
        for k in range(n + 1)
    )
    return SeriesMatrix(rs, r, depth, rows, ev)


def block_qvariable(m: SeriesMatrix, i: int, k: int, l: int) -> KSeries:
    """Independent value of the (i,k,l) block minor: one q-variable."""
    weights = coxeter_orbit_weights(
        m.rs, standard_coxeter_word(m.rs), i, m.rs.n + 1 - i
    )
    word = weight_word(m.rs, weights[l])[0]
    return m.ev.q_bar(word, i, m.r + 2 * k + i - 1)


def generalized_minor(m: SeriesMatrix, i: int, u_lam2, v_lam2) -> KSeries:
    """Minor for the weight pair (u(ϖ_i), v(ϖ_i)) on consecutive blocks."""
    weights = coxeter_orbit_weights(
        m.rs, standard_coxeter_word(m.rs), i, m.rs.n + 1 - i
    )
    try:
        k = weights.index(tuple(u_lam2))
        l = weights.index(tuple(v_lam2))
    except ValueError:
        raise KeyError(
            f"weights {(u_lam2, v_lam2)} are not consecutive-block weights"
        )
    return m.block_minor(i, k, l)


def check_wronskian(
    rs: RootSystem,
    r_values,
    depth: int = 4,
    system_word=None,
) -> dict:
    """Certify the quantum-Wronskian property of the standard matrices.

    For each base r the defining system

        Δ_{ĉ^k(ϖ_i), ĉ^l(ϖ_i)}(g(q^r)) = Δ_{ĉ^{k-1}(ϖ_i), ĉ^l(ϖ_i)}(g(q^{r+2}))

    is evaluated for the Coxeter element ĉ given by ``system_word``
    (default: the standard one, for which it must hold), together with
    det = 1 and the identification of every block minor with its
    independently computed q-variable.

    Raises ``ValueError``, before any series work, for a type other than
    A, an empty ``r_values``, a letter of ``system_word`` outside 1..n, or
    a word whose orbits never reach the lowest weights.
    """
    _require_type_a(rs)
    r_values = list(r_values)
    if not r_values:
        raise ValueError("need at least one base r")
    word = tuple(system_word) if system_word else standard_coxeter_word(rs)
    if not all(1 <= j <= rs.n for j in word):
        raise ValueError(f"system word {word} has a letter outside 1..{rs.n}")
    orbits = [
        coxeter_orbit_weights(rs, word, i, orbit_exponent(rs, word, i))
        for i in range(1, rs.n + 1)
    ]
    standard = word == standard_coxeter_word(rs)
    ev = QEvaluator(rs, depth=depth)
    equations = []
    dets = []
    minors = []
    for r in r_values:
        m0 = build_wronskian(rs, r, depth, ev)
        m2 = build_wronskian(rs, r + 2, depth, ev)
        for i, orbit in enumerate(orbits, 1):
            m_i = len(orbit) - 1
            for k in range(1, m_i + 1):
                for l in range(m_i + 1):
                    try:
                        lhs = generalized_minor(m0, i, orbit[k], orbit[l])
                        rhs = generalized_minor(m2, i, orbit[k - 1], orbit[l])
                        ok = lhs.matches(rhs)
                        note = ""
                    except KeyError as exc:
                        ok, note = False, str(exc)
                    equations.append(
                        {"r": r, "i": i, "k": k, "l": l, "ok": ok, "note": note}
                    )
        det = m0.det()
        dets.append({"r": r, "ok": det.matches(KSeries.one(rs, det.cutoff2))})
        if standard:
            for i in range(1, rs.n + 1):
                for k in range(rs.n + 2 - i):
                    for l in range(rs.n + 2 - i):
                        ok = m0.block_minor(i, k, l).matches(
                            block_qvariable(m0, i, k, l)
                        )
                        minors.append(
                            {"r": r, "i": i, "k": k, "l": l, "ok": ok}
                        )
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


def _int_minor(m, rows, cols) -> int:
    return _leibniz([[m[r][c] for c in cols] for r in rows])


def rational_minor(mat, rows, cols) -> Fraction:
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    m, d = _clear_denominators([[mat[r][c] for c in cols] for r in rows])
    return Fraction(_leibniz(m), d ** len(rows))


def _random_scaled_sl(size: int, rng: random.Random):
    """A product of elementary transvections as ``(M, D)``: the matrix M / D.

    The step ``row_a += (p/q)·row_b`` becomes ``row_a ← q·row_a + p·row_b``
    with every other row and ``D`` multiplied by ``q``; at the end ``M``
    and ``D`` are divided by their common gcd.
    """
    m = [[int(a == b) for b in range(size)] for a in range(size)]
    d = 1
    for _ in range(3 * size * size):
        a = rng.randrange(size)
        b = rng.randrange(size)
        if a == b:
            continue
        p = rng.randint(-3, 3)
        q = rng.randint(1, 3)
        row_a = [q * x + p * y for x, y in zip(m[a], m[b])]
        if q != 1:
            m = [[q * x for x in row] for row in m]
            d *= q
        m[a] = row_a
    g = math.gcd(d, *(x for row in m for x in row))
    return [[x // g for x in row] for row in m], d // g


def _to_fractions(m, d: int):
    return tuple(tuple(Fraction(x, d) for x in row) for row in m)


def random_sl_matrix(size: int, rng: random.Random):
    """A random SL(size) matrix: product of elementary transvections."""
    return _to_fractions(*_random_scaled_sl(size, rng))


def _corner_minors(m):
    """The pairs (lower, upper) of i x i corner minors, i = 1..size-1.

    ``None`` at the first pair with a zero: the point is outside the open
    cell.  Scaling ``m`` by a positive constant changes no zero.
    """
    size = len(m)
    pairs = []
    for i in range(1, size):
        lower = _int_minor(m, range(size - i, size), range(i))
        upper = _int_minor(m, range(i), range(size - i, size))
        if lower == 0 or upper == 0:
            return None
        pairs.append((lower, upper))
    return pairs


def _carroll_minors(m) -> tuple[int, int, int, int]:
    """North, south, inner and det: the minors of the Desnanot-Jacobi
    identity besides west and east, which are the last corner pair."""
    size = len(m)
    return (
        _int_minor(m, range(size - 1), range(size - 1)),
        _int_minor(m, range(1, size), range(1, size)),
        _int_minor(m, range(1, size - 1), range(1, size - 1)),
        _int_minor(m, range(size), range(size)),
    )


def in_open_cell(mat) -> bool:
    """Both families of corner minors are nonzero."""
    return _corner_minors(_clear_denominators(mat)[0]) is not None


def desnanot_jacobi_check(mat) -> bool:
    """det·(central minor) = product difference of the four corner minors."""
    m, _ = _clear_denominators(mat)
    size = len(m)
    north, south, inner, det = _carroll_minors(m)
    west = _int_minor(m, range(1, size), range(size - 1))
    east = _int_minor(m, range(size - 1), range(1, size))
    # both sides carry D**(2·size - 2), so the scaled equation is the same
    return north * south - west * east == det * inner


_SL3_CLUSTER = {
    "d31": ((2,), (0,)),
    "d21": ((1,), (0,)),
    "d22": ((1,), (1,)),
    "d12": ((0,), (1,)),
    "d13": ((0,), (2,)),
    "d23_12": ((1, 2), (0, 1)),
    "d12_12": ((0, 1), (0, 1)),
    "d12_23": ((0, 1), (1, 2)),
}


def sl3_cluster_values(mat) -> dict[str, Fraction]:
    return {
        name: rational_minor(mat, rows, cols)
        for name, (rows, cols) in _SL3_CLUSTER.items()
    }


def sl3_reconstruct(vals: dict[str, Fraction]):
    """Rebuild the SL(3) matrix from the eight initial cluster minors.

    Entries named  [[a, b, c], [d, e, f], [h, i, j]]; the five single
    entries of the cluster are read off directly, the remaining four are
    Laurent expressions in the cluster (using det = 1 for the last one).
    """
    h, d, e = vals["d31"], vals["d21"], vals["d22"]
    b, c = vals["d12"], vals["d13"]
    a = (vals["d12_12"] + vals["d12"] * vals["d21"]) / vals["d22"]
    f = (vals["d12_23"] + vals["d22"] * vals["d13"]) / vals["d12"]
    i = (vals["d23_12"] + vals["d31"] * vals["d22"]) / vals["d21"]
    ej_fi = (vals["d22"] + vals["d12_23"] * vals["d23_12"]) / vals["d12_12"]
    j = (ej_fi + f * i) / e
    return ((a, b, c), (d, e, f), (h, i, j))


def bruhat_check(n: int, trials: int = 20, seed: int = 0) -> dict:
    """Sample SL(n+1) points of the open cell and certify minor identities.

    Each sample is drawn as ``(M, D)``, the integer matrix ``M`` over one
    positive denominator ``D``, and every minor is taken of ``M``: an
    ``i x i`` minor of the point is the one of ``M`` over ``D**i``.  The
    corner minors of the open-cell test are computed once, and its
    ``i = n`` pair is west and east.  Two identities are checked as
    integer equations, with N, S, W, E, inner and det the minors of ``M``:

    * the corner exchange identity (Desnanot-Jacobi with det = 1),
      ``N·S - W·E == inner·D**(n+1)``;
    * Desnanot-Jacobi itself, ``N·S - W·E == det·inner``.

    For n = 2 each sample is additionally rebuilt from its eight initial
    cluster minors.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if trials < 1:
        raise ValueError("need trials >= 1")
    rng = random.Random(seed)
    size = n + 1
    results = []
    rejected = 0
    for t in range(trials):
        while True:
            m, d = _random_scaled_sl(size, rng)
            corners = _corner_minors(m)
            if corners is None:
                rejected += 1
                continue
            if n == 2:
                mat = _to_fractions(m, d)
                cluster = sl3_cluster_values(mat)
                if any(v == 0 for v in cluster.values()):
                    rejected += 1
                    continue
            break
        west, east = corners[-1]
        north, south, inner, det = _carroll_minors(m)
        lhs = north * south - west * east
        ok = lhs == inner * d**size and lhs == det * inner
        if n == 2:
            ok = ok and sl3_reconstruct(cluster) == mat
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
