"""Simply-laced root systems and Weyl groups.

Everything downstream (quivers, g-vectors, series) is driven by a Cartan
matrix C = (c_ij), its weight lattice, and the Weyl group acting on the
fundamental-weight basis.  Conventions:

* Weights are stored *doubled* (``coords2`` holds the coordinates of 2λ in
  the fundamental-weight basis) so that half-integer weights stay exact
  integers.  A weight lies in the ordinary weight lattice iff all entries
  are even; the simple root α_i has ``coords2`` equal to twice column i
  of C.
* A Weyl element is canonically its one integer matrix acting on
  fundamental-weight coordinates; one reduced word is cached for operator
  chains but plays no role in equality.
* The generator matrix ``t_i`` (column k is the unit vector for k ≠ i,
  column i has entry δ_ji − c_ji in row j) *is* the matrix of the simple
  reflection s_i on fundamental-weight coordinates: s_i negates
  coordinate i and adds its old value to each neighbouring coordinate.
* Lengths, reduced words, w_0 and Coxeter orbits need no roots.  With
  u = w⁻¹(ρ), ρ = (1, ..., 1), one has w(α_i) > 0 iff u_i > 0, so
  ℓ(w s_i) = ℓ(w) ± 1 by the sign of u_i, and w s_i has u = s_i(u).
* A Coxeter element is named by a word listing each node once, and
  ``coxeter_data`` is its one constructor.  The height function l that
  it derives is all the orientation data a Coxeter window reads.
* The exact matrix kernels live here and nowhere else: ``_minor``, one
  memoized Laplace determinant over any commutative ring; ``_adjugate``,
  adj A and det A from cofactors sharing one minor memo (the Cartan
  adjugate gives C⁻¹ = adj C / det C); and ``_times_word``, M·t_{w1}⋯t_{wk}
  by one column operation per letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Sequence

Matrix = tuple[tuple[int, ...], ...]

_FAMILIES = ("A", "D", "E")


def _dynkin_edges(family: str, n: int) -> list[tuple[int, int]]:
    """Undirected Dynkin edges (1-based), Bourbaki numbering for E types."""
    if family == "A":
        return [(i, i + 1) for i in range(1, n)]
    if family == "D":
        # chain 1-2-...-(n-1), with node n attached to node n-2
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    if family == "E":
        # chain 1-3-4-5-6(-7(-8)), node 2 attached to node 4
        chain = [(1, 3), (3, 4), (4, 5), (5, 6)]
        if n >= 7:
            chain.append((6, 7))
        if n == 8:
            chain.append((7, 8))
        return chain + [(2, 4)]
    raise ValueError(f"unsupported family {family!r}")


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


@dataclass(frozen=True)
class RootSystem:
    """A simply-laced root system given by its Cartan matrix."""

    dynkin_type: str
    n: int
    cartan: Matrix

    # -- construction ------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def from_name(name: str) -> "RootSystem":
        family, rank = name[0].upper(), name[1:]
        if family not in _FAMILIES or not rank.isdigit():
            raise ValueError(f"unknown Dynkin type {name!r}")
        n = int(rank)
        if family == "A" and not 1 <= n:
            raise ValueError(f"bad rank for type A: {n}")
        if family == "D" and n < 4:
            raise ValueError(f"type D needs rank >= 4, got {n}")
        if family == "E" and n not in (6, 7, 8):
            raise ValueError(f"type E needs rank 6, 7 or 8, got {n}")
        edges = _dynkin_edges(family, n)
        cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for a, b in edges:
            cartan[a - 1][b - 1] = -1
            cartan[b - 1][a - 1] = -1
        return RootSystem(f"{family}{n}", n, tuple(tuple(r) for r in cartan))

    # -- basic graph data --------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """Undirected Dynkin edges (i < j), 1-based."""
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if self.cartan[i - 1][j - 1] == -1
        ]

    def neighbors(self, i: int) -> tuple[int, ...]:
        self._check_index(i)
        return self._neighbor_table[i - 1]

    @cached_property
    def _neighbor_table(self) -> tuple[tuple[int, ...], ...]:
        """The neighbours of node i, in increasing order, at index i - 1;
        built on first use, since the Weyl walks ask for them per letter."""
        return tuple(
            tuple(
                j
                for j in range(1, self.n + 1)
                if j != i and self.cartan[i - 1][j - 1] == -1
            )
            for i in range(1, self.n + 1)
        )

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"node index {i} out of range 1..{self.n}")

    # -- roots -------------------------------------------------------------

    @property
    def num_positive_roots(self) -> int:
        return longest_element(self).length

    @property
    def coxeter_number(self) -> int:
        return 2 * self.num_positive_roots // self.n

    @property
    def height_functional(self) -> tuple[int, tuple[int, ...]]:
        """``(den, w)`` with den = det C and w_j the column sum j of adj C.

        Both are integers, and the doubled height of the weight with
        ``coords2`` λ (twice its simple-root coordinate sum) is
        Σ_j w_j·λ_j / den.
        """
        adj, det = _cartan_adjugate(self)
        return det, tuple(map(sum, zip(*adj)))

    def root_coords2(self, coords2: Sequence[int]) -> tuple[Fraction, ...]:
        """Coordinates of the (doubled) weight in the simple-root basis."""
        adj, det = _cartan_adjugate(self)
        return tuple(Fraction(x, det) for x in _mat_vec(adj, coords2))


# ---------------------------------------------------------------------------
# Exact matrix kernels
# ---------------------------------------------------------------------------


def _minor(entries, rows, cols, memo):
    """Laplace determinant of the rows x cols submatrix of ``entries``,
    over any commutative ring, expanded along the first row.

    Each sub-minor is kept in ``memo`` under ``(rows, cols)``.  The first
    term enters with its sign and every later one is added or subtracted,
    so a truncated-series minor always runs the same operations.  No rows
    give 1 and one row gives the entry.
    """
    if len(rows) < 2:
        return entries[rows[0]][cols[0]] if rows else 1
    if (rows, cols) in memo:
        return memo[rows, cols]
    head, rest = entries[rows[0]], rows[1:]
    acc = head[cols[0]] * _minor(entries, rest, cols[1:], memo)
    for j in range(1, len(cols)):
        term = head[cols[j]] * _minor(entries, rest, cols[:j] + cols[j + 1 :], memo)
        acc = acc - term if j % 2 else acc + term
    memo[rows, cols] = acc
    return acc


def _adjugate(mat: Matrix) -> tuple[Matrix, int]:
    """``(adj A, det A)`` of a square integer matrix, singular or not.

    Entry (i, j) of adj A is (−1)^(i+j) times the minor of A without row j
    and column i.  All n² cofactors and the determinant share one
    ``_minor`` memo.
    """
    full = tuple(range(len(mat)))
    drop = [full[:k] + full[k + 1 :] for k in full]
    memo: dict = {}
    adj = tuple(
        tuple((-1) ** (i + j) * _minor(mat, drop[j], drop[i], memo) for j in full)
        for i in full
    )
    return adj, _minor(mat, full, full, memo)


@lru_cache(maxsize=None)  # one per root system
def _cartan_adjugate(rs: RootSystem) -> tuple[Matrix, int]:
    return _adjugate(rs.cartan)


def _times_word(rs: RootSystem, mat: Matrix, word: Iterable[int]) -> Matrix:
    """mat·t_{w1}⋯t_{wk}: t_i differs from the identity only in column i,
    so right multiplication by it replaces column i by the sum of the
    neighbouring columns less column i."""
    rows = [list(row) for row in mat]
    for i in word:
        nbrs = [k - 1 for k in rs.neighbors(i)]
        for row in rows:
            row[i - 1] = sum(row[k] for k in nbrs) - row[i - 1]
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weight:
    """An element of the half-integer weight lattice, stored as 2λ."""

    rs: RootSystem
    coords2: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords2) != self.rs.n:
            raise ValueError("coordinate length does not match rank")


def fundamental_weight(rs: RootSystem, i: int) -> Weight:
    rs._check_index(i)
    return Weight(rs, tuple(2 if j == i - 1 else 0 for j in range(rs.n)))


def simple_root(rs: RootSystem, i: int) -> Weight:
    rs._check_index(i)
    return Weight(rs, tuple(2 * rs.cartan[j][i - 1] for j in range(rs.n)))


# ---------------------------------------------------------------------------
# Weyl elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeylElement:
    """A Weyl-group element: integer matrix on fw coordinates + cached word."""

    rs: RootSystem
    mat_t: Matrix
    word: tuple[int, ...] = field(compare=False)
    length: int = field(compare=False)

    def __hash__(self) -> int:
        return hash((self.rs.dynkin_type, self.mat_t))

    # -- actions -----------------------------------------------------------

    def apply(self, lam: Weight) -> Weight:
        return Weight(self.rs, _mat_vec(self.mat_t, lam.coords2))


def _reflect(rs: RootSystem, u: list[int], i: int) -> None:
    """u ← s_i(u) in place, on fundamental-weight coordinates."""
    ui = u[i - 1]
    u[i - 1] = -ui
    for j in rs.neighbors(i):
        u[j - 1] += ui


def _greedy(rs: RootSystem, u: list[int], sign: int) -> list[int]:
    """Reflect u at the least i with sign·u_i > 0 until none is left; the
    letters used, in order."""
    letters = []
    while i := next((i for i, x in enumerate(u, 1) if sign * x > 0), 0):
        letters.append(i)
        _reflect(rs, u, i)
    return letters


def _length_and_word(
    rs: RootSystem, word: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """ℓ(w) and a reduced word for w = s_{word[0]} ⋯ s_{word[-1]}.

    Walks u = w⁻¹(ρ) along the word: a letter i lengthens the prefix iff
    u_i > 0.  A non-reduced word is replaced by stripping, from the right,
    the least i with w(α_i) < 0, i.e. u_i < 0, until u = ρ.
    """
    u = [1] * rs.n
    length = 0
    for i in word:
        rs._check_index(i)
        length += 1 if u[i - 1] > 0 else -1
        _reflect(rs, u, i)
    if length == len(word):
        return length, word
    return length, tuple(reversed(_greedy(rs, u, -1)))


def weyl_from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    return _weyl_from_tuple(rs, tuple(word))


# bounded, since callers may pass arbitrarily many distinct words; the
# elements are frozen, so every caller can share one
@lru_cache(maxsize=1 << 14)
def _weyl_from_tuple(rs: RootSystem, word: tuple[int, ...]) -> WeylElement:
    length, reduced = _length_and_word(rs, word)
    return WeylElement(rs, _times_word(rs, _identity(rs.n), word), reduced, length)


def is_reduced(rs: RootSystem, word: Iterable[int]) -> bool:
    """Whether ℓ(s_{word[0]} ⋯ s_{word[-1]}) is the word's length.

    Walks u = w⁻¹(ρ) as :func:`_length_and_word` does and builds no Weyl
    matrix.  The walk stops at the first descent (u_i < 0); the letters
    after it are still index-checked, so a bad letter raises wherever it
    stands.
    """
    word = tuple(word)
    u = [1] * rs.n
    for t, i in enumerate(word):
        rs._check_index(i)
        if u[i - 1] < 0:
            for j in word[t + 1 :]:
                rs._check_index(j)
            return False
        _reflect(rs, u, i)
    return True


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """w_0 with a reduced word built greedily: append the least i with
    w(α_i) > 0, i.e. u_i > 0, until none is left and u = w_0(ρ) = −ρ.
    """
    return weyl_from_word(rs, _greedy(rs, [1] * rs.n, 1))


def coxeter_orbit(c: WeylElement, i: int) -> tuple[tuple[int, ...], ...]:
    """Doubled coordinates of ϖ_i, c(ϖ_i), ..., c^m(ϖ_i) = w_0(ϖ_i).

    w_0(ϖ_i) = −ϖ_ν(i) is the one antidominant weight in the orbit of ϖ_i,
    so the walk stops at the first weight with no positive coordinate, and
    m is the Coxeter exponent m_i.  Raises ``ValueError`` if no such
    weight comes within 2h steps, as happens for words that are not
    Coxeter elements.
    """
    orbit = [fundamental_weight(c.rs, i).coords2]
    bound = 2 * c.rs.coxeter_number
    while any(x > 0 for x in orbit[-1]):
        if len(orbit) > bound:
            raise ValueError(f"weight orbit of ϖ_{i} does not reach its lowest weight")
        orbit.append(_mat_vec(c.mat_t, orbit[-1]))
    return tuple(orbit)


# ---------------------------------------------------------------------------
# Coxeter data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoxeterDatum:
    """A Coxeter element c = s_{w1}⋯s_{wn} with its height function.

    On each Dynkin edge l rises by 1 towards the letter that comes later
    in the word, and its least value is 0.  Every order of the nodes by
    increasing l is a word of c, so the word is kept as given but plays
    no role in equality: two words of one Coxeter element give equal data
    with one hash.
    """

    rs: RootSystem
    c: WeylElement
    word: tuple[int, ...] = field(compare=False)
    l: tuple[int, ...]  # height function, min value 0
    m: tuple[int, ...]  # per-node exponents m_i
    h_c: int

    def l_of(self, i: int) -> int:
        return self.l[i - 1]

    def m_of(self, i: int) -> int:
        return self.m[i - 1]

    def parity(self) -> tuple[int, ...]:
        return tuple(x % 2 for x in self.l)


def coxeter_data(rs: RootSystem, word: Sequence[int]) -> CoxeterDatum:
    """The Coxeter datum of a word that lists each node exactly once."""
    word = tuple(word)
    if sorted(word) != list(range(1, rs.n + 1)):
        raise ValueError("a Coxeter word lists each node exactly once")
    pos = {i: k for k, i in enumerate(word)}
    # one walk of the Dynkin tree from node 1
    l: list = [0] + [None] * (rs.n - 1)
    stack = [1]
    while stack:
        i = stack.pop()
        for j in rs.neighbors(i):
            if l[j - 1] is None:
                l[j - 1] = l[i - 1] + (1 if pos[j] > pos[i] else -1)
                stack.append(j)
    low = min(l)
    l = tuple(x - low for x in l)

    c = weyl_from_word(rs, word)
    m = tuple(len(coxeter_orbit(c, i)) - 1 for i in range(1, rs.n + 1))
    if sum(m) != rs.num_positive_roots:
        raise ValueError(
            f"Coxeter orbits give {sum(m)} positive roots, not {rs.num_positive_roots}"
        )

    h_c = -max(l[i - 1] + 2 * m[i - 1] - 1 for i in range(1, rs.n + 1))
    return CoxeterDatum(rs, c, word, l, m, h_c)
