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
* Lengths, reduced words, w_0 and Coxeter exponents need no roots.  With
  u = w⁻¹(ρ), ρ = (1, ..., 1), one has w(α_i) > 0 iff u_i > 0, so
  ℓ(w s_i) = ℓ(w) ± 1 by the sign of u_i, and w s_i has u = s_i(u).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_vec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


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

    def neighbors(self, i: int) -> list[int]:
        self._check_index(i)
        return [
            j
            for j in range(1, self.n + 1)
            if j != i and self.cartan[i - 1][j - 1] == -1
        ]

    def bipartition_class(self) -> tuple[int, ...]:
        """Two-coloring of the Dynkin tree with node 1 in class 0."""
        cls = [-1] * self.n
        cls[0] = 0
        stack = [1]
        while stack:
            i = stack.pop()
            for j in self.neighbors(i):
                if cls[j - 1] == -1:
                    cls[j - 1] = 1 - cls[i - 1]
                    stack.append(j)
        return tuple(cls)

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
    def cartan_inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        return _gauss_jordan(self.cartan)[0]

    @property
    def height_functional(self) -> tuple[int, tuple[int, ...]]:
        """``(den, w)`` with den = det C and w_j = den·(column sum j of C⁻¹).

        Both are integers, and the doubled height of the weight with
        ``coords2`` λ (twice its simple-root coordinate sum) is
        Σ_j w_j·λ_j / den.
        """
        return _height_functional(self)

    def root_coords2(self, coords2: Sequence[int]) -> tuple[Fraction, ...]:
        """Coordinates of the (doubled) weight in the simple-root basis."""
        inv = self.cartan_inverse
        return tuple(
            sum((inv[i][j] * coords2[j] for j in range(self.n)), Fraction(0))
            for i in range(self.n)
        )

    # -- reflection matrices ----------------------------------------------

    def reflection_matrix_t(self, i: int) -> Matrix:
        """Generator matrix t_i (simple reflection on fw coordinates)."""
        self._check_index(i)
        # entry (j, k) is δ_jk, less c_jk in column k = i - 1
        return tuple(
            tuple(int(j == k) - (k == i - 1) * self.cartan[j][k] for k in range(self.n))
            for j in range(self.n)
        )


# bounded, since callers may invert arbitrarily many distinct matrices
@lru_cache(maxsize=1 << 10)
def _gauss_jordan(mat: Matrix) -> tuple[tuple[tuple[Fraction, ...], ...], Fraction]:
    """A⁻¹ and det A of an invertible integer matrix, by exact Gauss–Jordan
    elimination."""
    n = len(mat)
    aug = [
        [Fraction(mat[i][j]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
            det = -det
        det *= aug[col][col]
        inv_piv = 1 / aug[col][col]
        aug[col] = [x * inv_piv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug), det


@lru_cache(maxsize=None)
def _height_functional(rs: RootSystem) -> tuple[int, tuple[int, ...]]:
    inv, det = _gauss_jordan(rs.cartan)
    # det·C⁻¹ is the adjugate of C, an integer matrix
    w = (det * sum(inv[i][j] for i in range(rs.n)) for j in range(rs.n))
    return int(det), tuple(int(x) for x in w)


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

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(self.rs, tuple(a + b for a, b in zip(self.coords2, other.coords2)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(self.rs, tuple(a - b for a, b in zip(self.coords2, other.coords2)))

    def __neg__(self) -> "Weight":
        return Weight(self.rs, tuple(-a for a in self.coords2))

    def scale(self, k: int) -> "Weight":
        return Weight(self.rs, tuple(k * a for a in self.coords2))

    def pairing2(self, i: int) -> int:
        """2·λ(h_i)."""
        self.rs._check_index(i)
        return self.coords2[i - 1]

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords2)


def zero_weight(rs: RootSystem) -> Weight:
    return Weight(rs, (0,) * rs.n)


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

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        length, word = _length_and_word(self.rs, self.word + other.word)
        return WeylElement(self.rs, _mat_mul(self.mat_t, other.mat_t), word, length)

    @property
    def is_identity(self) -> bool:
        return self.mat_t == _identity(self.rs.n)

    def inverse(self) -> "WeylElement":
        return weyl_from_word(self.rs, tuple(reversed(self.word)))


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


def identity_element(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, _identity(rs.n), (), 0)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return WeylElement(rs, rs.reflection_matrix_t(i), (i,), 1)


def weyl_from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    return _weyl_from_tuple(rs, tuple(word))


# bounded, since callers may pass arbitrarily many distinct words; the
# elements are frozen, so every caller can share one
@lru_cache(maxsize=1 << 14)
def _weyl_from_tuple(rs: RootSystem, word: tuple[int, ...]) -> WeylElement:
    length, reduced = _length_and_word(rs, word)
    rows = [list(row) for row in _identity(rs.n)]
    for i in word:
        # right multiplication by t_i rewrites column i only
        nbrs = rs.neighbors(i)
        for row in rows:
            row[i - 1] = sum(row[j - 1] for j in nbrs) - row[i - 1]
    return WeylElement(rs, tuple(tuple(row) for row in rows), reduced, length)


def is_reduced(rs: RootSystem, word: Iterable[int]) -> bool:
    word = tuple(word)
    return weyl_from_word(rs, word).length == len(word)


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """w_0 with a reduced word built greedily: append the least i with
    w(α_i) > 0, i.e. u_i > 0, until none is left and u = w_0(ρ) = −ρ.
    """
    return weyl_from_word(rs, _greedy(rs, [1] * rs.n, 1))


def coxeter_exponent(c: WeylElement, i: int) -> int:
    """The least k with c^k(ϖ_i) = w_0(ϖ_i).

    w_0(ϖ_i) = −ϖ_ν(i) is the one antidominant weight in the orbit of ϖ_i,
    so k is the first step at which no coordinate is positive.  Raises
    ``ValueError`` if no such k comes within 2h steps, as happens for
    words that are not Coxeter elements.
    """
    lam = fundamental_weight(c.rs, i)
    for k in range(2 * c.rs.coxeter_number + 1):
        if all(x <= 0 for x in lam.coords2):
            return k
        lam = c.apply(lam)
    raise ValueError(f"weight orbit of ϖ_{i} does not reach its lowest weight")


# ---------------------------------------------------------------------------
# Coxeter data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoxeterDatum:
    """A Coxeter element adapted to an orientation of the Dynkin graph."""

    rs: RootSystem
    orientation: tuple[tuple[int, int], ...]  # directed edges i -> j
    c: WeylElement
    word: tuple[int, ...]  # adapted reduced word for c
    l: tuple[int, ...]  # height function, min value 0
    h: int  # Coxeter number
    m: tuple[int, ...]  # per-node exponents m_i
    h_c: int

    def l_of(self, i: int) -> int:
        return self.l[i - 1]

    def m_of(self, i: int) -> int:
        return self.m[i - 1]

    def parity(self) -> tuple[int, ...]:
        return tuple(x % 2 for x in self.l)


def parse_orientation(rs: RootSystem, spec: Sequence) -> tuple[tuple[int, int], ...]:
    """Normalize an orientation given as (i, j) pairs or "i->j" strings."""
    out = []
    for e in spec:
        if isinstance(e, str):
            a, b = e.split("->")
            out.append((int(a), int(b)))
        else:
            i, j = e
            out.append((int(i), int(j)))
    undirected = {frozenset(p) for p in out}
    expected = {frozenset(e) for e in rs.edges()}
    if undirected != expected or len(out) != len(rs.edges()):
        raise ValueError("orientation must direct every Dynkin edge exactly once")
    return tuple(out)


def orientation_from_word(rs: RootSystem, word: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The orientation to which the Coxeter word s_{w1}...s_{wn} is adapted.

    The last letter must be a source; reflecting at it exposes the next
    letter as a source, and so on.  Each edge {i, j} is oriented j -> i if i
    occurs after j in the word read right-to-left... concretely: the letter
    occurring *later* in the word is the source of its incident edges among
    earlier letters.
    """
    word = tuple(word)
    if sorted(word) != list(range(1, rs.n + 1)):
        raise ValueError("a Coxeter word lists each node exactly once")
    pos = {i: k for k, i in enumerate(word)}
    # i_n (last) is a source of Q: arrows point away from later letters
    return tuple(
        (i, j) if pos[i] > pos[j] else (j, i) for i, j in rs.edges()
    )


def coxeter_data(rs: RootSystem, orientation: Sequence) -> CoxeterDatum:
    orientation = parse_orientation(rs, orientation)

    # adapted word, built from the right: the last letter is a source of Q,
    # the previous one a source of the reflected quiver, etc.
    arrows = set(orientation)
    letters_rev: list[int] = []
    remaining = set(range(1, rs.n + 1))
    while remaining:
        sources = sorted(
            i for i in remaining if not any(a[1] == i and a[0] in remaining for a in arrows)
        )
        i = sources[0]
        letters_rev.append(i)
        remaining.discard(i)
        arrows = {(b, a) if i in (a, b) else (a, b) for a, b in arrows}
    word = tuple(reversed(letters_rev))
    c = weyl_from_word(rs, word)
    if c.length != rs.n:
        raise AssertionError("adapted word is not reduced")

    # height function: l(i) = l(j) + 1 along each arrow i -> j, min value 0
    l = [None] * rs.n
    l[0] = 0
    pending = [1]
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(1, rs.n + 1)}
    for a, b in orientation:
        adj[a].append((b, -1))  # l(b) = l(a) - 1
        adj[b].append((a, +1))
    while pending:
        i = pending.pop()
        for j, delta in adj[i]:
            if l[j - 1] is None:
                l[j - 1] = l[i - 1] + delta
                pending.append(j)
    low = min(l)
    l = tuple(x - low for x in l)

    m = tuple(coxeter_exponent(c, i) for i in range(1, rs.n + 1))
    assert sum(m) == rs.num_positive_roots

    h_c = -max(l[i - 1] + 2 * m[i - 1] - 1 for i in range(1, rs.n + 1))
    return CoxeterDatum(rs, orientation, c, word, l, rs.coxeter_number, m, h_c)


def coxeter_data_from_word(rs: RootSystem, word: Sequence[int]) -> CoxeterDatum:
    return coxeter_data(rs, orientation_from_word(rs, word))
