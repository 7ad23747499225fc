"""Simply-laced root systems and Weyl groups.

Everything downstream (quivers, g-vectors, series) is driven by a Cartan
matrix C = (c_ij), its weight lattice, and the Weyl group acting on the
fundamental-weight basis.  Conventions:

* Weights are stored *doubled* (``coords2`` holds the coordinates of 2λ in
  the fundamental-weight basis) so that half-integer weights stay exact
  integers.  A weight lies in the ordinary weight lattice iff all entries
  are even; the simple root α_i has ``coords2`` equal to twice column i
  of C.
* A Weyl element is canonically its integer matrix acting on
  fundamental-weight coordinates; one reduced word is cached for operator
  chains but plays no role in equality.
* The generator matrix ``t_i`` (column k is the unit vector for k ≠ i,
  column i has entry δ_ji − c_ji in row j) *is* the matrix of the simple
  reflection s_i on fundamental-weight coordinates; its transpose is the
  action on root coordinates.
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
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        return _positive_roots(self)

    @property
    def num_positive_roots(self) -> int:
        return len(self.positive_roots)

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
        n = self.n
        cols = []
        for k in range(n):
            if k != i - 1:
                cols.append(tuple(1 if j == k else 0 for j in range(n)))
            else:
                cols.append(
                    tuple(
                        (1 if j == i - 1 else 0) - self.cartan[j][i - 1]
                        for j in range(n)
                    )
                )
        # cols[k] is column k; transpose into row-major form
        return tuple(tuple(cols[j][i_] for j in range(n)) for i_ in range(n))

    def reflection_matrix_root(self, i: int) -> Matrix:
        """Simple reflection on simple-root coordinates (transpose of t_i)."""
        t = self.reflection_matrix_t(i)
        n = self.n
        return tuple(tuple(t[j][i_] for j in range(n)) for i_ in range(n))


@lru_cache(maxsize=None)
def _positive_roots(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """All positive roots in simple-root coordinates, via reflection closure."""
    simple = [tuple(1 if j == i else 0 for j in range(rs.n)) for i in range(rs.n)]
    refl = [rs.reflection_matrix_root(i) for i in range(1, rs.n + 1)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for m in refl:
                img = _mat_vec(m, beta)
                if img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    pos = sorted(r for r in roots if all(x >= 0 for x in r))
    return tuple(pos)


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
    mat_root: Matrix = field(compare=False)
    word: tuple[int, ...] = field(compare=False)
    length: int = field(compare=False)

    def __hash__(self) -> int:
        return hash((self.rs.dynkin_type, self.mat_t))

    # -- actions -----------------------------------------------------------

    def apply(self, lam: Weight) -> Weight:
        return Weight(self.rs, _mat_vec(self.mat_t, lam.coords2))

    def apply_root(self, coords: Sequence[int]) -> tuple[int, ...]:
        return _mat_vec(self.mat_root, coords)

    def root_sign(self, coords: Sequence[int]) -> int:
        """+1 if w(β) is positive, −1 if negative (β a root)."""
        img = self.apply_root(coords)
        if all(x >= 0 for x in img):
            return 1
        if all(x <= 0 for x in img):
            return -1
        raise ValueError("input is not a root")

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        mat_t = _mat_mul(self.mat_t, other.mat_t)
        mat_root = _mat_mul(self.mat_root, other.mat_root)
        return _finalize(self.rs, mat_t, mat_root, self.word + other.word)

    @property
    def is_identity(self) -> bool:
        return self.mat_t == _identity(self.rs.n)

    def inverse(self) -> "WeylElement":
        return weyl_from_word(self.rs, tuple(reversed(self.word)))

    def descent(self) -> int | None:
        """Some i with w(α_i) < 0, or None for the identity."""
        for i in range(1, self.rs.n + 1):
            unit = tuple(1 if j == i - 1 else 0 for j in range(self.rs.n))
            if self.root_sign(unit) < 0:
                return i
        return None


def _inversion_count(rs: RootSystem, mat_root: Matrix) -> int:
    count = 0
    for beta in rs.positive_roots:
        img = _mat_vec(mat_root, beta)
        if all(x <= 0 for x in img):
            count += 1
    return count


def _canonical_word(rs: RootSystem, mat_t: Matrix, mat_root: Matrix) -> tuple[int, ...]:
    """A reduced word for the element, by repeatedly stripping a descent."""
    letters: list[int] = []
    cur_t, cur_root = mat_t, mat_root
    ident = _identity(rs.n)
    while cur_t != ident:
        for i in range(1, rs.n + 1):
            unit = tuple(1 if j == i - 1 else 0 for j in range(rs.n))
            if all(x <= 0 for x in _mat_vec(cur_root, unit)):
                break
        else:  # pragma: no cover - impossible for a genuine Weyl matrix
            raise ValueError("matrix is not a Weyl-group element")
        letters.append(i)
        cur_t = _mat_mul(cur_t, rs.reflection_matrix_t(i))
        cur_root = _mat_mul(cur_root, rs.reflection_matrix_root(i))
    return tuple(reversed(letters))


def _finalize(rs: RootSystem, mat_t: Matrix, mat_root: Matrix,
              word: tuple[int, ...]) -> WeylElement:
    length = _inversion_count(rs, mat_root)
    if len(word) != length:
        word = _canonical_word(rs, mat_t, mat_root)
    return WeylElement(rs, mat_t, mat_root, word, length)


def identity_element(rs: RootSystem) -> WeylElement:
    ident = _identity(rs.n)
    return WeylElement(rs, ident, ident, (), 0)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    return WeylElement(
        rs, rs.reflection_matrix_t(i), rs.reflection_matrix_root(i), (i,), 1
    )


def weyl_from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    return _weyl_from_tuple(rs, tuple(word))


# bounded, since callers may pass arbitrarily many distinct words; the
# elements are frozen, so every caller can share one
@lru_cache(maxsize=1 << 14)
def _weyl_from_tuple(rs: RootSystem, word: tuple[int, ...]) -> WeylElement:
    mat_t, mat_root = _identity(rs.n), _identity(rs.n)
    for i in word:
        rs._check_index(i)
        mat_t = _mat_mul(mat_t, rs.reflection_matrix_t(i))
        mat_root = _mat_mul(mat_root, rs.reflection_matrix_root(i))
    return _finalize(rs, mat_t, mat_root, word)


def is_reduced(rs: RootSystem, word: Iterable[int]) -> bool:
    word = tuple(word)
    return weyl_from_word(rs, word).length == len(word)


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    """w_0 with a reduced word built greedily (append the least i with
    w(α_i) > 0).

    Each letter lengthens the word by one, so after N = #positive roots
    letters the element is w_0; its length is counted once, at the end.
    """
    mat_t = mat_root = _identity(rs.n)
    word: list[int] = []
    for _ in range(rs.num_positive_roots):
        # w(α_i) is column i of the root matrix
        i = next(
            i for i in range(1, rs.n + 1)
            if all(row[i - 1] >= 0 for row in mat_root)
        )
        mat_t = _mat_mul(mat_t, rs.reflection_matrix_t(i))
        mat_root = _mat_mul(mat_root, rs.reflection_matrix_root(i))
        word.append(i)
    w0 = _finalize(rs, mat_t, mat_root, tuple(word))
    assert w0.length == rs.num_positive_roots
    return w0


@lru_cache(maxsize=None)
def nakayama(rs: RootSystem) -> tuple[int, ...]:
    """The involution ν with w_0(α_i) = −α_{ν(i)} (1-based tuple)."""
    w0 = longest_element(rs)
    nu = []
    for i in range(1, rs.n + 1):
        unit = tuple(1 if j == i - 1 else 0 for j in range(rs.n))
        img = w0.apply_root(unit)
        neg = tuple(-x for x in img)
        simple = [tuple(1 if k == j else 0 for k in range(rs.n)) for j in range(rs.n)]
        nu.append(simple.index(neg) + 1)
    out = tuple(nu)
    assert all(out[out[i - 1] - 1] == i for i in range(1, rs.n + 1))
    return out


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

    nu = nakayama(rs)
    m = []
    for i in range(1, rs.n + 1):
        target = tuple(-x for x in fundamental_weight(rs, nu[i - 1]).coords2)
        lam = fundamental_weight(rs, i)
        k = 0
        while lam.coords2 != target:
            lam = c.apply(lam)
            k += 1
            if k > 2 * rs.coxeter_number:
                raise AssertionError("exponent iteration did not terminate")
        m.append(k)
    m = tuple(m)
    assert sum(m) == rs.num_positive_roots

    h_c = -max(l[i - 1] + 2 * m[i - 1] - 1 for i in range(1, rs.n + 1))
    return CoxeterDatum(rs, orientation, c, word, l, rs.coxeter_number, m, h_c)


def coxeter_data_from_word(rs: RootSystem, word: Sequence[int]) -> CoxeterDatum:
    return coxeter_data(rs, orientation_from_word(rs, word))
