"""The one shared test library: reference implementations, and whatever
else more than one test module uses.

Each reference is a plain function of the object it reads: the package's
commands never call them, so they live here rather than in
``src/clusterqq``.  The one class, :class:`EveryREvaluator`, only makes
an evaluator read its values through such a function.  They build on
the package's own constructors and private helpers, and the tests
compare the package against them.  Beside them are the frozen worked
values, checks and small helpers (``rs``, ``e``, ``cli``, the ``ast``
walker of the source scans) that two or more test modules share: no
test module imports another (``tests/test_reachability.py`` checks it).
"""

import ast
import json
import shlex
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from click.testing import CliRunner

from clusterqq import wronskian
from clusterqq.cli import main
from clusterqq.gvector import (
    _band_product,
    _block_to_gvecs,
    block_matrix,
)
from clusterqq.qseries import (
    _HALF,
    _MASK,
    Key,
    KSeries,
    Psi,
    QEvaluator,
    bracket,
    key_mul,
    key_one,
    psi_mul,
    psi_var,
    qq_check,
)
from clusterqq.quiver import (
    BLACK,
    GREEN,
    RED,
    MarginError,
    WindowedQuiver,
    _make,
    _WorkingQuiver,
    basic_quiver,
    build_coxeter_quiver,
)
from clusterqq.rootsys import (
    Matrix,
    RootSystem,
    WeylElement,
    _adjugate,
    _identity,
    _length_and_word,
    _mat_vec,
    coxeter_data,
    fundamental_weight,
    is_reduced,
    longest_element,
    weyl_from_word,
)
from clusterqq.seed import _transport
from clusterqq.sl2 import INF, Segment, segment_qchar
from clusterqq.wronskian import rational_minor


# ---------------------------------------------------------------------------
# rootsys
# ---------------------------------------------------------------------------


ALL_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + [
    "E6",
    "E7",
    "E8",
]


def rs(name):
    return RootSystem.from_name(name)


def bipartition_class(rs) -> tuple[int, ...]:
    """Two-coloring of the Dynkin tree with node 1 in class 0."""
    cls = [-1] * rs.n
    cls[0] = 0
    stack = [1]
    while stack:
        i = stack.pop()
        for j in rs.neighbors(i):
            if cls[j - 1] == -1:
                cls[j - 1] = 1 - cls[i - 1]
                stack.append(j)
    return tuple(cls)


def reflection_matrix_t(rs, i: int) -> Matrix:
    """Generator matrix t_i (simple reflection on fw coordinates)."""
    rs._check_index(i)
    # entry (j, k) is δ_jk, less c_jk in column k = i - 1
    return tuple(
        tuple(int(j == k) - (k == i - 1) * rs.cartan[j][k] for k in range(rs.n))
        for j in range(rs.n)
    )


def identity_element(rs) -> WeylElement:
    return WeylElement(rs, _identity(rs.n), (), 0)


def simple_reflection(rs, i: int) -> WeylElement:
    return WeylElement(rs, reflection_matrix_t(rs, i), (i,), 1)


def weyl_inverse(w) -> WeylElement:
    """w⁻¹, from the reversed reduced word of w."""
    return weyl_from_word(w.rs, tuple(reversed(w.word)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def weyl_product(a, b) -> WeylElement:
    """a·b: the product of the matrices, and a reduced word for the
    concatenated words."""
    length, word = _length_and_word(a.rs, a.word + b.word)
    return WeylElement(a.rs, mat_mul(a.mat_t, b.mat_t), word, length)


def gauss_jordan(mat):
    """A⁻¹ and det A of an invertible integer matrix, by exact Gauss–Jordan
    elimination: the oracle that ``_adjugate`` replaced."""
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


def assert_adjugate_is_det_times_inverse(mat):
    """``_adjugate`` against the oracle: the same det, adj = det·A⁻¹."""
    adj, det = _adjugate(mat)
    inv, want = gauss_jordan(mat)
    assert type(det) is int and det == want
    assert all(type(x) is int for row in adj for x in row)
    assert adj == tuple(tuple(det * x for x in row) for row in inv)


def sign_flipped(real):
    """``rootsys._minor`` with the sign of every 2 x 2 minor's second
    term flipped (the real routine recurses through the patched name)."""

    def minor(entries, rows, cols, memo):
        if len(rows) != 2:
            return real(entries, rows, cols, memo)
        (a, b), (c, d) = ([entries[rk][k] for k in cols] for rk in rows)
        return a * d + b * c

    return minor


# the root-matrix oracles: a second matrix per element, on simple-root
# coordinates, from which lengths, reduced words, w_0 and ν are read


def reflection_matrix_root(r, i):
    """Simple reflection on simple-root coordinates (transpose of t_i)."""
    t = reflection_matrix_t(r, i)
    return tuple(tuple(t[j][k] for j in range(r.n)) for k in range(r.n))


def unit(r, i):
    return tuple(1 if j == i - 1 else 0 for j in range(r.n))


@lru_cache(maxsize=None)
def positive_roots(r):
    """All positive roots in simple-root coordinates, via reflection closure."""
    simple = [unit(r, i) for i in range(1, r.n + 1)]
    refl = [reflection_matrix_root(r, i) for i in range(1, r.n + 1)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = {_mat_vec(m, beta) for beta in frontier for m in refl} - roots
        roots |= new
        frontier = new
    return tuple(sorted(x for x in roots if all(c >= 0 for c in x)))


def inversion_count(r, mat_root):
    return sum(
        all(x <= 0 for x in _mat_vec(mat_root, beta)) for beta in positive_roots(r)
    )


def canonical_word(r, mat_t, mat_root):
    """A reduced word, by repeatedly stripping the least descent."""
    letters = []
    ident = _identity(r.n)
    while mat_t != ident:
        i = next(
            i
            for i in range(1, r.n + 1)
            if all(x <= 0 for x in _mat_vec(mat_root, unit(r, i)))
        )
        letters.append(i)
        mat_t = mat_mul(mat_t, reflection_matrix_t(r, i))
        mat_root = mat_mul(mat_root, reflection_matrix_root(r, i))
    return tuple(reversed(letters))


def finalize(r, mat_t, mat_root, word):
    """(mat_t, mat_root, word, length), the word made reduced if need be."""
    length = inversion_count(r, mat_root)
    if len(word) != length:
        word = canonical_word(r, mat_t, mat_root)
    return mat_t, mat_root, word, length


def oracle_from_word(r, word):
    mat_t = mat_root = _identity(r.n)
    for i in word:
        mat_t = mat_mul(mat_t, reflection_matrix_t(r, i))
        mat_root = mat_mul(mat_root, reflection_matrix_root(r, i))
    return finalize(r, mat_t, mat_root, tuple(word))


def oracle_mul(r, a, b):
    return finalize(r, mat_mul(a[0], b[0]), mat_mul(a[1], b[1]), a[2] + b[2])


@lru_cache(maxsize=None)
def oracle_longest(r):
    """w_0 by greedy matrix products: append the least i with w(α_i) > 0."""
    mat_t = mat_root = _identity(r.n)
    word = []
    for _ in range(len(positive_roots(r))):
        # w(α_i) is column i of the root matrix
        i = next(
            i for i in range(1, r.n + 1) if all(row[i - 1] >= 0 for row in mat_root)
        )
        mat_t = mat_mul(mat_t, reflection_matrix_t(r, i))
        mat_root = mat_mul(mat_root, reflection_matrix_root(r, i))
        word.append(i)
    return finalize(r, mat_t, mat_root, tuple(word))


@lru_cache(maxsize=None)
def nakayama(r):
    """The involution ν with w_0(α_i) = −α_ν(i) (1-based tuple)."""
    w0_root = oracle_longest(r)[1]
    simple = [unit(r, j) for j in range(1, r.n + 1)]
    return tuple(
        simple.index(tuple(-x for x in _mat_vec(w0_root, unit(r, i)))) + 1
        for i in range(1, r.n + 1)
    )


def oracle_exponents(r, c_mat_t):
    """m_i = the least k with c^k(ϖ_i) = −ϖ_ν(i)."""
    nu = nakayama(r)
    h = 2 * len(positive_roots(r)) // r.n
    m = []
    for i in range(1, r.n + 1):
        target = tuple(-x for x in fundamental_weight(r, nu[i - 1]).coords2)
        lam = fundamental_weight(r, i).coords2
        k = 0
        while lam != target:
            lam = _mat_vec(c_mat_t, lam)
            k += 1
            assert k <= 2 * h
        m.append(k)
    return tuple(m)


# ---------------------------------------------------------------------------
# quiver
# ---------------------------------------------------------------------------


def default_window(name, word=None):
    """The Coxeter window of ``word``, by default 1..n, at the default depth."""
    r = rs(name)
    word = tuple(range(1, r.n + 1)) if word is None else word
    return build_coxeter_quiver(coxeter_data(r, word))


def color(q, v) -> str:
    return dict(q.colors).get(v, BLACK)


def reds(q) -> list:
    return sorted(v for v, c in q.colors if c == RED)


def relabeled(q, mapping):
    """Apply a vertex relabeling (identity outside the mapping)."""

    def f(v):
        return mapping.get(v, v)

    out: dict = {}
    for (a, b), m in q.arrows:
        out.setdefault(f(a), {})[f(b)] = m
    return _make(
        q,
        vertices={f(v) for v in q.vertices},
        out=out,
        colors={f(v): c for v, c in q.colors},
        frozen={f(v) for v in q.frozen},
    )


def same_arrows(q, other) -> bool:
    return q.vertices == other.vertices and q.arrows == other.arrows


def recolor_from_arrows(q):
    """Recompute red/green from vertical down-arrows (i,r) -> (i,r-2)."""
    work = _WorkingQuiver(q)
    work.recolor()
    return work.freeze()


def grouped(arrows):
    """A flat arrow map grouped by source, as ``_make`` takes it."""
    out = {}
    for (a, b), m in arrows.items():
        out.setdefault(a, {})[b] = m
    return out


def insert_reflection(q, v):
    """Create a red/green pair at ``v`` by the four-step vertical surgery,
    rebuilding the whole quiver.

    (i)+(ii) split the vertical arrow below v into the lower column ->
    green <- v, (iii) reroute the oblique arrows leaving v so they leave
    the green, and (iv) move the column below v down by 2, dropping what
    leaves the window.  The green itself is kept even below the window
    (margin 0); ``quiver.build_coxeter_quiver`` drops it with its arrows.
    """
    i, r = v
    if v not in q.vertices:
        raise ValueError(f"vertex {v} not in window")
    if color(q, v) != BLACK:
        raise ValueError(f"vertex {v} already colored {color(q, v)}")
    if r - q.rmin <= q.margin:
        raise MarginError(f"insertion at {v} too close to window bottom")

    below = (i, r - 2)
    mapping = {
        (i, s): (i, s - 2) for (ii, s) in q.vertices if ii == i and s <= r - 2
    }
    vertices = {mapping.get(u, u) for u in q.vertices}
    vertices = {u for u in vertices if u[1] >= q.rmin}
    arrows = {
        (mapping.get(a, a), mapping.get(b, b)): m for (a, b), m in q.arrows
    }
    arrows = {
        (a, b): m for (a, b), m in arrows.items() if a in vertices and b in vertices
    }
    colors = {mapping.get(u, u): c for u, c in q.colors}

    old_below = (i, r - 4)
    arrows.pop((old_below, v), None)
    if old_below in vertices:
        arrows[(old_below, below)] = 1
    arrows[(v, below)] = 1
    vertices.add(below)

    for (a, b), m in list(arrows.items()):
        if a == v and b[0] != i:
            del arrows[(a, b)]
            arrows[(below, b)] = arrows.get((below, b), 0) + m

    colors[v] = RED
    colors[below] = GREEN
    return _make(q, vertices=vertices, out=grouped(arrows), colors=colors)


def exchange_matrix(q) -> dict:
    """The skew-symmetric matrix of a quiver's arrows, its nonzero entries:
    b[a, b] = #(a -> b) - #(b -> a)."""
    b: dict = {}
    for (s, t), m in q.arrows:
        b[s, t] = b.get((s, t), 0) + m
        b[t, s] = b.get((t, s), 0) - m
    return {e: x for e, x in b.items() if x}


def matrix_mutate(b: dict, k) -> dict:
    """Fomin–Zelevinsky matrix mutation at k of a skew-symmetric matrix
    given by its nonzero entries (*Cluster algebras I*):
    b'_ij = -b_ij if k in {i, j}, else b_ij + sgn(b_ik)·max(b_ik·b_kj, 0).
    A term of the sum is nonzero only where b_ik and b_kj are."""
    col = {i: x for (i, j), x in b.items() if j == k}
    row = {j: x for (i, j), x in b.items() if i == k}
    new = {(i, j): -x if k in (i, j) else x for (i, j), x in b.items()}
    for i, bik in col.items():
        for j, bkj in row.items():
            sgn = 1 if bik > 0 else -1
            new[i, j] = new.get((i, j), 0) + sgn * max(bik * bkj, 0)
    return {e: x for e, x in new.items() if x}


def build_seed_quiver(
    rs, word, heights, rmin=None, rmax=None, parity=None, margin: int = 2
):
    """Initial-seed quiver for a reduced word, inserting top-down.

    ``heights[t]`` is the label of the t-th red vertex in the finished
    quiver; since the construction descends, it is also the literal
    insertion coordinate at step t.
    """
    word = tuple(word)
    heights = tuple(heights)
    if len(word) != len(heights):
        raise ValueError("word and heights must have equal length")
    if not is_reduced(rs, word):
        raise ValueError(f"word {word} is not reduced")
    if len(set(zip(word, heights))) != len(word):
        raise ValueError("height collision")
    if rmax is None:
        rmax = (max(heights) if heights else 0) + 4
    if rmin is None:
        rmin = (min(heights) if heights else 0) - 2 * len(word) - 6 - margin
    if parity is None:
        parity = bipartition_class(rs)
    q = basic_quiver(rs, rmin, rmax, parity=parity, margin=margin)
    for v in zip(word, heights):
        q = insert_reflection(q, v)
    return q


# ---------------------------------------------------------------------------
# gvector and seed
# ---------------------------------------------------------------------------


def combo(*terms):
    """Σ k·g over (k, g-vector) pairs, as a dict of its non-zero
    coefficients."""
    out = {}
    for k, g in terms:
        for v, c in g.items():
            out[v] = out.get(v, 0) + k * c
    return {v: c for v, c in out.items() if c}


def e(*vs):
    """The g-vector Σ sign·e_v of (sign, vertex) pairs."""
    return combo(*((sign, {v: 1}) for sign, v in vs))


def a2_expected(v):
    """The stabilized g-vector at v of the A2 window of (1, 2), closed form."""
    i, r = v
    if i == 1:
        k = r // 2
        if k >= 0:
            return {v: 1}
        if k >= -2:
            return e((-1, (1, 2 * k)), (1, (2, 2 * k + 1)))
        return e((-1, (2, 2 * k + 1)))
    k = (r + 1) // 2
    if k >= 0:
        return {v: 1}
    return e((-1, (1, 2 * k - 2)))


# the stabilized g-vectors of the A3 window of (1, 2, 3), as terms of e
A3_STABILIZED = {
    (1, 2): [(1, (1, 2))],
    (3, 2): [(1, (3, 2))],
    (2, 1): [(1, (2, 1))],
    (1, 0): [(1, (1, 0))],
    (3, 0): [(1, (3, 0))],
    (2, -1): [(1, (2, -1))],
    (3, -2): [(1, (3, -2))],
    (1, -2): [(-1, (1, -2)), (1, (2, -1))],
    (2, -3): [(-1, (1, -4)), (1, (3, -2))],
    (1, -4): [(-1, (1, -4)), (1, (2, -3))],
    (1, -6): [(-1, (2, -5)), (1, (3, -4))],
    (3, -4): [(-1, (1, -6))],
    (2, -5): [(-1, (1, -6)), (1, (3, -4))],
    (2, -7): [(-1, (2, -7))],
    (1, -8): [(-1, (2, -7)), (1, (3, -6))],
    (1, -10): [(-1, (3, -8))],
    (3, -6): [(-1, (1, -8))],
    (2, -9): [(-1, (2, -9))],
    (1, -12): [(-1, (3, -10))],
    (3, -8): [(-1, (1, -10))],
}

# the f-labels of the same window: band and nearby vertices, their weight
# word, node and spectral exponent
A3_SEED_LABELS = {
    (1, 2): ((), 1, 2),
    (3, 2): ((), 3, 2),
    (2, 1): ((), 2, 1),
    (1, 0): ((), 1, 0),
    (3, 0): ((), 3, 0),
    (1, -2): ((1,), 1, 0),
    (2, -1): ((), 2, -1),
    (2, -3): ((1, 2), 2, -1),
    (1, -4): ((1,), 1, -2),
    (3, -2): ((), 3, -2),
    (1, -6): ((1, 2, 1), 1, -2),
    (3, -4): ((1, 2, 1, 3), 3, -2),
    (2, -5): ((1, 2), 2, -3),
    (2, -7): ((1, 2, 1, 3, 2), 2, -3),
    (1, -8): ((1, 2, 1), 1, -4),
    (1, -10): ((1, 2, 1, 3, 2, 1), 1, -4),
    (3, -6): ((1, 2, 1, 3), 3, -4),
    (2, -9): ((1, 2, 1, 3, 2), 2, -5),
}


def knit_by_rounds(q) -> dict:
    """The knitting recursion by rounds: every round visits the vertices
    not yet known, height descending, and knits those whose dependencies
    are known, until a round knits none."""
    out: dict = {}
    pending = sorted(q.vertices, key=lambda u: -u[1])
    while pending:
        deferred = []
        for v in pending:
            i, r = v
            above = (i, r + 2)
            if above not in q.vertices:
                out[v] = {v: 1}
            elif q.mult(v, above):
                if above not in out:
                    deferred.append(v)
                    continue
                out[v] = {(j, a - 2): c for (j, a), c in out[above].items()}
            elif q.mult(above, v):
                outs = q.out.get(v, {})
                if above not in out or any(w not in out for w in outs):
                    deferred.append(v)
                    continue
                down = {(j, a - 2): c for (j, a), c in out[above].items()}
                out[v] = combo((-1, down), *((m, out[w]) for w, m in outs.items()))
            else:
                raise ValueError(f"no vertical arrow between {v} and {above}")
        if len(deferred) == len(pending):
            raise ValueError(f"cyclic dependencies at {deferred}")
        pending = deferred
    return out


def slice_matrix(datum, m: int) -> Matrix:
    """T_m: product of the reflection generators of the slice-m greens."""
    return _band_product(datum, m, m)


def green_slice_nodes_scan(datum, m: int) -> list[int]:
    """Nodes with a green vertex in slice m, by scanning every green of
    every column: column i has them at slices −l_i − 1 − 2k, k < m_i."""
    out = []
    for i in range(1, datum.rs.n + 1):
        for k in range(datum.m_of(i)):
            if m == -datum.l_of(i) - 1 - 2 * k:
                out.append(i)
    return out


def sweep_table(cw, k: int) -> dict:
    """g-vectors of every window vertex after k green sweeps, each slice's
    block built afresh for this k alone."""
    out = {}
    for m in cw.slice_range():
        block = block_matrix(cw.datum, k, m)
        for v, g in _block_to_gvecs(cw.datum, m, block).items():
            if v in cw.quiver.vertices:
                out[v] = g
    return out


def theta(rs, i: int, g: dict) -> dict:
    """The braid operator θ_i, coefficient by coefficient: e_(i,a) goes to
    −e_(i,a−2) + Σ_{k~i} e_(k,a−1), every other basis vector is fixed."""
    out = {}

    def bump(v, c: int) -> None:
        out[v] = out.get(v, 0) + c

    for (j, a), c in g.items():
        if j != i:
            bump((j, a), c)
        else:
            bump((i, a - 2), -c)
            for k in rs.neighbors(i):
                bump((k, a - 1), c)
    return {v: c for v, c in out.items() if c}


def theta_word(rs, word, g: dict) -> dict:
    """θ_{w_0} ∘ ⋯ ∘ θ_{w_last} applied to g."""
    for i in reversed(tuple(word)):
        g = theta(rs, i, g)
    return g


def f_label(cw, v, gvectors):
    """Word, node and spectral exponent of the Q-variable of one window
    vertex: the whole green word down to its slice, applied to the red-top
    unit of its node, must shift onto its g-vector.  The reference for
    ``gvector.f_labels``."""
    i = v[0]
    m = cw.slice_index(v)
    prefix = [g for g in cw.green_sequence() if cw.slice_index(g) >= m]
    word = tuple(g[0] for g in prefix)
    x = theta_word(cw.datum.rs, word, {(i, cw.red_top(i)): 1})
    target = gvectors[v]
    s = (min(target)[1] - min(x)[1]) // 2
    if {(j, a + 2 * s): c for (j, a), c in x.items()} != target:
        raise ValueError(f"braid expression does not match g-vector at {v}")
    return word, i, cw.red_top(i) + 2 * s


def mutate_reference(seed, l):
    """Mutate the reference at l and transport all stored g-vectors, in
    place."""
    _transport(seed, l)
    seed.ref_tag += f"*mu{l}"


@dataclass(frozen=True)
class Snapshot:
    """A seed as it stands, for the seed oracles to read and return and
    for tests to compare: frozen quivers, the g-vectors and the values as
    sorted tuples of copies keyed by vertex (values None for a seed
    without them), and the reference tag."""

    quiver: WindowedQuiver
    ref_quiver: WindowedQuiver
    g: tuple
    ref_tag: str
    values: tuple | None


def snapshot(seed) -> Snapshot:
    """The :class:`Snapshot` of a seed; freezing its quivers checks them."""
    return Snapshot(
        seed.quiver.freeze(),
        seed.ref.freeze(),
        tuple(sorted((v, dict(comp)) for v, comp in seed.g.items())),
        seed.ref_tag,
        None if seed.values is None else tuple(sorted(seed.values.items())),
    )


# ---------------------------------------------------------------------------
# qseries
# ---------------------------------------------------------------------------


def psi_inv(p: Psi) -> Psi:
    return tuple((v, -e) for v, e in p)


def key_inv(k: Key) -> Key:
    lam, p = k
    return (tuple(-a for a in lam), psi_inv(p))


def y_monomial(rs, i: int, r: int) -> Key:
    """[ϖ_i]·Ψ_{i,q^{r-1}}/Ψ_{i,q^{r+1}}."""
    lam2 = fundamental_weight(rs, i).coords2
    return (lam2, psi_mul(psi_var(i, r - 1), psi_var(i, r + 1, -1)))


def a_monomial(rs, i: int, r: int) -> Key:
    """Y_{i,q^{r-1}}·Y_{i,q^{r+1}}·∏_{j~i} Y_{j,q^r}^{-1}."""
    k = key_mul(y_monomial(rs, i, r - 1), y_monomial(rs, i, r + 1))
    for j in rs.neighbors(i):
        k = key_mul(k, key_inv(y_monomial(rs, j, r)))
    return k


def ht(s, key: Key) -> Fraction:
    """The doubled height of one key of the series ``s``."""
    return Fraction(sum(map(mul, s._cx.w, key[0])), s._cx.den)


def decoded(s):
    """Terms and cutoff, free of the codec's call-order field layout."""
    return sorted(s.terms.items()), s.cutoff2


def max_ht(s) -> Fraction:
    """The doubled height of the top term of ``s`` (its cutoff if empty)."""
    return Fraction(s._max_h(), s._cx.den)


def tau(s, shift: int):
    """τ_shift by decoding: unpack each key, move Ψ_{j,q^b} to
    Ψ_{j,q^{b+shift}}, pack again.  The reference for ``KSeries.tau``."""
    return KSeries(
        s.rs,
        {
            (lam, tuple(((j, b + shift), e) for (j, b), e in psi)): c
            for (lam, psi), c in s.terms.items()
        },
        s.cutoff2,
    )


def add_two_sided(a, b):
    """``a + b`` summed over every key of both sides, a's keys first,
    then pruned at the higher cutoff: the reference for
    ``KSeries.__add__``, which prunes only the side with the lower one."""
    out = dict(a._t)
    for k, c in b._t.items():
        out[k] = out.get(k, 0) + c
    s = a._new(out, max(a.cut, b.cut))
    s._prune()
    return s


def matches_two_sided(a, b) -> bool:
    """Both sides pruned at the common cutoff, then compared: the
    reference for ``KSeries.matches``."""
    lo = max(a.cut, b.cut) + _HALF
    x = {k: c for k, c in a._t.items() if (k + _HALF) & _MASK > lo}
    y = {k: c for k, c in b._t.items() if (k + _HALF) & _MASK > lo}
    return bool(x) and x == y


def weight_of(ev, word, i: int):
    """w(ϖ_i) for a reduced word of w, from the evaluator's label record."""
    return ev._label(word, i)[1]


def q_raw_every_r(ev, word, i: int, r: int):
    """``QEvaluator.q_raw`` without the spectral shift: each (w(ϖ_i), r)
    is solved and certified afresh."""
    w, lam2, _ = ev._label(word, i)
    memo_key = (lam2, r)
    if memo_key not in ev._memo:
        value = ev._solve(w, i, r)
        ev._certify(w, i, r, value)
        ev._memo[memo_key] = value
    return ev._memo[memo_key]


class EveryREvaluator(QEvaluator):
    """An evaluator whose solves, certificates and checks all read their
    values through :func:`q_raw_every_r`."""

    q_raw = q_raw_every_r


def qq_battery(ev, r_values):
    """qq_check over every prefix of w_0 on the evaluator; the count."""
    word = longest_element(ev.rs).word
    count = 0
    for t in range(len(word)):
        for rr in r_values:
            assert qq_check(ev, word[:t], word[t], rr), (word[:t], rr)
            count += 1
    return count


# ---------------------------------------------------------------------------
# sl2
# ---------------------------------------------------------------------------


def fmt(x) -> str:
    """One segment end as ``str(Segment)`` prints it: the reference for
    its formatter."""
    if x == INF:
        return "+inf"
    if x == -INF:
        return "-inf"
    return str(int(x))


@dataclass(frozen=True, order=True)
class DataclassSegment:
    """The segment label as a frozen, ordered dataclass: the reference
    for ``sl2.Segment``, a validating tuple."""

    r: float
    s: float

    def __post_init__(self):
        for x in (self.r, self.s):
            if not (isinstance(x, int) or x in (INF, -INF)):
                raise ValueError(f"bad segment endpoint {x!r}")
        if self.r == INF or self.s == -INF:
            if not self.is_unit:
                raise ValueError(f"bad segment [{self.r}, {self.s}]")

    @property
    def is_unit(self) -> bool:
        return self.r > self.s

    def ell_weight(self) -> Key:
        p = ()
        if self.is_unit or (self.r == -INF and self.s == INF):
            return key_one(1)
        if self.r != -INF:
            p = psi_var(1, 2 * int(self.r))
        if self.s != INF:
            p = p + psi_var(1, 2 * (int(self.s) + 1), -1)
        return ((0,), tuple(sorted(p)))

    def __str__(self) -> str:
        return f"[{fmt(self.r)},{fmt(self.s)}]"


def ptolemy_grid(lo, hi):
    """The quadruples (r, s, r', s') of a Ptolemy grid over lo..hi."""
    return [
        (r, s, rp, sp)
        for r in range(lo, hi + 1)
        for rp in range(r + 1, hi + 1)
        for s in range(rp - 1, hi + 1)
        for sp in range(s + 1, hi + 1)
    ]


def compatible_each_way(s1, s2) -> bool:
    """The crossing test read off ``r``, ``s`` and ``is_unit``, once in
    each order: the reference for ``sl2.compatible``."""
    if s1.is_unit or s2.is_unit:
        return True
    for a, b in ((s1, s2), (s2, s1)):
        if a.r < b.r and a.s < b.s and b.r <= a.s + 1:
            return False
    return True


A1 = RootSystem.from_name("A1")
(VARPI2,) = fundamental_weight(A1, 1).coords2


@dataclass(frozen=True, order=True)
class Diagonal:
    """Diagonal (a, b), a < b, of the ∞-gon with vertices ℤ∪{±∞}."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")

    @property
    def is_edge(self) -> bool:
        """Boundary edges of the ∞-gon carry the unit class."""
        return self.b == self.a + 1 or (self.a, self.b) == (-INF, INF)


def diagonal_variable(diag: Diagonal, d: int = 6) -> KSeries:
    """Series of the cluster variable attached to a diagonal (edges → 1).

    The diagonal (a, b) carries [kϖ]·(class of [a, b-2]) with
    k = (b - 1) - a, where an infinite end counts as 0; an edge's class
    is the unit and its k is 0.  A depth below 1 raises ``ValueError``.
    """
    hi = 0 if diag.b == INF else int(diag.b) - 1
    lo = 0 if diag.a == -INF else int(diag.a)
    return segment_qchar(Segment(diag.a, diag.b - 2), d).mul_monomial(
        bracket(((hi - lo) * VARPI2,))
    )


def x_plus(v: int, d: int = 6) -> KSeries:
    """Variable of the diagonal (v, +∞): [-vϖ]·Ψ_{q^{2v}}."""
    return diagonal_variable(Diagonal(v, INF), d)


def x_minus(v: int, d: int = 6) -> KSeries:
    """Variable of the diagonal (-∞, v+1): [vϖ]·(class of [-∞, v-1])."""
    return diagonal_variable(Diagonal(-INF, v + 1), d)


def x_finite(r: int, s: int, d: int = 6) -> KSeries:
    """Variable of the diagonal (r, s+1), r < s: [(s-r)ϖ]·[r, s-1]."""
    if not r < s:
        raise ValueError(f"need r < s, got ({r}, {s})")
    return diagonal_variable(Diagonal(r, s + 1), d)


def quadrilateral_identity(a, b, c, e, d: int = 6) -> bool:
    """The Ptolemy relation of the quadrilateral a < b < c < e in
    diagonal variables, with no correction bracket:
    (a,c)(b,e) = (a,e)(b,c) + (a,b)(c,e).  The reference for
    ``sl2._ptolemy``, which carries the brackets as one."""
    if not a < b < c < e:
        raise ValueError("need a < b < c < e")
    var = lambda x, y: diagonal_variable(Diagonal(x, y), d)
    lhs = var(a, c) * var(b, e)
    return lhs.matches(var(a, e) * var(b, c) + var(a, b) * var(c, e))


def diagonal(seg) -> Diagonal:
    if seg.is_unit:
        raise ValueError("unit class has no diagonal")
    return Diagonal(seg.r, seg.s + 2)


def crosses(d1, d2) -> bool:
    """True iff the two diagonals intersect in their interiors."""
    a, b, c, d = d1.a, d1.b, d2.a, d2.b
    return a < c < b < d or c < a < d < b


# ---------------------------------------------------------------------------
# wronskian
# ---------------------------------------------------------------------------


def to_fractions(m, d: int):
    """The point ``m / d`` of an integer matrix over a denominator."""
    return tuple(tuple(Fraction(x, d) for x in row) for row in m)


def desnanot_jacobi_check(mat) -> bool:
    """det·(central minor) = product difference of the four corner minors."""
    m, _ = wronskian._clear_denominators(mat)
    size = len(m)
    memo = {}
    north, south, inner, det = wronskian._carroll_minors(m, memo)
    west = wronskian._int_minor(m, range(1, size), range(size - 1), memo)
    east = wronskian._int_minor(m, range(size - 1), range(1, size), memo)
    # both sides carry D**(2·size - 2), so the scaled equation is the same
    return north * south - west * east == det * inner


SL3_CLUSTER = {
    "d31": ((2,), (0,)),
    "d21": ((1,), (0,)),
    "d22": ((1,), (1,)),
    "d12": ((0,), (1,)),
    "d13": ((0,), (2,)),
    "d23_12": ((1, 2), (0, 1)),
    "d12_12": ((0, 1), (0, 1)),
    "d12_23": ((0, 1), (1, 2)),
}


def sl3_cluster_values(mat) -> dict:
    """The eight initial cluster minors of a 3 x 3 matrix, as Fractions."""
    return {
        name: rational_minor(mat, rows, cols)
        for name, (rows, cols) in SL3_CLUSTER.items()
    }


def sl3_reconstruct(vals: dict):
    """Rebuild the SL(3) matrix from the eight initial cluster minors.

    Entries named  [[a, b, c], [d, e, f], [h, i, j]]; the five single
    entries of the cluster are read off directly, the remaining four are
    Laurent expressions in the cluster (using det = 1 for the last one).
    The reference for the exchange identity at n = 2: a, f and i are
    rebuilt by identities of every matrix, and j by
    ``N·S - W·E == inner``.
    """
    h, d, e = vals["d31"], vals["d21"], vals["d22"]
    b, c = vals["d12"], vals["d13"]
    a = (vals["d12_12"] + vals["d12"] * vals["d21"]) / vals["d22"]
    f = (vals["d12_23"] + vals["d22"] * vals["d13"]) / vals["d12"]
    i = (vals["d23_12"] + vals["d31"] * vals["d22"]) / vals["d21"]
    ej_fi = (vals["d22"] + vals["d12_23"] * vals["d23_12"]) / vals["d12_12"]
    j = (ej_fi + f * i) / e
    return ((a, b, c), (d, e, f), (h, i, j))


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def cli(args, exit_code: int = 0):
    """The in-process run of the command line ``args`` (a list, or a
    string split as a shell would), which must exit with ``exit_code``."""
    if isinstance(args, str):
        args = shlex.split(args)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == exit_code, result.output
    return result


def json_lines(output) -> list:
    return [json.loads(line) for line in output.strip().splitlines()]


# ---------------------------------------------------------------------------
# source scans
# ---------------------------------------------------------------------------


def functions(tree, prefix, in_class=False):
    """(qualified name, def node, is a method) of every function in
    ``tree``: module-level ones, methods and nested ones."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node, in_class
            yield from functions(node, f"{prefix}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}.{node.name}", True)
