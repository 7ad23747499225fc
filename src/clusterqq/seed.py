"""Seeds carrying g-vectors (and optional ring values) over a window.

A :class:`Seed` holds its own quiver, the quiver of the reference seed,
and for every vertex the g-vector of its cluster variable with respect to
that reference.  It is the one form of a seed, and every operation edits
it in place:

* :func:`mutate_seed` — mutate the seed itself at a vertex; it returns
  the sign of the c-vector of the mutated variable.  The new g-vector
  follows the standard exchange recursion, whose two branches are
  selected by that sign, and a value follows the exchange relation, each
  side a product of powers taken by square-and-multiply.
* :func:`green_sweep` — mutate the reference seed at every green vertex,
  transporting every stored g-vector at each step; this translates the
  reference one step down.

Every g-vector and c-vector is a dict of its non-zero coefficients keyed
by window vertex, as in :mod:`clusterqq.gvector`; :func:`initial_seed`
gives every vertex of every seed a dict of its own.  Each quiver is a
working quiver (see :mod:`clusterqq.quiver`), made from the frozen quiver
the seed was built with when an operation first needs it; a caller that
wants a frozen one, say to check its invariants, freezes it.  A reference
mutation edits in place only the stored g-vectors whose coordinate at the
mutated vertex is non-zero, found through an index built once, and within
each only the coordinates at that vertex and its neighbours.

With a stabilized reference (the plain translation-invariant quiver) the
c-vector is computed exactly by a top-down substitution: the defining
linear relation expresses, column by column, each coefficient two steps
below a vertex in terms of already-known coefficients above it.  It runs
only over the c-vector's support.  Every row above the highest row of the
exchange combination is 0, so it starts there; once it is below the
combination's lowest row and the four rows the relation reads are all 0,
every row below is 0 too, so it stops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Any, Mapping

from .gvector import knit_gvectors, stable_block
from .quiver import (
    GREEN,
    CoxeterWindow,
    MarginError,
    Vertex,
    WindowedQuiver,
    _WorkingQuiver,
    basic_quiver,
)
from .rootsys import _adjugate


class SignError(ValueError):
    """A c-vector turned out zero or not sign-coherent."""


class Seed:
    """A seed, edited in place by every seed operation.

    ``g`` maps each vertex to its g-vector, ``values`` to its value (None
    without values), and ``ref_tag`` names the reference.  ``quiver`` and
    ``ref`` are working quivers, each made on first use from the frozen
    quiver the seed was built with; mutation never changes a vertex set,
    so :func:`cvector`'s window check and ``columns`` read the frozen ones.
    """

    def __init__(
        self,
        quiver: WindowedQuiver,
        ref: WindowedQuiver,
        g: dict[Vertex, dict[Vertex, int]],
        ref_tag: str,
        values: dict[Vertex, Any] | None = None,
    ):
        self._initial_quiver = quiver
        self._initial_ref = ref
        self.g = g
        self.ref_tag = ref_tag
        self.values = values

    @cached_property
    def quiver(self) -> _WorkingQuiver:
        return _WorkingQuiver(self._initial_quiver)

    @cached_property
    def ref(self) -> _WorkingQuiver:
        return _WorkingQuiver(self._initial_ref)

    @cached_property
    def columns(self) -> tuple[dict[int, tuple[int, int, list[int]]], int, int]:
        """Per reference column, in node order, its top, its bottom and its
        neighbours; then the top and the bottom of the whole reference."""
        ref = self._initial_ref
        heights: dict[int, list[int]] = {}
        for i, r in ref.vertices:
            heights.setdefault(i, []).append(r)
        cols = {
            i: (max(h), min(h), ref.rs.neighbors(i)) for i, h in sorted(heights.items())
        }
        top = max(hi for hi, _, _ in cols.values())
        bot = min(lo for _, lo, _ in cols.values())
        return cols, top, bot

    @cached_property
    def holders(self) -> dict[Vertex, set[Vertex]]:
        """Basis vertex v -> the stored vertices whose g-vector has v in it.

        Only reference mutations read it, and after one the reference is no
        longer the stabilized one, so no seed mutation (which needs that
        reference) ever changes ``g`` while it exists.
        """
        out: dict[Vertex, set[Vertex]] = {}
        for x, comp in self.g.items():
            for v in comp:
                out.setdefault(v, set()).add(x)
        return out


def initial_seed(cw: CoxeterWindow, stabilized: bool = True) -> Seed:
    """Initial seed on the Coxeter quiver.

    With ``stabilized=True`` the reference is the limit of downward
    translations — the plain quiver with no red/green band — and the
    stored g-vectors are the stabilized ones.  Otherwise the reference is
    the seed itself and every g-vector is a unit vector.
    """
    q = cw.quiver
    if stabilized:
        ref = basic_quiver(q.rs, q.rmin, q.rmax, parity=q.parity, margin=q.margin)
        return Seed(q, ref, knit_gvectors(q), "stabilized")
    return Seed(q, q, {v: {v: 1} for v in q.vertices}, "self")


# ---------------------------------------------------------------------------
# c-vectors with respect to the stabilized reference
# ---------------------------------------------------------------------------


def _exchange_lhs(seed: Seed, k: Vertex) -> dict[Vertex, int]:
    """Net in-degree combination of g-vectors at k, its non-zero entries."""
    q, g = seed.quiver, seed.g
    acc: dict[Vertex, int] = {}
    for arrows, sign in ((q.inn.get(k, {}), 1), (q.out.get(k, {}), -1)):
        for v, m in arrows.items():
            for u, x in g[v].items():
                acc[u] = acc.get(u, 0) + sign * m * x
    return {u: x for u, x in acc.items() if x}


def cvector(seed: Seed, k: Vertex) -> dict[Vertex, int]:
    """Exact c-vector of the variable at k, from the defining relation.

    Requires the stabilized reference: there the relation reads, at each
    reference vertex (i,r),

        c(i,r+2) + sum_{j~i} c(j,r-1) - c(i,r-2) - sum_{j~i} c(j,r+1)
            = lhs(i,r),

    which determines c(i,r-2) from coefficients strictly above.  The
    substitution runs down from the highest row of lhs, but from no higher
    than 5 rows above the window top (where both c and the exchange data
    vanish), and raises :class:`MarginError` if a nonzero coefficient is
    pushed outside the window at either end.  Row r reads rows r+2, r+1
    and r-1, so once it is at or below the lowest row of lhs with rows
    r+1 down to r-2 all 0, every row below is 0 and it stops.  A vertex
    outside the window raises ``ValueError``.
    """
    # mutation never changes the vertex set: the initial quiver's serves
    if k not in seed._initial_quiver.vertices:
        raise ValueError(f"vertex {k} not in window")
    if seed.ref_tag != "stabilized":
        raise ValueError("c-vectors are computed against the stabilized reference")
    lhs = _exchange_lhs(seed, k)
    cols, top, bot = seed.columns
    rows = [r for _, r in lhs]
    start = min(top + 5, max(rows, default=bot - 1))
    low = min(rows, default=start)
    c: dict[Vertex, int] = {}  # the non-zero coefficients
    lowest = None  # the lowest row with one
    above: Vertex | None = None  # first nonzero coefficient above its column
    for r in range(start, bot - 1, -1):
        for i, (hi, lo, nbrs) in cols.items():
            if (r - hi) % 2:
                continue
            val = c.get((i, r + 2), 0)
            for j in nbrs:
                val += c.get((j, r - 1), 0) - c.get((j, r + 1), 0)
            val -= lhs.get((i, r), 0)
            if not val:
                continue
            if r - 2 < lo:
                raise MarginError(
                    f"c-vector support reaches the window bottom in column {i}"
                )
            c[(i, r - 2)] = val
            lowest = r - 2
            if above is None and r - 2 > hi:
                above = (i, r - 2)
        if r <= low and (lowest is None or lowest > r + 1):
            break
    if above is not None:
        raise MarginError(f"c-vector support reaches the window top at {above}")
    return c


def cvector_sign(seed: Seed, k: Vertex) -> int:
    """+1 if the c-vector at k is nonnegative, -1 if nonpositive."""
    c = cvector(seed, k)
    if not c:
        raise SignError(f"zero c-vector at {k}")
    if all(x > 0 for x in c.values()):
        return 1
    if all(x < 0 for x in c.values()):
        return -1
    raise SignError(f"c-vector at {k} is not sign-coherent: {dict(sorted(c.items()))}")


def dual_cvectors(cw: CoxeterWindow) -> dict[Vertex, dict[Vertex, int]]:
    """Initial c-vectors predicted by per-slice duality.

    In each slice the c-matrix is the inverse transpose of the stabilized
    g-matrix block.  The blocks lie in the Weyl group, so det = ±1 and the
    inverse is the integer matrix det·adj.
    """
    out: dict[Vertex, dict[Vertex, int]] = {}
    n = cw.datum.rs.n
    for m in cw.slice_range():
        adj, det = _adjugate(stable_block(cw.datum, m))
        if det not in (1, -1):
            raise ValueError(f"slice-{m} g-block has determinant {det}, not ±1")
        for i in range(1, n + 1):
            v = (i, cw.datum.l_of(i) + 2 * m)
            if v in cw.quiver.vertices:
                # column i of the inverse transpose is row i of the inverse
                out[v] = {
                    (j, cw.datum.l_of(j) + 2 * m): det * adj[i - 1][j - 1]
                    for j in range(1, n + 1)
                    if adj[i - 1][j - 1]
                }
    return out


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------


def _divide(num, den):
    """num / den, exactly: a Fraction for numbers, den's inverse for series."""
    if isinstance(den, Rational):
        return Fraction(num, den)
    return num * den.inverse()


def _power(x, m: int):
    """x**m for m >= 1 by square-and-multiply: O(log m) products."""
    out = None
    while True:
        if m & 1:
            out = x if out is None else out * x
        m >>= 1
        if not m:
            return out
        x = x * x


def _side(vals: Mapping[Vertex, Any], arrows: list[tuple[Vertex, int]]):
    """One side of an exchange relation, the product of vals[v]**m.

    A left fold in arrow order from its first factor: a series value
    cannot be multiplied into the int 1.
    """
    powers = [_power(vals[v], m) for v, m in arrows]
    return math.prod(powers[1:], start=powers[0])


def mutate_seed(seed: Seed, k: Vertex) -> int:
    """Mutate the seed at k in place: quiver, g-vector and optional value.

    Returns the sign of the c-vector at k, which picked the branch of the
    exchange recursion.  The quiver's refusals (window, frozen, margin)
    come before the c-vector's :class:`SignError`; with values, a vertex
    without both in- and out-arrows raises ``ValueError``.  Every check
    runs before anything changes, so a refused mutation changes nothing.
    """
    q = seed.quiver
    q.check_mutable(k)
    sign = cvector_sign(seed, k)
    ins, outs = sorted(q.inn[k].items()), sorted(q.out[k].items())
    g = seed.g
    new = {u: -x for u, x in g[k].items()}
    for v, m in ins if sign > 0 else outs:
        for u, x in g[v].items():
            new[u] = new.get(u, 0) + m * x
    if seed.values is not None:
        sides = []
        for arrows in (ins, outs):
            if not arrows:
                raise ValueError(f"vertex {k} must have both in- and out-arrows")
            sides.append(_side(seed.values, arrows))
        value = _divide(sides[0] + sides[1], seed.values[k])
    q.mutate(k)
    g[k] = {u: x for u, x in new.items() if x}
    if seed.values is not None:
        seed.values[k] = value
    return sign


def _transport(seed: Seed, l: Vertex) -> None:
    """Mutate the reference at l and transport g, both in place.

    Only the holders of l move, each g-vector dict edited in place at l and
    at l's neighbours, a coordinate that reaches 0 deleted; the holders
    index is kept up to date.  Every check runs before anything changes.
    """
    ref, g = seed.ref, seed.g
    if l not in ref.vertices:
        raise ValueError(f"vertex {l} not in reference window")
    out_arrows = dict(ref.out[l])
    in_arrows = dict(ref.inn[l])
    ref.mutate(l)
    # built only once the mutation is done: a refused one leaves no index
    # for a later seed mutation to make stale
    holders = seed.holders
    # l stays in every holder's g-vector, so only the coordinates at l's
    # neighbours can enter or leave one, and holders[l] never changes
    for x in holders.get(l, ()):
        comp = g[x]
        gl = comp[l]
        comp[l] = -gl
        for v, m in (out_arrows if gl >= 0 else in_arrows).items():
            was = comp.get(v)
            if was is None:
                comp[v] = m * gl
                holders.setdefault(v, set()).add(x)
            elif was + m * gl:
                comp[v] += m * gl
            else:
                del comp[v]
                holders[v].discard(x)


def green_sweep(seed: Seed) -> None:
    """Mutate the reference at every green vertex, then recolor.

    The reference quiver comes back as its own one-step downward
    translation; the mutations pairwise commute so the order is free.
    The reference is mutated in place at every green and recolored from
    its vertical down-arrows.  A sweep that fails part way leaves the
    seed with the greens before the failing one mutated.
    """
    greens = sorted(v for v, c in seed.ref.colors.items() if c == GREEN)
    if not greens:
        raise ValueError("reference quiver has no green vertices")
    for l in greens:
        _transport(seed, l)
    seed.ref.recolor()
    seed.ref_tag += "+sweep"
