"""Seeds carrying g-vectors (and optional ring values) over a window.

A :class:`Seed` stores its own quiver, the quiver of the reference seed,
and for every vertex the g-vector of its cluster variable with respect to
that reference.  Two mutation operations are provided:

* :func:`mutate_seed` — mutate the seed itself at a vertex; it returns
  the new seed and the sign of the c-vector of the mutated variable.  The
  new g-vector follows the standard exchange recursion, whose two branches
  are selected by that sign.  With a stabilized reference (the plain
  translation-invariant quiver) that c-vector is computed exactly by a
  top-down substitution: the defining linear relation expresses, column
  by column, each coefficient two steps below a vertex in terms of
  already-known coefficients above it.
* :func:`mutate_reference` — mutate the reference seed at a vertex and
  transport every stored g-vector accordingly; :func:`green_sweep` does
  this at every green vertex, translating the reference one step down.

Both run one private transport step on the working form of the reference
quiver (see :mod:`clusterqq.quiver`).  It moves only the stored g-vectors
whose coordinate at the mutated vertex is non-zero, found through an index
from each basis vertex to the stored vertices whose g-vector involves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Rational
from typing import Any, Mapping

from .gvector import GVec, knit_gvectors, stable_block
from .quiver import (
    CoxeterWindow,
    MarginError,
    Vertex,
    WindowedQuiver,
    _WorkingQuiver,
    basic_quiver,
    mutate_quiver,
)
from .rootsys import _adjugate


class SignError(ValueError):
    """A c-vector turned out zero or not sign-coherent."""


@dataclass(frozen=True)
class Seed:
    quiver: WindowedQuiver
    ref_quiver: WindowedQuiver
    g: tuple[tuple[Vertex, GVec], ...]
    ref_tag: str
    values: tuple[tuple[Vertex, Any], ...] | None = None

    def gmap(self) -> dict[Vertex, GVec]:
        return dict(self.g)

    def g_of(self, v: Vertex) -> GVec:
        return dict(self.g)[v]

    def value_map(self) -> dict[Vertex, Any]:
        return dict(self.values) if self.values is not None else {}

    def with_values(self, values: Mapping[Vertex, Any]) -> "Seed":
        return replace(self, values=tuple(sorted(values.items())))


def _pack(g: Mapping[Vertex, GVec]) -> tuple[tuple[Vertex, GVec], ...]:
    return tuple(sorted(g.items()))


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
        return Seed(q, ref, _pack(knit_gvectors(q)), "stabilized")
    g = {v: GVec.unit(v) for v in q.vertices}
    return Seed(q, q, _pack(g), "self")


# ---------------------------------------------------------------------------
# c-vectors with respect to the stabilized reference
# ---------------------------------------------------------------------------


def _exchange_lhs(seed: Seed, k: Vertex) -> dict[Vertex, int]:
    """Net in-degree combination of g-vectors at k in the seed quiver."""
    g = seed.gmap()
    acc: dict[Vertex, int] = {}
    for (a, b), m in seed.quiver.arrows:
        if b == k:
            v = a
        elif a == k:
            v, m = b, -m
        else:
            continue
        for u, x in g[v].coeffs:
            acc[u] = acc.get(u, 0) + m * x
    return acc


def cvector(seed: Seed, k: Vertex) -> GVec:
    """Exact c-vector of the variable at k, from the defining relation.

    Requires the stabilized reference: there the relation reads, at each
    reference vertex (i,r),

        c(i,r+2) + sum_{j~i} c(j,r-1) - c(i,r-2) - sum_{j~i} c(j,r+1)
            = lhs(i,r),

    which determines c(i,r-2) from coefficients strictly above.  The
    substitution starts from virtual rows above the window top (where both
    c and the exchange data vanish) and raises :class:`MarginError` if a
    nonzero coefficient is pushed outside the window at either end.
    """
    if seed.ref_tag != "stabilized":
        raise ValueError("c-vectors are computed against the stabilized reference")
    ref = seed.ref_quiver
    lhs = _exchange_lhs(seed, k)
    heights: dict[int, list[int]] = {}
    for (i, r) in ref.vertices:
        heights.setdefault(i, []).append(r)
    # per column, in node order: its top, its bottom and its neighbours
    cols = {
        i: (max(h), min(h), ref.rs.neighbors(i)) for i, h in sorted(heights.items())
    }
    top = max(hi for hi, _, _ in cols.values())
    bot = min(lo for _, lo, _ in cols.values())
    c: dict[Vertex, int] = {}
    above: Vertex | None = None  # first nonzero coefficient above its column
    for r in range(top + 5, bot - 1, -1):
        for i, (hi, lo, nbrs) in cols.items():
            if (r - hi) % 2:
                continue
            val = c.get((i, r + 2), 0)
            for j in nbrs:
                val += c.get((j, r - 1), 0) - c.get((j, r + 1), 0)
            val -= lhs.get((i, r), 0)
            if r - 2 >= lo:
                c[(i, r - 2)] = val
                if val and above is None and r - 2 > hi:
                    above = (i, r - 2)
            elif val:
                raise MarginError(
                    f"c-vector support reaches the window bottom in column {i}"
                )
    if above is not None:
        raise MarginError(f"c-vector support reaches the window top at {above}")
    return GVec.from_dict({v: x for v, x in c.items() if v[1] <= cols[v[0]][0]})


def cvector_sign(seed: Seed, k: Vertex) -> int:
    """+1 if the c-vector at k is nonnegative, -1 if nonpositive."""
    c = cvector(seed, k)
    coeffs = [x for _, x in c.coeffs]
    if not coeffs:
        raise SignError(f"zero c-vector at {k}")
    if all(x > 0 for x in coeffs):
        return 1
    if all(x < 0 for x in coeffs):
        return -1
    raise SignError(f"c-vector at {k} is not sign-coherent: {c}")


def dual_cvectors(cw: CoxeterWindow) -> dict[Vertex, GVec]:
    """Initial c-vectors predicted by per-slice duality.

    In each slice the c-matrix is the inverse transpose of the stabilized
    g-matrix block.  The blocks lie in the Weyl group, so det = ±1 and the
    inverse is the integer matrix det·adj.
    """
    out: dict[Vertex, GVec] = {}
    n = cw.datum.rs.n
    for m in cw.slice_range():
        adj, det = _adjugate(stable_block(cw.datum, m))
        assert det in (1, -1)
        for i in range(1, n + 1):
            v = (i, cw.datum.l_of(i) + 2 * m)
            if v in cw.quiver.vertices:
                # column i of the inverse transpose is row i of the inverse
                out[v] = GVec.from_dict(
                    {
                        (j, cw.datum.l_of(j) + 2 * m): det * adj[i - 1][j - 1]
                        for j in range(1, n + 1)
                    }
                )
    return out


# ---------------------------------------------------------------------------
# mutations
# ---------------------------------------------------------------------------


def _divide(num, den):
    """num / den, exactly: a Fraction for numbers, den's inverse for series."""
    if isinstance(den, Rational):
        return Fraction(num, den)
    return num * den.inverse()


def mutate_seed(seed: Seed, k: Vertex) -> tuple[Seed, int]:
    """Mutate the seed at k, updating quiver, g-vector and optional value.

    Returns the mutated seed and the sign of the c-vector at k, which
    picked the branch of the exchange recursion.  Raises ``ValueError``
    for a vertex outside the window, and, when the seed carries values,
    for one without both in- and out-arrows.
    """
    if k not in seed.quiver.vertices:
        raise ValueError(f"vertex {k} not in window")
    sign = cvector_sign(seed, k)
    g = seed.gmap()
    acc = -g[k]
    arrows = seed.quiver.arrows_in(k) if sign > 0 else seed.quiver.arrows_out(k)
    for v, m in arrows:
        acc = acc + g[v].scale(m)
    g[k] = acc
    values = None
    if seed.values is not None:
        vals = seed.value_map()
        # each side is a left fold in arrow order from its first factor:
        # a series value cannot be multiplied into the int 1
        sides = []
        for arrows in (seed.quiver.arrows_in(k), seed.quiver.arrows_out(k)):
            factors = [vals[v] for v, m in arrows for _ in range(m)]
            if not factors:
                raise ValueError(f"vertex {k} must have both in- and out-arrows")
            sides.append(math.prod(factors[1:], start=factors[0]))
        vals[k] = _divide(sides[0] + sides[1], vals[k])
        values = tuple(sorted(vals.items()))
    mutated = replace(
        seed, quiver=mutate_quiver(seed.quiver, k), g=_pack(g), values=values
    )
    return mutated, sign


def _holders(g: Mapping[Vertex, GVec]) -> dict[Vertex, set[Vertex]]:
    """Basis vertex v -> the stored vertices whose g-vector has v in it."""
    out: dict[Vertex, set[Vertex]] = {}
    for x, gvec in g.items():
        for v, _ in gvec.coeffs:
            out.setdefault(v, set()).add(x)
    return out


def _transport(
    ref: _WorkingQuiver,
    g: dict[Vertex, GVec],
    holders: dict[Vertex, set[Vertex]],
    l: Vertex,
) -> None:
    """Mutate the working reference at l and transport g, both in place.

    Only the holders of l move; ``holders`` is kept up to date.  Every
    check runs before anything changes.
    """
    if l not in ref.vertices:
        raise ValueError(f"vertex {l} not in reference window")
    out_arrows = dict(ref.out[l])
    in_arrows = dict(ref.inn[l])
    ref.mutate(l)
    for x in list(holders.get(l, ())):
        old = g[x]
        comp = old.as_dict()
        gl = comp[l]
        comp[l] = -gl
        for v, m in (out_arrows if gl >= 0 else in_arrows).items():
            comp[v] = comp.get(v, 0) + m * gl
        g[x] = GVec.from_dict(comp)
        for v, _ in old.coeffs:
            holders[v].discard(x)
        for v, _ in g[x].coeffs:
            holders.setdefault(v, set()).add(x)


def mutate_reference(seed: Seed, l: Vertex) -> Seed:
    """Mutate the reference at l and transport all stored g-vectors."""
    ref = _WorkingQuiver(seed.ref_quiver)
    g = seed.gmap()
    _transport(ref, g, _holders(g), l)
    return replace(
        seed,
        ref_quiver=ref.freeze(),
        g=_pack(g),
        ref_tag=seed.ref_tag + f"*mu{l}",
    )


def green_sweep(seed: Seed) -> Seed:
    """Mutate the reference at every green vertex, then recolor.

    The reference quiver comes back as its own one-step downward
    translation; the mutations pairwise commute so the order is free.
    The sweep thaws the reference once, mutates it in place at every
    green and freezes it once, recolored from its vertical down-arrows.
    """
    tag = seed.ref_tag
    greens = seed.ref_quiver.greens()
    if not greens:
        raise ValueError("reference quiver has no green vertices")
    ref = _WorkingQuiver(seed.ref_quiver)
    g = seed.gmap()
    holders = _holders(g)
    for l in greens:
        _transport(ref, g, holders, l)
    ref.recolor()
    # the part before the first '*' already carries the earlier sweeps
    return replace(
        seed,
        ref_quiver=ref.freeze(),
        g=_pack(g),
        ref_tag=tag.split("*")[0] + "+sweep",
    )
