"""Finite windows of the infinite quivers attached to a Cartan matrix.

Vertices are pairs ``(i, r)`` with ``i`` a Dynkin node and ``r`` an integer
spectral exponent, restricted to one parity component: ``r`` must be
congruent mod 2 to the parity class of ``i``.  The basic quiver has arrows
``(i, r) -> (j, r + c_ij)`` for ``c_ij != 0`` (including the vertical
up-arrows ``(i, r) -> (i, r+2)``).

The Coxeter quiver of a Coxeter datum (l, m) is the basic quiver with a
band of red/green pairs, written down in closed form by
:func:`build_coxeter_quiver`.  It is the quiver that the four-step
insertion surgery builds at every vertex of the finite starting pattern
of the Coxeter element: split the vertical arrow below the chosen vertex,
reroute the oblique arrows leaving it to the new green vertex, and move
the rest of the column down by 2.  That surgery is the test reference in
``tests/oracles.py``.

A :class:`WindowedQuiver` is frozen: sorted arrow and color tuples, hashable
and comparable.  Its one derived view, the adjacency map ``out[a][b] = m``,
is built from the arrows on first use and answers every arrow lookup.
Every surgery (mutation, recoloring) runs in place on one
private working form, :class:`_WorkingQuiver`, which keeps the arrows as
adjacency maps ``out[a][b]`` and ``inn[b][a]`` together with the vertex
set and the colors.  A run of surgeries makes one working quiver,
edits its maps and freezes once at the end.  Freezing reads ``out`` in
adjacency order, sorted sources each followed by its sorted targets, which
is the sorted order of the arrows, so no flat arrow map is built or sorted.

No frozen quiver has a loop or a 2-cycle: :func:`_make`, which every frozen
quiver goes through, raises :class:`ValueError` on one.  Mutation at v can
then only create 2-cycles between the pairs a -> v -> b it composes, so it
cancels exactly those.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .rootsys import CoxeterDatum, RootSystem

Vertex = tuple[int, int]
Arrow = tuple[Vertex, Vertex]

RED = "red"
GREEN = "green"
BLACK = "black"


class MarginError(ValueError):
    """An operation reached too close to the window boundary."""


@dataclass(frozen=True)
class WindowedQuiver:
    rs: RootSystem
    rmin: int
    rmax: int
    parity: tuple[int, ...]
    vertices: frozenset[Vertex]
    arrows: tuple[tuple[Arrow, int], ...]  # sorted ((src, dst), multiplicity)
    colors: tuple[tuple[Vertex, str], ...]  # only non-black entries, sorted
    frozen: frozenset[Vertex] = field(default_factory=frozenset)
    margin: int = 2

    # -- convenience accessors --------------------------------------------

    # The arrows by source, out[a][b] = m in sorted order, built once and
    # only read.  It lives in the instance __dict__, outside the fields, so
    # == and hash ignore it, and replace() builds a new instance without it.
    @cached_property
    def out(self) -> dict[Vertex, dict[Vertex, int]]:
        out: dict[Vertex, dict[Vertex, int]] = {}
        for (a, b), m in self.arrows:
            out.setdefault(a, {})[b] = m
        return out

    def mult(self, src: Vertex, dst: Vertex) -> int:
        return self.out.get(src, {}).get(dst, 0)

    def arrows_out(self, v: Vertex) -> list[tuple[Vertex, int]]:
        return list(self.out.get(v, {}).items())

    def greens(self) -> list[Vertex]:
        return sorted(v for v, c in self.colors if c == GREEN)


def _make(
    base: WindowedQuiver,
    *,
    vertices: Iterable[Vertex],
    out: Mapping[Vertex, Mapping[Vertex, int]],
    colors: Mapping[Vertex, str] | None = None,
    frozen: Iterable[Vertex] | None = None,
) -> WindowedQuiver:
    """The one constructor of a frozen quiver.

    The arrows come grouped by source as ``out[a][b]``.  Arrows of
    multiplicity at most 0 and arrows leaving the vertex set are dropped;
    without ``colors`` or ``frozen``, ``base``'s are kept.
    """
    verts = frozenset(vertices)
    # sorted sources, each followed by its sorted targets: arrow keys are
    # unique, so this is the sorted order of the (source, target) pairs,
    # and the first loop or 2-cycle in that order is the one named
    arr = []
    for a in sorted(out):
        if a not in verts:
            continue
        outs = out[a]
        for b in sorted(outs):
            m = outs[b]
            if m <= 0 or b not in verts:
                continue
            if a == b:
                raise ValueError(f"loop at {a}")
            if a in out.get(b, ()) and out[b][a] > 0:
                raise ValueError(f"2-cycle between {a} and {b}")
            arr.append(((a, b), m))
    col = dict(base.colors) if colors is None else colors
    col = {v: c for v, c in col.items() if v in verts and c != BLACK}
    frz = frozenset(frozen) if frozen is not None else base.frozen
    return replace(
        base,
        vertices=verts,
        arrows=tuple(arr),
        colors=tuple(sorted(col.items())),
        frozen=frz & verts,
    )


class _WorkingQuiver:
    """The mutable form of a quiver that every surgery edits in place.

    ``out[a][b]`` and ``inn[b][a]`` both hold the multiplicity of the arrow
    a -> b, and every vertex has an entry, possibly empty, in both maps.
    ``colors`` holds the non-black colors.  The root system, window,
    parity, margin and frozen set come from ``base`` and no surgery
    changes them.  :meth:`freeze` hands ``out`` as it is to :func:`_make`,
    which reads it in adjacency order, drops what left the window and
    checks the no-2-cycle invariant.
    """

    def __init__(self, q: WindowedQuiver):
        self.base = q
        self.vertices = set(q.vertices)
        self.out: dict[Vertex, dict[Vertex, int]] = {v: {} for v in q.vertices}
        self.inn: dict[Vertex, dict[Vertex, int]] = {v: {} for v in q.vertices}
        for (a, b), m in q.arrows:
            self.out[a][b] = m
            self.inn[b][a] = m
        self.colors = dict(q.colors)

    def freeze(self) -> WindowedQuiver:
        return _make(
            self.base, vertices=self.vertices, out=self.out, colors=self.colors
        )

    # -- elementary edits ---------------------------------------------------

    def _set(self, a: Vertex, b: Vertex, m: int) -> None:
        """Make a -> b have multiplicity m, removing it at 0."""
        if m:
            self.out[a][b] = m
            self.inn[b][a] = m
        else:
            self.out[a].pop(b, None)
            self.inn[b].pop(a, None)

    def _add(self, a: Vertex, b: Vertex, m: int) -> None:
        self._set(a, b, self.out[a].get(b, 0) + m)

    # -- surgeries ----------------------------------------------------------

    def check_mutable(self, v: Vertex) -> None:
        """Raise unless v is a non-frozen window vertex inside the margin:
        ``ValueError`` outside the window or at a frozen vertex,
        :class:`MarginError` outside the margin."""
        q = self.base
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in window")
        if v in q.frozen:
            raise ValueError(f"vertex {v} is frozen")
        if not (q.rmin + q.margin < v[1] < q.rmax - q.margin):
            raise MarginError(f"mutation at {v} violates the window margin")

    def mutate(self, v: Vertex) -> None:
        """Standard quiver mutation at a vertex that :meth:`check_mutable`
        accepts, written straight into ``out`` and ``inn`` in the order of
        :meth:`_set` and :meth:`_add` edits, so key orders match them."""
        self.check_mutable(v)
        out, inn = self.out, self.inn
        ins = list(inn[v].items())
        outs = list(out[v].items())
        # compose paths through v; multiplicities are positive, so no
        # sum is 0 and no arrow is removed
        for a, ma in ins:
            row = out[a]
            for b, mb in outs:
                row[b] = inn[b][a] = row.get(b, 0) + ma * mb
        # reverse arrows at v; with no 2-cycle, each reversed arrow is new
        for a, m in ins:
            del out[a][v]
            inn[a][v] = m
        for b, m in outs:
            del inn[b][v]
            out[b][v] = m
        out[v], inn[v] = dict(ins), dict(outs)
        # cancel 2-cycles: the input had none, so only a composed pair
        # a -> b can now face an arrow b -> a
        for a, _ in ins:
            for b, _ in outs:
                k = min(out[a].get(b, 0), out[b].get(a, 0))
                if k:
                    self._add(a, b, -k)
                    self._add(b, a, -k)

    def recolor(self) -> None:
        """Recompute red/green from vertical down-arrows (i,r) -> (i,r-2).

        A vertex with a down-arrow both in and out ends green, as when the
        arrows are read in sorted order.
        """
        reds, greens = [], []
        for a, outs in self.out.items():
            for b in outs:
                if a[0] == b[0] and a[1] == b[1] + 2:
                    reds.append(a)
                    greens.append(b)
        self.colors = dict.fromkeys(reds, RED)
        self.colors.update(dict.fromkeys(greens, GREEN))


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


# The most vertices a window may have: far above the largest windows of
# the tests, the README and the benchmark (E8 at depth 80 has 580), far
# below a window sized by an unchecked --depth-below or --sweeps.
MAX_WINDOW_VERTICES = 20_000


def _bare_window(
    rs: RootSystem, rmin: int, rmax: int, parity: Sequence[int], margin: int
) -> tuple[WindowedQuiver, set[Vertex]]:
    """An arrowless window and its vertices, the (i, r) with rmin <= r <=
    rmax and r = parity_i mod 2.  An empty window, or one of more than
    ``MAX_WINDOW_VERTICES`` vertices, raises ``ValueError`` first."""
    if rmin >= rmax:
        raise ValueError("empty window: need rmin < rmax")
    starts = [rmin + (rmin - parity[i]) % 2 for i in range(rs.n)]
    size = sum((rmax - r) // 2 + 1 for r in starts)
    if size > MAX_WINDOW_VERTICES:
        raise ValueError(
            f"window of {size} vertices, more than the {MAX_WINDOW_VERTICES} allowed"
        )
    bare = WindowedQuiver(
        rs, rmin, rmax, tuple(parity), frozenset(), (), (), frozenset(), margin
    )
    return bare, {
        (i, r) for i, r0 in enumerate(starts, 1) for r in range(r0, rmax + 1, 2)
    }


def basic_quiver(
    rs: RootSystem,
    rmin: int,
    rmax: int,
    parity: Sequence[int],
    margin: int = 2,
) -> WindowedQuiver:
    """Window of the basic quiver: arrows (i,r) -> (j, r + c_ij)."""
    bare, vertices = _bare_window(rs, rmin, rmax, parity, margin)
    out: dict[Vertex, dict[Vertex, int]] = {v: {} for v in vertices}
    for i, r in vertices:
        for j in range(1, rs.n + 1):
            cij = rs.cartan[i - 1][j - 1]
            if cij == 0 and i != j:
                continue
            s = r + cij
            if (j, s) in vertices:
                out[(i, r)][(j, s)] = 1
    return _make(bare, vertices=vertices, out=out, colors={})


def mutate_quiver(q: WindowedQuiver, v: Vertex) -> WindowedQuiver:
    """Standard quiver mutation at a non-frozen vertex inside the margin."""
    work = _WorkingQuiver(q)
    work.mutate(v)
    return work.freeze()


# ---------------------------------------------------------------------------
# Coxeter quivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoxeterWindow:
    """The Coxeter-element quiver on a window, plus its finite core."""

    quiver: WindowedQuiver
    datum: CoxeterDatum

    # The finite core with 2n frozen vertices, built on first use and kept
    # outside the fields like WindowedQuiver.out: the band plus the vertex
    # immediately above each highest red; frozen boundary = that top rim
    # and the lowest green of each column.
    @cached_property
    def gamma(self) -> WindowedQuiver:
        datum, q = self.datum, self.quiver
        core: set[Vertex] = set()
        frozen: set[Vertex] = set()
        for i in range(1, datum.rs.n + 1):
            top, bottom = -datum.l_of(i) + 2, -datum.l_of(i) - 4 * datum.m_of(i) + 2
            core.update((i, h) for h in range(bottom, top + 1, 2))
            frozen |= {(i, top), (i, bottom)}
        return _make(replace(q, margin=0), vertices=core, out=q.out, frozen=frozen)

    # -- band geometry ----------------------------------------------------

    def red_top(self, i: int) -> int:
        return -self.datum.l_of(i)

    # -- slices -----------------------------------------------------------

    def slice_index(self, v: Vertex) -> int:
        i, r = v
        return (r - self.datum.l_of(i)) // 2

    def slice_range(self) -> range:
        rs = self.datum.rs
        lo = min(
            (self.quiver.rmin - self.datum.l_of(i) + 1) // 2
            for i in range(1, rs.n + 1)
        )
        hi = max(
            (self.quiver.rmax - self.datum.l_of(i)) // 2 for i in range(1, rs.n + 1)
        )
        return range(lo, hi + 1)

    # -- green enumeration -------------------------------------------------

    def green_sequence(self) -> list[Vertex]:
        """All green vertices, slice-descending (then node-ascending)."""
        greens = self.quiver.greens()
        return sorted(greens, key=lambda v: (-self.slice_index(v), v[0]))


def build_coxeter_quiver(
    datum: CoxeterDatum, depth_below: int = 8, margin: int = 2
) -> CoxeterWindow:
    """The Coxeter quiver of the datum, with highest red vertex at height 0.

    The window runs from ``depth_below`` under the band up to height 2, with
    the vertices of the basic quiver there (the vertex set only: no basic
    arrow is built).  For k < m_i the red (i, -l(i) - 4k) sits over its green
    (i, -l(i) - 4k - 2); every other vertex is black.  A vertex that is not
    green stands for the basic vertex 2·(greens above it) higher and has one
    arrow up, to the vertex above it, and that basic vertex's oblique arrows,
    to the vertices that stand for their targets.  A red's oblique arrows
    leave its green instead, and the red has an arrow down to it; a green has
    no other arrow.  At margin 0 a green can fall below the window, and its
    red keeps only its up-arrow.  A red that the insertion surgery could not
    create, below the window or within the margin, raises that surgery's
    error.  The finite core, the restriction of the quiver to the band and the
    rim above it, is built on first use (:attr:`CoxeterWindow.gamma`).
    """
    rs, l, m = datum.rs, datum.l, datum.m
    nodes = range(1, rs.n + 1)
    rmin = min(-l[i - 1] - 4 * m[i - 1] + 2 for i in nodes) - depth_below
    bare, vertices = _bare_window(rs, rmin, 2, datum.parity(), margin)
    # the reds in the surgery's order, top-down by the pattern heights
    band: dict[Vertex, Vertex] = {}
    for i, k in sorted(
        ((i, k) for i in nodes for k in range(m[i - 1])),
        key=lambda p: (l[p[0] - 1] + 2 * p[1], p[0]),
    ):
        v = (i, -l[i - 1] - 4 * k)
        if v[1] < rmin:
            raise ValueError(f"vertex {v} not in window")
        if v[1] - rmin <= margin:
            raise MarginError(f"insertion at {v} too close to window bottom")
        band[v] = (i, v[1] - 2)
    greens = set(band.values())

    def lifted(j: int, s: int) -> Vertex:
        """The vertex that stands for the basic vertex (j, s)."""
        return (j, s - 2 * min(max((-l[j - 1] - s + 1) // 2, 0), m[j - 1]))

    out: dict[Vertex, dict[Vertex, int]] = {}
    colors: dict[Vertex, str] = {}
    for v in vertices:
        if v in greens:
            continue
        i, r = v
        src = out.setdefault(v, {})
        if (i, r + 2) in vertices:
            src[(i, r + 2)] = 1
        if v in band:
            colors[v] = RED
            green = band[v]
            if green not in vertices:
                continue
            colors[green] = GREEN
            src[green] = 1
            src = out.setdefault(green, {})
        # the basic height of v: 2 higher for each green above it
        lam = r + 2 * min(max((-l[i - 1] - r + 1) // 4, 0), m[i - 1])
        for j in rs.neighbors(i):
            if (t := lifted(j, lam - 1)) in vertices:
                src[t] = 1
    return CoxeterWindow(_make(bare, vertices=vertices, out=out, colors=colors), datum)


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------


def quiver_to_json(q: WindowedQuiver) -> str:
    """The quiver as one JSON object with sorted keys, as ``quiver build``
    and ``quiver mutate`` print it.  The package writes this form only."""
    payload = {
        "type": q.rs.dynkin_type,
        "window": [q.rmin, q.rmax],
        "arrows": [[a[0], a[1], b[0], b[1], m] for (a, b), m in q.arrows],
        "colors": {f"{i},{r}": c for (i, r), c in q.colors},
        "frozen": sorted([list(v) for v in q.frozen]),
        "vertices": sorted([list(v) for v in q.vertices]),
        "parity": list(q.parity),
        "margin": q.margin,
    }
    return json.dumps(payload, sort_keys=True)
