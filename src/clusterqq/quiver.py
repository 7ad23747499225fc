"""Finite windows of the infinite quivers attached to a Cartan matrix.

Vertices are pairs ``(i, r)`` with ``i`` a Dynkin node and ``r`` an integer
spectral exponent, restricted to one parity component: ``r`` must be
congruent mod 2 to the parity class of ``i``.  The basic quiver has arrows
``(i, r) -> (j, r + c_ij)`` for ``c_ij != 0`` (including the vertical
up-arrows ``(i, r) -> (i, r+2)``).

``insert_reflection`` performs the four-step local surgery that creates a
red/green pair: split the vertical arrow below the chosen vertex, reroute
the oblique arrows leaving it to the new vertex, and move the rest of the
column down by 2 so vertex ids stay in the fixed parity component.  The
move runs in place, one vertex at a time from the window bottom up, so each
vertex lands on an id that its lower neighbour has just vacated.
Iterating it along a reduced word builds the initial-seed quivers; doing it
at every vertex of the finite starting pattern of a Coxeter element builds
the Coxeter quiver, normalized so its highest red vertex has height 0.

A :class:`WindowedQuiver` is frozen: sorted arrow and color tuples, hashable
and comparable.  Every surgery (insertion, mutation, recoloring) runs in
place on one private working form, :class:`_WorkingQuiver`, which keeps the
arrows as adjacency maps ``out[a][b]`` and ``inn[b][a]`` together with the
vertex set and the colors.  A run of surgeries thaws a quiver once,
edits the maps and freezes once at the end, instead of re-sorting the whole
quiver after every step.

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

from .rootsys import CoxeterDatum, RootSystem, coxeter_data

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

    # Lookup dicts built once per instance.  They live in the instance
    # __dict__, outside the fields, so == and hash ignore them; replace()
    # and _make() build new instances, so they are never stale.
    @cached_property
    def _arrow_map(self) -> dict[Arrow, int]:
        return dict(self.arrows)

    @cached_property
    def _color_map(self) -> dict[Vertex, str]:
        return dict(self.colors)

    def color(self, v: Vertex) -> str:
        return self._color_map.get(v, BLACK)

    def mult(self, src: Vertex, dst: Vertex) -> int:
        return self._arrow_map.get((src, dst), 0)

    # plain scans: a per-quiver adjacency index costs more to build than
    # it saves, since most quivers are asked only a few times
    def arrows_out(self, v: Vertex) -> list[tuple[Vertex, int]]:
        return [(b, m) for (a, b), m in self.arrows if a == v]

    def arrows_in(self, v: Vertex) -> list[tuple[Vertex, int]]:
        return [(a, m) for (a, b), m in self.arrows if b == v]

    def reds(self) -> list[Vertex]:
        return sorted(v for v, c in self.colors if c == RED)

    def greens(self) -> list[Vertex]:
        return sorted(v for v, c in self.colors if c == GREEN)

    def relabeled(self, mapping: Mapping[Vertex, Vertex]) -> "WindowedQuiver":
        """Apply a vertex relabeling (identity outside the mapping)."""

        def f(v: Vertex) -> Vertex:
            return mapping.get(v, v)

        return _make(
            self,
            vertices={f(v) for v in self.vertices},
            arrows={(f(a), f(b)): m for (a, b), m in self.arrows},
            colors={f(v): c for v, c in self.colors},
            frozen={f(v) for v in self.frozen},
        )

    def same_arrows(self, other: "WindowedQuiver") -> bool:
        return self.vertices == other.vertices and self.arrows == other.arrows


def _make(
    base: WindowedQuiver,
    *,
    vertices: Iterable[Vertex] | None = None,
    arrows: Mapping[Arrow, int] | None = None,
    colors: Mapping[Vertex, str] | None = None,
    frozen: Iterable[Vertex] | None = None,
) -> WindowedQuiver:
    verts = frozenset(vertices) if vertices is not None else base.vertices
    arr = dict(base.arrows) if arrows is None else dict(arrows)
    col = dict(base.colors) if colors is None else dict(colors)
    frz = frozenset(frozen) if frozen is not None else base.frozen
    arr = {k: m for k, m in arr.items() if m > 0 and k[0] in verts and k[1] in verts}
    for a, b in arr:
        if a == b:
            raise ValueError(f"loop at {a}")
        if (b, a) in arr:
            raise ValueError(f"2-cycle between {a} and {b}")
    col = {v: c for v, c in col.items() if v in verts and c != BLACK}
    return replace(
        base,
        vertices=verts,
        arrows=tuple(sorted(arr.items())),
        colors=tuple(sorted(col.items())),
        frozen=frz & verts,
    )


class _WorkingQuiver:
    """The mutable form of a quiver that every surgery edits in place.

    ``out[a][b]`` and ``inn[b][a]`` both hold the multiplicity of the arrow
    a -> b, and every vertex has an entry, possibly empty, in both maps.
    ``colors`` holds the non-black colors.  The root system, window,
    parity, margin and frozen set come from ``base`` and no surgery
    changes them.  :meth:`freeze` builds the frozen quiver through
    :func:`_make`, which sorts, drops what left the window and checks the
    no-2-cycle invariant.
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
        arrows = {(a, b): m for a, outs in self.out.items() for b, m in outs.items()}
        return _make(
            self.base, vertices=self.vertices, arrows=arrows, colors=self.colors
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

    def _add_vertex(self, v: Vertex) -> None:
        self.vertices.add(v)
        self.out.setdefault(v, {})
        self.inn.setdefault(v, {})

    def _drop_vertex(self, v: Vertex) -> None:
        for b in self.out.pop(v):
            del self.inn[b][v]
        for a in self.inn.pop(v):
            del self.out[a][v]
        self.vertices.discard(v)
        self.colors.pop(v, None)

    # -- surgeries ----------------------------------------------------------

    def insert_reflection(self, v: Vertex) -> None:
        """Create a red/green pair at ``v`` by the four-step vertical surgery."""
        q = self.base
        i, r = v
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in window")
        color = self.colors.get(v, BLACK)
        if color != BLACK:
            raise ValueError(f"vertex {v} already colored {color}")
        if r - q.rmin <= q.margin:
            raise MarginError(f"insertion at {v} too close to window bottom")

        below = (i, r - 2)
        # (iv) move the column below v down by 2, bottom up so each target id
        # is already free; a vertex whose new id leaves the window is dropped
        for h in range(q.rmin + (r - q.rmin) % 2, r - 1, 2):
            u = (i, h)
            if u not in self.vertices:
                continue
            w = (i, h - 2)
            if h - 2 >= q.rmin:
                self._add_vertex(w)
                for b, m in self.out[u].items():
                    self._set(w, b, m)
                for a, m in self.inn[u].items():
                    self._set(a, w, m)
                if u in self.colors:
                    self.colors[w] = self.colors[u]
            self._drop_vertex(u)

        # (i)+(ii) split the vertical arrow into red -> green <- lower column
        old_below = (i, r - 4)  # the former (i, r-2), moved down by 2
        self._add_vertex(below)
        if old_below in self.vertices:
            self._set(old_below, v, 0)
            self._set(old_below, below, 1)
        self._set(v, below, 1)

        # (iii) reroute oblique arrows leaving v so they leave the new vertex
        for b, m in list(self.out[v].items()):
            if b[0] != i:
                self._set(v, b, 0)
                self._add(below, b, m)

        self.colors[v] = RED
        self.colors[below] = GREEN

    def mutate(self, v: Vertex) -> None:
        """Standard quiver mutation at a non-frozen vertex inside the margin."""
        q = self.base
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in window")
        if v in q.frozen:
            raise ValueError(f"vertex {v} is frozen")
        if not (q.rmin + q.margin < v[1] < q.rmax - q.margin):
            raise MarginError(f"mutation at {v} violates the window margin")

        ins = list(self.inn[v].items())
        outs = list(self.out[v].items())
        # compose paths through v
        for a, ma in ins:
            for b, mb in outs:
                self._add(a, b, ma * mb)
        # reverse arrows at v
        for a, m in ins:
            self._set(a, v, 0)
            self._add(v, a, m)
        for b, m in outs:
            self._set(v, b, 0)
            self._add(b, v, m)
        # cancel 2-cycles: the input had none, so only a composed pair
        # a -> b can now face an arrow b -> a
        for a, _ in ins:
            for b, _ in outs:
                k = min(self.out[a].get(b, 0), self.out[b].get(a, 0))
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


def basic_quiver(
    rs: RootSystem,
    rmin: int,
    rmax: int,
    parity: Sequence[int] | None = None,
    margin: int = 2,
) -> WindowedQuiver:
    """Window of the basic quiver: arrows (i,r) -> (j, r + c_ij)."""
    if rmin >= rmax:
        raise ValueError("empty window: need rmin < rmax")
    par = tuple(parity) if parity is not None else rs.bipartition_class()
    vertices = {
        (i, r)
        for i in range(1, rs.n + 1)
        for r in range(rmin, rmax + 1)
        if (r - par[i - 1]) % 2 == 0
    }
    arrows: dict[Arrow, int] = {}
    for i, r in vertices:
        for j in range(1, rs.n + 1):
            cij = rs.cartan[i - 1][j - 1]
            if cij == 0 and i != j:
                continue
            s = r + cij
            if (j, s) in vertices:
                arrows[((i, r), (j, s))] = 1
    proto = WindowedQuiver(
        rs, rmin, rmax, par, frozenset(), (), (), frozenset(), margin
    )
    return _make(proto, vertices=vertices, arrows=arrows, colors={})


def insert_reflection(q: WindowedQuiver, v: Vertex) -> WindowedQuiver:
    """Create a red/green pair at ``v`` by the four-step vertical surgery."""
    work = _WorkingQuiver(q)
    work.insert_reflection(v)
    return work.freeze()


def build_seed_quiver(
    rs: RootSystem,
    word: Sequence[int],
    heights: Sequence[int],
    rmin: int | None = None,
    rmax: int | None = None,
    parity: Sequence[int] | None = None,
    margin: int = 2,
) -> WindowedQuiver:
    """Initial-seed quiver for a reduced word, inserting top-down.

    ``heights[t]`` is the label of the t-th red vertex in the finished
    quiver; since the construction descends, it is also the literal
    insertion coordinate at step t.
    """
    from .rootsys import is_reduced

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
    work = _WorkingQuiver(basic_quiver(rs, rmin, rmax, parity=parity, margin=margin))
    for i, r in zip(word, heights):
        work.insert_reflection((i, r))
    return work.freeze()


def mutate_quiver(q: WindowedQuiver, v: Vertex) -> WindowedQuiver:
    """Standard quiver mutation at a non-frozen vertex inside the margin."""
    work = _WorkingQuiver(q)
    work.mutate(v)
    return work.freeze()


def recolor_from_arrows(q: WindowedQuiver) -> WindowedQuiver:
    """Recompute red/green from vertical down-arrows (i,r) -> (i,r-2)."""
    work = _WorkingQuiver(q)
    work.recolor()
    return work.freeze()


# ---------------------------------------------------------------------------
# Coxeter quivers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoxeterWindow:
    """The Coxeter-element quiver on a window, plus its finite core."""

    quiver: WindowedQuiver
    datum: CoxeterDatum
    gamma: WindowedQuiver  # finite core with 2n frozen vertices

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
    rs: RootSystem,
    orientation: Sequence | CoxeterDatum,
    depth_below: int = 8,
    margin: int = 2,
) -> CoxeterWindow:
    """Coxeter quiver with highest red vertex at height 0.

    The reflection pattern is processed top-down by the heights
    ``-l(i) - 2k`` for ``k < m_i``.  Each insertion moves the column below it
    down by 2, so the k-th red of column i is inserted directly at its final
    height ``-l(i) - 4k``.  ``depth_below`` is how far the window extends
    below the band; its top is at height 2.  The finite core is the
    restriction of the quiver to the band and the rim above it.
    """
    if isinstance(orientation, CoxeterDatum):
        datum = orientation
    else:
        datum = coxeter_data(rs, orientation)
    band_bottom = min(
        -datum.l_of(i) - 4 * (datum.m_of(i) - 1) - 2 for i in range(1, rs.n + 1)
    )
    rmin = band_bottom - depth_below
    work = _WorkingQuiver(
        basic_quiver(rs, rmin, 2, parity=datum.parity(), margin=margin)
    )
    # top-down by the pattern heights -l(i) - 2k; the k insertions above
    # the k-th pattern vertex of column i have moved it down to -l(i) - 4k
    points = sorted(
        ((i, k) for i in range(1, rs.n + 1) for k in range(datum.m_of(i))),
        key=lambda p: (datum.l_of(p[0]) + 2 * p[1], p[0]),
    )
    for i, k in points:
        work.insert_reflection((i, -datum.l_of(i) - 4 * k))
    q = work.freeze()

    # finite core: the band plus the vertex immediately above each highest
    # red; frozen boundary = that top rim and the lowest green of each column
    core: set[Vertex] = set()
    frozen: set[Vertex] = set()
    for i in range(1, rs.n + 1):
        top, bottom = -datum.l_of(i) + 2, -datum.l_of(i) - 4 * datum.m_of(i) + 2
        core.update((i, h) for h in range(bottom, top + 1, 2))
        frozen |= {(i, top), (i, bottom)}
    gamma = _make(replace(q, margin=0), vertices=core, frozen=frozen)
    return CoxeterWindow(q, datum, gamma)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


def quiver_to_json(q: WindowedQuiver) -> str:
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


def quiver_from_json(text: str) -> WindowedQuiver:
    data = json.loads(text)
    rs = RootSystem.from_name(data["type"])
    rmin, rmax = data["window"]
    proto = WindowedQuiver(
        rs,
        rmin,
        rmax,
        tuple(data["parity"]),
        frozenset(),
        (),
        (),
        frozenset(),
        data.get("margin", 2),
    )
    vertices = {tuple(v) for v in data["vertices"]}
    arrows = {
        ((a[0], a[1]), (a[2], a[3])): a[4] for a in (tuple(x) for x in data["arrows"])
    }
    colors = {}
    for key, c in data["colors"].items():
        i, r = key.split(",")
        colors[(int(i), int(r))] = c
    return _make(
        proto,
        vertices=vertices,
        arrows=arrows,
        colors=colors,
        frozen={tuple(v) for v in data["frozen"]},
    )
