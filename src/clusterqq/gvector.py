"""Stabilized g-vectors of the standard initial seeds.

Three independent computations of the stabilized g-vectors of a Coxeter
quiver are provided:

* :func:`blocks_gvectors` — per-slice block matrices: the g-vectors of the
  vertices in slice ``m`` are the columns of a product of elementary slice
  matrices ``T_{-1} T_{-2} ... T_m`` (identity above the band, minus the
  twisted permutation below it).
* :func:`knit_gvectors` — the knitting recursion down the window: unit
  vectors on top slices, then a degree shift along vertical up-arrows and
  an alternating sum along the red-over-green down-arrows.
* :func:`braid_gvectors` — the braid-group action ``θ_i`` on the free
  module over vertices, evaluated along the green word.  The composite
  ``Θ_t = θ_{w_0} ∘ ⋯ ∘ θ_{w_t}`` of a prefix commutes with degree shift,
  so it is held as one column per node, the image of that node's unit
  vector at its red top; letter ``w_t = i`` replaces column ``i`` by
  ``θ_i``'s formula read through ``Θ_{t-1}``.

All three must agree; they are exposed separately so they can certify one
another.

Every slice, block and limit matrix is a range product ``T_top ⋯ T_bottom``
of slice matrices.  ``T_j`` is the identity outside the green band
``h_c ≤ j ≤ -1`` (``CoxeterDatum.h_c`` is the lowest slice with a green
vertex), so a range is first clamped to the band; the clamped products
are memoized per ``(datum, top, bottom)`` in a bounded LRU cache.  Each
entry is built from the one a slice shorter by the column operations of
``rootsys._times_word``, one per generator ``t_i`` of the slice.
Repeated green sweeps and limit blocks then share their prefixes instead
of rebuilding them.

:func:`sweep_gvectors` gives the g-vectors after k green sweeps for every
k up to a bound in one walk over k.  Slice m after k sweeps reads the
block ``T_{m+k-1} ⋯ T_m``; once clamped, that range is the same for most
consecutive k (the identity above and below the band, the limit block
once m + k > 0), so each slice keeps its last clamped range with its
g-vectors and rebuilds them only when the range changes.

:func:`f_labels` names the Q-variable (word, i, r) of every window
vertex from one :func:`braid_gvectors` table.  The word of a vertex in
slice m is the green word down to slice m; since its letters after node
i's last green fix e_(i, ·), the composite's image of e_(i, red_top(i))
is that green's braid column, read before its own degree shift.

A g-vector is a plain dict of its non-zero coefficients keyed by window
vertex; the only operation with a name is the degree shift
:func:`shifted`.  Tables may share dicts (consecutive
:func:`sweep_gvectors` tables do), so no dict in a table is ever edited
in place: a change builds a new dict.  Printers sort a g-vector's items
when they print it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

from .quiver import CoxeterWindow, Vertex, WindowedQuiver
from .rootsys import CoxeterDatum, Matrix, _identity, _times_word


def shifted(g: dict[Vertex, int], s: int) -> dict[Vertex, int]:
    """Degree shift [s]: a new g-vector with each basis vertex (i, r) moved
    to (i, r + 2s)."""
    return {(i, r + 2 * s): c for (i, r), c in g.items()}


# ---------------------------------------------------------------------------
# slice matrices and block products
# ---------------------------------------------------------------------------


def green_slice_nodes(datum: CoxeterDatum, m: int) -> list[int]:
    """Nodes whose column has a green vertex in slice m.

    Column i has its greens at slices −l_i − 1 − 2k for 0 ≤ k < m_i, so
    node i is green in slice m iff d = −m − 1 − l_i is even with
    0 ≤ d < 2·m_i.
    """
    return [
        i
        for i, (l, mi) in enumerate(zip(datum.l, datum.m), 1)
        if (d := -m - 1 - l) % 2 == 0 and 0 <= d < 2 * mi
    ]


def block_matrix(datum: CoxeterDatum, k: int, m: int) -> Matrix:
    """Slice-m block after k green sweeps: T_{m+k-1} ... T_m."""
    if k < 0:
        raise ValueError("sweep count must be nonnegative")
    return _band_product(datum, m + k - 1, m)


def stable_block(datum: CoxeterDatum, m: int) -> Matrix:
    """Limit slice-m block: Id for m >= 0, else T_{-1} ... T_m."""
    return _band_product(datum, -1, m)


def _band_range(datum: CoxeterDatum, top: int, bottom: int) -> tuple[int, int] | None:
    """The range top..bottom clamped to the band, None when it is empty."""
    top, bottom = min(top, -1), max(bottom, datum.h_c)
    return None if top < bottom else (top, bottom)


def _band_product(datum: CoxeterDatum, top: int, bottom: int) -> Matrix:
    """T_top ... T_bottom, the identity for an empty range."""
    band = _band_range(datum, top, bottom)
    return _identity(datum.rs.n) if band is None else _band_memo(datum, *band)


# bounded, since every Coxeter datum adds its own entries; the band is at
# most about h slices deep, so one datum needs a few hundred at most
@lru_cache(maxsize=1 << 12)
def _band_memo(datum: CoxeterDatum, top: int, bottom: int) -> Matrix:
    rs = datum.rs
    shorter = _band_memo(datum, top, bottom + 1) if top > bottom else _identity(rs.n)
    # right-multiply by the slice's t_i in order
    return _times_word(rs, shorter, green_slice_nodes(datum, bottom))


def _block_to_gvecs(
    datum: CoxeterDatum, m: int, block: Matrix
) -> dict[Vertex, dict[Vertex, int]]:
    """Vertex (i, l(i) + 2m) of slice m gets column i of ``block``, its
    zero entries skipped."""
    row = [(j, l + 2 * m) for j, l in enumerate(datum.l, 1)]
    return {
        v: {u: c for u, c in zip(row, column) if c}
        for v, column in zip(row, zip(*block))
    }


def blocks_gvectors(cw: CoxeterWindow) -> dict[Vertex, dict[Vertex, int]]:
    """Stabilized g-vector of every window vertex from the block limits."""
    out: dict[Vertex, dict[Vertex, int]] = {}
    for m in cw.slice_range():
        block = stable_block(cw.datum, m)
        for v, g in _block_to_gvecs(cw.datum, m, block).items():
            if v in cw.quiver.vertices:
                out[v] = g
    return out


def sweep_gvectors(
    cw: CoxeterWindow, sweeps: int
) -> list[dict[Vertex, dict[Vertex, int]]]:
    """g-vectors of every window vertex after k green sweeps, k = 0..sweeps.

    Entry k gives slice m the columns of ``block_matrix(datum, k, m)``.
    One walk over k keeps, per slice, the clamped range of its last block
    (None for the identity) and the window's g-vectors of that block; they
    are rebuilt only when the range changes, so consecutive entries share
    their g-vector dicts.
    """
    if sweeps < 0:
        raise ValueError("sweep count must be nonnegative")
    datum, vertices, slices = cw.datum, cw.quiver.vertices, cw.slice_range()
    held: dict[int, tuple[tuple[int, int] | None, dict]] = {}
    out: list[dict[Vertex, dict[Vertex, int]]] = []
    for k in range(sweeps + 1):
        table: dict[Vertex, dict[Vertex, int]] = {}
        for m in slices:
            band = _band_range(datum, m + k - 1, m)
            if m not in held or held[m][0] != band:
                block = block_matrix(datum, k, m)
                columns = _block_to_gvecs(datum, m, block).items()
                held[m] = band, {v: g for v, g in columns if v in vertices}
            table.update(held[m][1])
        out.append(table)
    return out


# ---------------------------------------------------------------------------
# knitting
# ---------------------------------------------------------------------------


def knit_gvectors(q: WindowedQuiver) -> dict[Vertex, dict[Vertex, int]]:
    """Top-down knitting recursion on a Coxeter quiver window.

    Vertices whose column has no vertex above them get unit vectors; the
    window top must lie above every red vertex for this to be exact.  One
    scan, height descending, reads what each vertex depends on; each value
    is then computed once, in dependency order: a green's Σ m·g(w) −
    shift(above) is summed in one dict, its zero entries dropped.
    """
    vertices = q.vertices
    order = sorted(vertices, key=lambda u: -u[1])
    # what a vertex reads: nothing (a unit vector), the vertex above (a
    # shift), or the vertex above and its own out-arrows (an alternating sum)
    reads: dict[Vertex, tuple[Vertex | None, dict[Vertex, int] | None]] = {}
    waiting: dict[Vertex, int] = {}
    users: dict[Vertex, list[Vertex]] = {}
    for v in order:
        i, r = v
        above = (i, r + 2)
        if above not in vertices:
            reads[v] = None, None
        elif q.mult(v, above):
            reads[v] = above, None
        elif q.mult(above, v):
            reads[v] = above, q.out.get(v, {})
        else:
            raise ValueError(f"no vertical arrow between {v} and {above}")
        src, outs = reads[v]
        needs = [] if src is None else [src, *(outs or ())]
        waiting[v] = len(needs)
        for w in needs:
            users.setdefault(w, []).append(v)
    out: dict[Vertex, dict[Vertex, int]] = {}
    ready = [v for v in order if not waiting[v]]
    for v in ready:  # grows as vertices become computable
        above, outs = reads[v]
        if above is None:
            out[v] = {v: 1}
        elif outs is None:
            out[v] = shifted(out[above], -1)
        else:
            acc = {}
            for w, mlt in outs.items():
                for u, c in out[w].items():
                    acc[u] = acc.get(u, 0) + mlt * c
            for u, c in shifted(out[above], -1).items():
                acc[u] = acc.get(u, 0) - c
            out[v] = {u: c for u, c in acc.items() if c}
        for u in users.get(v, ()):
            waiting[u] -= 1
            if not waiting[u]:
                ready.append(u)
    if len(out) < len(order):
        cyclic = [v for v in order if v not in out]
        raise ValueError(f"cyclic dependencies at {cyclic}")
    return out


def mesh_pairs(q: WindowedQuiver) -> list[Vertex]:
    """Green vertices (i,l) such that (i,l-4) is also green."""
    greens = set(q.greens())
    return sorted(v for v in greens if (v[0], v[1] - 4) in greens)


def mesh_check(
    q: WindowedQuiver, g: dict[Vertex, dict[Vertex, int]], v: Vertex
) -> bool:
    """Translated almost-split relation at a green vertex v with a green
    vertex one step further down the same column: lhs − rhs sums to 0."""
    i, l = v
    acc = dict(g[(i, l - 4)])
    for u, c in shifted(g[v], -2).items():
        acc[u] = acc.get(u, 0) + c
    for (w, mlt) in q.arrows_out(v):
        for u, c in shifted(g[(w[0], w[1] - 2)], -1).items():
            acc[u] = acc.get(u, 0) - mlt * c
    return not any(acc.values())


# ---------------------------------------------------------------------------
# braid-group action
# ---------------------------------------------------------------------------


def braid_gvectors(cw: CoxeterWindow) -> dict[Vertex, dict[Vertex, int]]:
    """Stabilized g-vectors of the green vertices via the braid action."""
    rs = cw.datum.rs
    # col[j] = Θ_t(e_(j, red_top(j))); by shift equivariance it fixes Θ_t
    col = {j: {(j, cw.red_top(j)): 1} for j in range(1, rs.n + 1)}
    out: dict[Vertex, dict[Vertex, int]] = {}
    seen: dict[int, int] = {}
    for i, a in cw.green_sequence():
        # Θ_t(e_(i,b)) = Θ_{t-1}(θ_i e_(i,b)) = -Θ_{t-1}(e_(i,b-2))
        # + Σ_{k~i} Θ_{t-1}(e_(k,b-1)), at b = red_top(i)
        b = cw.red_top(i)
        acc = {v: -c for v, c in shifted(col[i], -1).items()}
        for k in rs.neighbors(i):
            for v, c in shifted(col[k], (b - 1 - cw.red_top(k)) // 2).items():
                acc[v] = acc.get(v, 0) + c
        col[i] = {v: c for v, c in acc.items() if c}
        s_t = seen.get(i, 0)
        out[(i, a)] = shifted(col[i], -s_t)
        seen[i] = s_t + 1
    return out


def f_labels(
    cw: CoxeterWindow, gvectors: dict[Vertex, dict[Vertex, int]]
) -> dict[Vertex, tuple[tuple[int, ...], int, int]]:
    """Word, node and spectral exponent of the Q-variable of each window
    vertex, read off one braid table.

    Vertex (i, r) of slice m gets the word of the greens in slices ≥ m and
    the image of e_(i, red_top(i)) under that word's composite: the braid
    entry of node i's last such green, its k-th, shifted back by k − 1, or
    the unit itself when node i has none.  Its exponent is red_top(i) + 2s
    for the shift s that takes this column onto ``gvectors[v]``; a vertex
    whose column shifts onto no g-vector of its own is left out.
    """
    braid = braid_gvectors(cw)
    greens = cw.green_sequence()
    col = {i: {(i, cw.red_top(i)): 1} for i in range(1, cw.datum.rs.n + 1)}
    seen: dict[int, int] = {}
    t = 0
    out: dict[Vertex, tuple[tuple[int, ...], int, int]] = {}
    by_slice = sorted(cw.quiver.vertices, key=cw.slice_index, reverse=True)
    for m, vertices in groupby(by_slice, key=cw.slice_index):
        while t < len(greens) and cw.slice_index(greens[t]) >= m:
            j = greens[t][0]
            col[j] = shifted(braid[greens[t]], seen.get(j, 0))
            seen[j] = seen.get(j, 0) + 1
            t += 1
        word = tuple(j for j, _ in greens[:t])
        for v in vertices:
            i, target = v[0], gvectors[v]
            # a shift keeps the order of basis vertices: least onto least
            s = (min(target)[1] - min(col[i])[1]) // 2
            if shifted(col[i], s) == target:
                out[v] = word, i, cw.red_top(i) + 2 * s
    return out
