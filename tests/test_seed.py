"""Seed mutation, reference mutation, green sweeps, c-vector signs."""

import itertools
import math
import random
import re
from dataclasses import replace
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq import seed as seed_mod
from clusterqq.gvector import knit_gvectors, sweep_gvectors
from clusterqq.qseries import KSeries
from clusterqq.quiver import (
    MarginError,
    _WorkingQuiver,
    basic_quiver,
    build_coxeter_quiver,
    mutate_quiver,
)
from clusterqq.rootsys import coxeter_data
from clusterqq.seed import (
    Seed,
    SignError,
    _power,
    cvector,
    cvector_sign,
    dual_cvectors,
    green_sweep,
    initial_seed,
    mutate_seed,
)
from oracles import (
    ALL_TYPES,
    combo,
    default_window,
    e,
    mutate_reference,
    reds,
    relabeled,
    rs,
    same_arrows,
    snapshot,
    y_monomial,
)


WORDS = {
    "A1": (1,),
    "A2": (1, 2),
    "A3": (1, 2, 3),
    "D4": (1, 3, 4, 2),
}


def window(name, depth=10):
    return build_coxeter_quiver(coxeter_data(rs(name), WORDS[name]), depth_below=depth)


# ---------------------------------------------------------------------------
# reference mutation: rank-one sweeps
# ---------------------------------------------------------------------------


class TestRankOneSweeps:
    def test_first_four_sweeps(self):
        cw = window("A1", depth=14)
        seed = initial_seed(cw, stabilized=False)
        for m in range(1, 5):
            green_sweep(seed)
            for v, g in seed.g.items():
                expect = {v: -1 if -2 * m <= v[1] <= -2 else 1}
                assert g == expect, (m, v)

    def test_each_sweep_adds_one_tag(self):
        seed = initial_seed(window("A1", depth=14), stabilized=False)
        for k in range(1, 7):
            green_sweep(seed)
            assert seed.ref_tag.count("+sweep") == k

    def test_sweep_recolors_one_step_down(self):
        cw = window("A1", depth=14)
        seed = initial_seed(cw, stabilized=False)
        green_sweep(seed)
        ref = seed.ref.freeze()
        assert reds(ref) == [(1, -2)]
        assert ref.greens() == [(1, -4)]


# ---------------------------------------------------------------------------
# reference mutation: rank-two sweep panels
# ---------------------------------------------------------------------------

A2_PANELS = {
    1: {
        (1, -2): [(-1, (1, -2)), (1, (2, -1))],
        (2, -3): [(-1, (2, -3)), (1, (1, -4))],
        (1, -4): [(1, (1, -4))],
        (1, -6): [(-1, (1, -6)), (1, (2, -5))],
        (2, -5): [(1, (2, -5))],
        (1, -8): [(1, (1, -8))],
        (2, -7): [(1, (2, -7))],
        (1, -10): [(1, (1, -10))],
    },
    2: {
        (1, -2): [(-1, (1, -2)), (1, (2, -1))],
        (2, -3): [(-1, (1, -4))],
        (1, -4): [(-1, (1, -4)), (1, (2, -3))],
        (1, -6): [(-1, (2, -5))],
        (2, -5): [(-1, (2, -5)), (1, (1, -6))],
        (1, -8): [(-1, (1, -8)), (1, (2, -7))],
        (2, -7): [(1, (2, -7))],
        (1, -10): [(1, (1, -10))],
    },
    3: {
        (1, -2): [(-1, (1, -2)), (1, (2, -1))],
        (2, -3): [(-1, (1, -4))],
        (1, -4): [(-1, (1, -4)), (1, (2, -3))],
        (1, -6): [(-1, (2, -5))],
        (2, -5): [(-1, (1, -6))],
        (1, -8): [(-1, (2, -7))],
        (2, -7): [(-1, (2, -7)), (1, (1, -8))],
        (1, -10): [(-1, (1, -10)), (1, (2, -9))],
    },
}


@pytest.fixture(scope="module")
def sweeps():
    cw = window("A2", depth=12)
    seeds = {}
    seed = initial_seed(cw, stabilized=False)
    for m in range(1, 5):
        green_sweep(seed)
        seeds[m] = snapshot(seed)
    return cw, seeds


class TestRankTwoSweeps:

    def test_panels(self, sweeps):
        _, seeds = sweeps
        for m, panel in A2_PANELS.items():
            gmap = dict(seeds[m].g)
            for v, terms in panel.items():
                assert gmap[v] == e(*terms), (m, v)
            # everything above the band keeps its unit vector
            for v in gmap:
                if v[1] >= 0:
                    assert gmap[v] == {v: 1}, (m, v)

    def test_matches_block_sweeps(self, sweeps):
        cw, seeds = sweeps
        tables = sweep_gvectors(cw, 4)
        for m in range(1, 5):
            blocks = tables[m]
            for v, g in seeds[m].g:
                assert g == blocks[v], (m, v)

    def test_reference_translates_down(self, sweeps):
        cw, seeds = sweeps
        q0 = cw.quiver
        q1 = seeds[1].ref_quiver
        moved = relabeled(q0, {v: (v[0], v[1] - 2) for v in q0.vertices})
        inner = {v for v in q1.vertices if q1.rmin + 2 <= v[1] <= q1.rmax - 2}
        a = {ab for ab, _ in moved.arrows if set(ab) <= inner}
        b = {ab for ab, _ in q1.arrows if set(ab) <= inner}
        assert a == b
        assert set(reds(q1)) == {(v[0], v[1] - 2) for v in reds(q0)}

    def test_sweep_order_irrelevant(self):
        cw = window("A2")
        greens = cw.quiver.greens()  # the reference of the unstabilized seed
        results = []
        for perm in itertools.permutations(greens):
            seed = initial_seed(cw, stabilized=False)
            for l in perm:
                mutate_reference(seed, l)
            state = snapshot(seed)
            results.append((state.g, state.ref_quiver.arrows))
        assert all(r == results[0] for r in results)

    def test_convergence_to_stabilized(self):
        cw = window("A2", depth=14)
        stable = knit_gvectors(cw.quiver)
        seed = initial_seed(cw, stabilized=False)
        for _ in range(4):
            green_sweep(seed)
        for v, g in seed.g.items():
            if v[1] >= -8:  # slices that have already stabilized
                assert g == stable[v], v


# ---------------------------------------------------------------------------
# c-vectors
# ---------------------------------------------------------------------------


def safe_vertices(cw):
    q = cw.quiver
    return [v for v in q.vertices if q.rmin + 4 <= v[1] <= q.rmax - 4]


class TestCVectors:
    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_initial_cvectors_match_slice_duality(self, name):
        cw = window(name)
        seed = initial_seed(cw)
        dual = dual_cvectors(cw)
        for v in safe_vertices(cw):
            assert cvector(seed, v) == dual[v], v

    @pytest.mark.parametrize("name", ["A2", "A3", "D4"])
    def test_initial_signs_coherent(self, name):
        cw = window(name)
        seed = initial_seed(cw)
        for v in safe_vertices(cw):
            assert cvector_sign(seed, v) in (-1, 1)

    def test_block_of_determinant_two_raises(self, monkeypatch):
        # outside the Weyl group det·adj is no inverse; the refusal is a
        # check that python -O keeps
        block = lambda datum, m: ((2, 0), (0, 1))
        monkeypatch.setattr(seed_mod, "stable_block", block)
        with pytest.raises(ValueError, match="g-block has determinant 2, not ±1"):
            dual_cvectors(window("A2"))

    def test_a2_explicit_cvectors(self):
        cw = window("A2")
        seed = initial_seed(cw)
        assert cvector(seed, (1, -2)) == e((-1, (1, -2)))
        assert cvector(seed, (2, -1)) == e((1, (1, -2)), (1, (2, -1)))
        assert cvector(seed, (1, -4)) == e((1, (2, -3)))
        assert cvector(seed, (2, -3)) == e((-1, (1, -4)), (-1, (2, -3)))
        assert cvector(seed, (1, -6)) == e((-1, (2, -5)))
        assert cvector(seed, (2, -5)) == e((-1, (1, -6)))

    # no node 9, node 1 at an odd height, and a height below the window
    @pytest.mark.parametrize("v", [(9, 9), (1, 1), (1, -40)])
    def test_vertex_outside_the_window_raises(self, v):
        seed = initial_seed(default_window("A3"))
        message = re.escape(f"vertex {v} not in window")
        with pytest.raises(ValueError, match=message):
            cvector(seed, v)
        with pytest.raises(ValueError, match=message):
            cvector_sign(seed, v)
        # refused before the exchange data is read: nothing thawed
        assert not {"quiver", "ref", "columns"} & set(vars(seed))
        assert snapshot(seed) == snapshot(initial_seed(default_window("A3")))

    def test_sign_errors_on_the_default_e6_window(self):
        # two window artifacts near the bottom (deeper windows give
        # sign-coherent c-vectors): zero at one vertex, of both signs at
        # another; seed mutation refuses both on the margin first
        seed = initial_seed(default_window("E6"))
        with pytest.raises(SignError, match=re.escape("zero c-vector at (6, -38)")):
            cvector_sign(seed, (6, -38))
        message = (
            "c-vector at (3, -37) is not sign-coherent:"
            " {(5, -35): -1, (6, -38): 1}"
        )
        with pytest.raises(SignError, match=re.escape(message)):
            cvector_sign(seed, (3, -37))


def arrows_in(q, v):
    return [(a, m) for (a, b), m in q.arrows if b == v]


def oracle_exchange_lhs(seed, k):
    """The exchange combination at k of a snapshot, one g-vector lookup
    per arrow."""
    g = dict(seed.g)
    return combo(
        *((m, g[v]) for v, m in arrows_in(seed.quiver, k)),
        *((-m, g[v]) for v, m in seed.quiver.arrows_out(k)),
    )


def oracle_cvector(seed, k):
    """The top-down substitution, re-reading each column's span per row."""
    ref = seed.ref_quiver
    lhs = oracle_exchange_lhs(seed, k)
    cols = {}
    for (i, r) in ref.vertices:
        cols.setdefault(i, []).append(r)
    top = max(max(h) for h in cols.values())
    bot = min(min(h) for h in cols.values())
    c = {}
    for r in range(top + 5, bot - 1, -1):
        for i in sorted(cols):
            if (r - max(cols[i])) % 2:
                continue
            val = c.get((i, r + 2), 0)
            for j in ref.rs.neighbors(i):
                val += c.get((j, r - 1), 0) - c.get((j, r + 1), 0)
            val -= lhs.get((i, r), 0)
            if r - 2 >= min(cols[i]):
                c[(i, r - 2)] = val
            elif val:
                raise MarginError(
                    f"c-vector support reaches the window bottom in column {i}"
                )
    for (i, r), x in list(c.items()):
        if r > max(cols[i]):
            if x:
                raise MarginError(
                    f"c-vector support reaches the window top at {(i, r)}"
                )
            del c[(i, r)]
    return {v: x for v, x in c.items() if x}


def cvector_outcome(fn, seed, k):
    try:
        return fn(seed, k)
    except MarginError as exc:
        return (type(exc), str(exc))


# Green vertices of the E6 window for the Coxeter word 1..6, as (column,
# top height, count), heights stepping down by 4
E6_GREENS = ((1, -2, 8), (2, -3, 6), (3, -3, 7), (4, -4, 6), (5, -5, 5), (6, -6, 4))


class TestCVectorOracle:
    def test_e6_green_walk(self):
        r = rs("E6")
        cw = build_coxeter_quiver(coxeter_data(r, tuple(range(1, 7))))
        greens = [(i, top - 4 * k) for i, top, n in E6_GREENS for k in range(n)]
        random.Random(6).shuffle(greens)
        seed = initial_seed(cw)
        for v in greens:
            assert cvector(seed, v) == oracle_cvector(snapshot(seed), v), v
            mutate_seed(seed, v)
        assert len(greens) == 36

    @pytest.mark.parametrize("drop", [4, 8])
    @pytest.mark.parametrize("name", ["A2", "A3"])
    def test_margin_errors_on_a_reference_cut_below_the_top(self, name, drop):
        # a reference whose top is `drop` below the seed's: the g-vectors
        # reach above the reference top, so both margin branches fire at
        # some vertices, and at drop 8 several coefficients lie above
        # the top at once, so the message must name the first
        q = window(name, depth=4).quiver
        ref = basic_quiver(q.rs, q.rmin, q.rmax - drop, parity=q.parity, margin=q.margin)
        cut = Seed(q, ref, knit_gvectors(q), "stabilized")
        state = snapshot(cut)
        kinds = set()
        for v in sorted(q.vertices):
            expected = cvector_outcome(oracle_cvector, state, v)
            assert cvector_outcome(cvector, cut, v) == expected, v
            if isinstance(expected, tuple):
                kinds.add(expected[1].split(" at ")[0].split(" in ")[0])
        assert kinds == {
            "c-vector support reaches the window top",
            "c-vector support reaches the window bottom",
        }


# ---------------------------------------------------------------------------
# seed mutation: the worked three-step example
# ---------------------------------------------------------------------------


# The vertices inside the margin of a default window that the c-vector
# still refuses: its support reaches the window bottom, or (A8's (8, -35))
# it comes out zero, a window artifact (ROADMAP item 22's open half)
INSIDE_REFUSALS = {
    "A6": {(6, -27): "c-vector support reaches the window bottom in column 1"},
    "A7": {
        (6, -31): "c-vector support reaches the window bottom in column 2",
        (7, -30): "c-vector support reaches the window bottom in column 1",
    },
    "A8": {
        (7, -34): "c-vector support reaches the window bottom in column 2",
        (8, -35): "zero c-vector at (8, -35)",
        (8, -33): "c-vector support reaches the window bottom in column 1",
    },
}


class TestSeedMutation:
    def test_three_step_example(self):
        cw = window("A2")
        seed = initial_seed(cw)
        assert mutate_seed(seed, (1, -2)) == -1
        assert seed.g[(1, -2)] == e((1, (1, -2)))

        assert mutate_seed(seed, (1, -4)) == 1
        assert seed.g[(1, -4)] == e((-1, (2, -3)), (1, (1, -2)))

        assert mutate_seed(seed, (2, -3)) == -1
        assert seed.g[(2, -3)] == e((-1, (2, -5)), (1, (1, -4)))

        # unmutated variables keep their stabilized g-vectors
        stable = knit_gvectors(cw.quiver)
        for v, g in seed.g.items():
            if v not in {(1, -2), (1, -4), (2, -3)}:
                assert g == stable[v], v

    def test_mutation_involution(self):
        cw = window("A3")
        seed = initial_seed(cw)
        for v in [(1, -2), (2, -3), (1, -4), (3, -4)]:
            before = snapshot(seed)
            mutate_seed(seed, v)
            mutate_seed(seed, v)
            back = snapshot(seed)
            assert back.g == before.g
            assert same_arrows(back.quiver, before.quiver)

    @pytest.mark.parametrize("v", [(9, 9), (1, 1), (1, -400)])
    def test_vertex_outside_window_is_not_a_sign_failure(self, v):
        # no such node, the wrong parity, far below the window
        seed = initial_seed(window("A3"))
        assert v not in seed.quiver.vertices
        with pytest.raises(ValueError, match="not in window") as exc:
            mutate_seed(seed, v)
        assert not isinstance(exc.value, SignError)

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_only_the_margin_refuses_on_the_default_window(self, name):
        # every vertex outside the margin is refused by the margin, never
        # as a sign failure, and every vertex inside it mutates (and back),
        # except the few of A6-A8 pinned in INSIDE_REFUSALS
        q = default_window(name).quiver
        seed = initial_seed(default_window(name))
        refused = {}
        for v in sorted(q.vertices):
            was = dict(seed.g[v])
            try:
                mutate_seed(seed, v)
            except ValueError as exc:
                refused[v] = str(exc)
                continue
            mutate_seed(seed, v)
            assert seed.g[v] == was, v
        outside = {
            v: f"mutation at {v} violates the window margin"
            for v in q.vertices
            if not q.rmin + q.margin < v[1] < q.rmax - q.margin
        }
        assert not q.frozen
        assert refused == {**outside, **INSIDE_REFUSALS.get(name, {})}

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_sequences_stay_coherent(self, data):
        name = data.draw(st.sampled_from(["A2", "A3"]))
        cw = window(name)
        seed = initial_seed(cw)
        pool = [v for v in safe_vertices(cw) if -8 <= v[1] <= -2]
        for _ in range(data.draw(st.integers(1, 5))):
            v = data.draw(st.sampled_from(pool))
            sign = cvector_sign(seed, v)
            mutated_sign = mutate_seed(seed, v)
            assert sign in (-1, 1) and mutated_sign == sign
        # g-vectors of distinct variables remain distinct
        gs = {tuple(sorted(g.items())) for g in seed.g.values()}
        assert len(gs) == len(seed.g)


# ---------------------------------------------------------------------------
# value transport through exchange relations
# ---------------------------------------------------------------------------


class TestValues:
    def test_fraction_values_involutive(self):
        cw = window("A2")
        seed = initial_seed(cw)
        vals = {
            v: Fraction(3 + ((5 + 7 * i * abs(r)) % 11), 1 + (i + r) % 5 + 4)
            for (i, r) in seed.quiver.vertices
            for v in [(i, r)]
        }
        seed.values = dict(vals)
        mutate_seed(seed, (1, -2))
        assert seed.values[(1, -2)] != vals[(1, -2)]
        mutate_seed(seed, (1, -2))
        assert seed.values == vals

    def test_walk_stops_at_an_empty_exchange_side(self):
        # a seeded walk with unit values on the default A2 window (word 1,2)
        # reaches a vertex whose exchange relation has an empty side
        A2 = rs("A2")
        cw = build_coxeter_quiver(coxeter_data(A2, (1, 2)))
        seed = initial_seed(cw)
        seed.values = dict.fromkeys(cw.quiver.vertices, Fraction(1))
        q = cw.quiver
        pool = sorted(
            v for v in q.vertices - q.frozen
            if q.rmin + q.margin < v[1] < q.rmax - q.margin
        )
        rng = random.Random(0)
        for step in range(40):
            v = rng.choice(pool)
            try:
                mutate_seed(seed, v)
            except ValueError as exc:  # any other error skips the step
                if "in- and out-arrows" in str(exc):
                    break
        else:
            pytest.fail("the walk never reached an empty exchange side")
        assert (step, v) == (13, (1, -6))
        with pytest.raises(ValueError, match=r"^vertex \(1, -6\) must have both"):
            mutate_seed(seed, v)

    def test_integer_values_divide_to_fractions(self):
        # an exchange on integer values stays exact: Fraction(2), not 2.0
        A2 = rs("A2")
        cw = build_coxeter_quiver(coxeter_data(A2, (1, 2)))
        seed = initial_seed(cw)
        seed.values = dict.fromkeys(cw.quiver.vertices, 1)
        mutate_seed(seed, (1, -2))
        value = seed.values[(1, -2)]
        assert type(value) is Fraction and value == 2


# ---------------------------------------------------------------------------
# the seed operations against rebuild-every-step bodies on snapshots
# ---------------------------------------------------------------------------


def oracle_cvector_sign(seed, k):
    if seed.ref_tag != "stabilized":
        raise ValueError("c-vectors are computed against the stabilized reference")
    c = oracle_cvector(seed, k)
    if not c:
        raise SignError(f"zero c-vector at {k}")
    if all(x > 0 for x in c.values()):
        return 1
    if all(x < 0 for x in c.values()):
        return -1
    raise SignError(f"c-vector at {k} is not sign-coherent: {dict(sorted(c.items()))}")


def oracle_divide(num, den):
    if isinstance(den, Rational):
        return Fraction(num, den)
    return num * den.inverse()


def oracle_mutate_seed(seed, k):
    """One mutation of a snapshot, each side of the exchange relation
    folded from m repeated factors per arrow of multiplicity m.  The
    quiver's refusals come before the c-vector."""
    q = seed.quiver
    if k not in q.vertices:
        raise ValueError(f"vertex {k} not in window")
    if k in q.frozen:
        raise ValueError(f"vertex {k} is frozen")
    if not (q.rmin + q.margin < k[1] < q.rmax - q.margin):
        raise MarginError(f"mutation at {k} violates the window margin")
    sign = oracle_cvector_sign(seed, k)
    g = dict(seed.g)
    arrows = arrows_in(seed.quiver, k) if sign > 0 else seed.quiver.arrows_out(k)
    g[k] = combo((-1, g[k]), *((m, g[v]) for v, m in arrows))
    values = None
    if seed.values is not None:
        vals = dict(seed.values)
        sides = []
        for arrows in (arrows_in(seed.quiver, k), seed.quiver.arrows_out(k)):
            factors = [vals[v] for v, m in arrows for _ in range(m)]
            if not factors:
                raise ValueError(f"vertex {k} must have both in- and out-arrows")
            sides.append(math.prod(factors[1:], start=factors[0]))
        vals[k] = oracle_divide(sides[0] + sides[1], vals[k])
        values = tuple(sorted(vals.items()))
    mutated = replace(
        seed,
        quiver=mutate_quiver(seed.quiver, k),
        g=tuple(sorted(g.items())),
        values=values,
    )
    return mutated, sign


def oracle_holders(g):
    out = {}
    for x, gvec in g.items():
        for v in gvec:
            out.setdefault(v, set()).add(x)
    return out


def oracle_transport(ref, g, holders, l):
    """One reference mutation on a working quiver, every holder re-indexed."""
    if l not in ref.vertices:
        raise ValueError(f"vertex {l} not in reference window")
    out_arrows = dict(ref.out[l])
    in_arrows = dict(ref.inn[l])
    ref.mutate(l)
    for x in list(holders.get(l, ())):
        old = g[x]
        comp = dict(old)
        gl = comp[l]
        comp[l] = -gl
        for v, m in (out_arrows if gl >= 0 else in_arrows).items():
            comp[v] = comp.get(v, 0) + m * gl
        g[x] = {v: c for v, c in comp.items() if c}
        for v in old:
            holders[v].discard(x)
        for v in g[x]:
            holders.setdefault(v, set()).add(x)


def oracle_mutate_reference(seed, l):
    ref = _WorkingQuiver(seed.ref_quiver)
    g = dict(seed.g)
    oracle_transport(ref, g, oracle_holders(g), l)
    return replace(
        seed,
        ref_quiver=ref.freeze(),
        g=tuple(sorted(g.items())),
        ref_tag=seed.ref_tag + f"*mu{l}",
    )


def oracle_green_sweep(seed):
    tag = seed.ref_tag
    greens = seed.ref_quiver.greens()
    if not greens:
        raise ValueError("reference quiver has no green vertices")
    ref = _WorkingQuiver(seed.ref_quiver)
    g = dict(seed.g)
    holders = oracle_holders(g)
    for l in greens:
        oracle_transport(ref, g, holders, l)
    ref.recolor()
    return replace(
        seed,
        ref_quiver=ref.freeze(),
        g=tuple(sorted(g.items())),
        ref_tag=tag + "+sweep",
    )


OPERATIONS = {
    "seed": (mutate_seed, oracle_mutate_seed),
    "reference": (mutate_reference, oracle_mutate_reference),
    "sweep": (green_sweep, oracle_green_sweep),
}


def outcome(fn, *args):
    """The result of fn(*args), or the type and message of its error."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", type(exc), str(exc))


def raised(result):
    return isinstance(result, tuple) and result[0] == "raised"


def check_seed_form(seed):
    """Each g-vector is a dict of non-zero coefficients, and the holders
    index, once built, is the one the g-vectors give (a basis vertex that
    no g-vector involves any more keeps an empty set)."""
    for v, comp in seed.g.items():
        assert all(comp.values()), (v, comp)
    if "holders" in vars(seed):
        built = {u: xs for u, xs in seed.holders.items() if xs}
        assert built == oracle_holders(seed.g)


def check_walk(seed, steps):
    """Run the steps two ways and compare them after each one: the
    oracles on snapshots, and the operations on one seed edited in place
    all along.

    A step that raises must raise the same error both ways and leave the
    seed as it was; a green sweep that raises may have moved part of the
    reference, so the walk ends there.  After every step the seed is
    checked by :func:`check_seed_form`.  Returns the numbers of steps that
    completed and that raised.
    """
    state = snapshot(seed)
    done = errors = 0
    for op, v in steps:
        new, old = OPERATIONS[op]
        args = () if v is None else (v,)
        expected = outcome(old, state, *args)
        got = outcome(new, seed, *args)
        check_seed_form(seed)
        if raised(expected):
            errors += 1
            assert got == expected, (op, v)
            if op == "sweep":
                break
            assert snapshot(seed) == state, (op, v)
            continue
        if op == "seed":
            expected, expected_sign = expected
            assert got == expected_sign, v
        else:
            assert got is None
        assert snapshot(seed) == expected, (op, v)
        state = expected
        done += 1
    return done, errors


def seed_steps(rng, cw, count):
    """Seed mutations at any vertex of the window, or one outside it."""
    pool = sorted(cw.quiver.vertices) + [(9, 9)]
    return [("seed", rng.choice(pool)) for _ in range(count)]


def reference_steps(rng, cw, count):
    """Green sweeps and reference mutations at any vertex of the window
    (the reference's too), or one outside it."""
    pool = sorted(cw.quiver.vertices) + [(9, 9)]
    return [
        ("sweep", None) if rng.random() < 0.3 else ("reference", rng.choice(pool))
        for _ in range(count)
    ]


class TestWorkingSeedAgainstOracle:
    @pytest.mark.parametrize("name", ["A3", "D4", "E6"])
    def test_seeded_walks(self, name):
        cw = default_window(name)
        done = errors = 0
        for s in range(60):
            rng = random.Random(f"{name}:{s}")
            if s % 2 == 0:
                # seed mutations; then the reference moves, after which a
                # c-vector is refused
                steps = seed_steps(rng, cw, 12)
                steps += reference_steps(rng, cw, 1)
                steps += seed_steps(rng, cw, 1)
                outcomes = check_walk(initial_seed(cw), steps)
            else:
                steps = reference_steps(rng, cw, 12) + seed_steps(rng, cw, 1)
                outcomes = check_walk(initial_seed(cw, stabilized=False), steps)
            done, errors = done + outcomes[0], errors + outcomes[1]
        assert done > 400 and errors > 100

    @pytest.mark.parametrize("name", ["A2", "A3"])
    def test_fraction_valued_walks(self, name):
        cw = default_window(name)
        for s in range(20):
            rng = random.Random(f"{name}:values:{s}")
            seed = initial_seed(cw)
            seed.values = {
                v: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for v in sorted(cw.quiver.vertices)
            }
            check_walk(seed, seed_steps(rng, cw, 15))

    @pytest.mark.parametrize(
        "name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]
    )
    def test_cvector_at_every_vertex_of_the_default_window(self, name):
        seed = initial_seed(default_window(name))
        state = snapshot(seed)
        for v in sorted(state.quiver.vertices):
            expected = cvector_outcome(oracle_cvector, state, v)
            assert cvector_outcome(cvector, seed, v) == expected, v

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "D4"])
    def test_cvector_of_perturbed_exchange_data(self, name):
        # g-vectors with a few far-apart entries give exchange data whose
        # c-vector has gaps of zero rows or runs off the window; the
        # seed's own g-vectors with a few unit entries added mostly give a
        # vector: the substitution must neither start nor stop early
        state = snapshot(initial_seed(default_window(name)))
        own = dict(state.g)
        basis = sorted(state.ref_quiver.vertices)
        rng = random.Random(name)

        def unit():
            return {rng.choice(basis): rng.choice((-1, 1))}

        kinds = set()
        for draw in range(300):
            if draw % 2:
                g = {v: combo((1, unit()), (1, unit()), (1, unit())) for v in own}
            else:
                g = {
                    v: combo((1, x), (1, unit())) if rng.random() < 0.1 else x
                    for v, x in own.items()
                }
            perturbed = Seed(state.quiver, state.ref_quiver, g, state.ref_tag)
            k = rng.choice(basis)
            expected = cvector_outcome(
                oracle_cvector, replace(state, g=tuple(sorted(g.items()))), k
            )
            assert cvector_outcome(cvector, perturbed, k) == expected, (draw, k)
            kinds.add(expected[1].split(" in ")[0] if isinstance(expected, tuple) else 0)
        assert kinds == {0, "c-vector support reaches the window bottom"}


class TestNoSharedDicts:
    """Every operation edits a seed's g-vector dicts in place, so no two
    seeds, and no two vertices of one seed, may share one."""

    def test_seeds_of_one_window_share_no_dict(self):
        cw = window("D4")
        # seed mutations replace a g-vector; green sweeps edit the holders'
        for stabilized, steps in (
            (True, [(1, -2), (2, -3), (1, -6), (4, -4)]),
            (False, [None] * 4),
        ):
            seed, other = (initial_seed(cw, stabilized) for _ in range(2))
            ids = [id(g) for s in (seed, other) for g in s.g.values()]
            assert len(set(ids)) == 2 * len(cw.quiver.vertices)
            if stabilized:
                for s in (seed, other):
                    s.values = dict.fromkeys(cw.quiver.vertices, Fraction(2))
            was = snapshot(other)
            states = [snapshot(seed)]
            for v in steps:
                if v is None:
                    green_sweep(seed)
                else:
                    mutate_seed(seed, v)
                states.append(snapshot(seed))
            assert snapshot(other) == was
            # every step moved some g-vector
            assert all(a.g != b.g for a, b in zip(states, states[1:]))


class TestPowers:
    def test_square_and_multiply(self):
        for m in range(1, 70):
            assert _power(Fraction(-3, 2), m) == Fraction(-3, 2) ** m

    def test_multiple_arrows_along_a_walk(self):
        # a seeded walk on the mutable vertices of the default A3 window
        # meets exchange relations with arrows of multiplicity 2 up to 82;
        # at each one, Fraction values give the same number and series
        # values a matching series as the fold of repeated factors
        A3 = rs("A3")
        seed = initial_seed(default_window("A3"))
        q = default_window("A3").quiver
        pool = sorted(
            v for v in q.vertices - q.frozen
            if q.rmin + q.margin < v[1] < q.rmax - q.margin
        )
        fractions = {v: Fraction(2 + (3 * v[0] - v[1]) % 5, 3) for v in q.vertices}
        series = {
            (i, r): KSeries.one(A3, -4) + KSeries.monomial(A3, y_monomial(A3, i, r), -4)
            for i, r in q.vertices
        }
        rng = random.Random(0)
        seen = set()
        for _ in range(60):
            k = rng.choice(pool)
            q = seed.quiver
            most = max([*q.inn[k].values(), *q.out[k].values()])
            if most >= 2:
                seen.add(most)
                state = snapshot(seed)
                for values in (fractions, series):
                    got = Seed(
                        state.quiver,
                        state.ref_quiver,
                        {v: dict(comp) for v, comp in state.g},
                        state.ref_tag,
                        dict(values),
                    )
                    mutate_seed(got, k)
                    want, _ = oracle_mutate_seed(
                        replace(state, values=tuple(sorted(values.items()))), k
                    )
                    if values is fractions:
                        assert snapshot(got) == want
                    else:
                        assert got.values[k].matches(dict(want.values)[k])
            mutate_seed(seed, k)
        assert seen == {2, 4, 7, 8, 15, 16, 24, 25, 82}
