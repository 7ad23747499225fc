"""Seed mutation, reference mutation, green sweeps, c-vector signs."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.gvector import GVec, knit_gvectors, sweep_gvectors
from clusterqq.quiver import MarginError, basic_quiver, build_coxeter_quiver
from clusterqq.rootsys import RootSystem, coxeter_data_from_word
from clusterqq.seed import (
    SignError,
    cvector,
    cvector_sign,
    dual_cvectors,
    green_sweep,
    initial_seed,
    mutate_reference,
    mutate_seed,
)


def rs(name):
    return RootSystem.from_name(name)


def e(*vs):
    g = GVec.zero()
    for sign, v in vs:
        g = g + GVec.unit(v).scale(sign)
    return g


ORIENTATIONS = {
    "A1": [],
    "A2": ["2->1"],
    "A3": ["2->1", "3->2"],
    "D4": ["2->1", "2->3", "2->4"],
}


def window(name, depth=10):
    return build_coxeter_quiver(rs(name), ORIENTATIONS[name], depth_below=depth)


# ---------------------------------------------------------------------------
# reference mutation: rank-one sweeps
# ---------------------------------------------------------------------------


class TestRankOneSweeps:
    def test_first_four_sweeps(self):
        cw = window("A1", depth=14)
        seed = initial_seed(cw, stabilized=False)
        for m in range(1, 5):
            seed = green_sweep(seed)
            for v, g in seed.g:
                expect = (
                    -GVec.unit(v) if -2 * m <= v[1] <= -2 else GVec.unit(v)
                )
                assert g == expect, (m, v)

    def test_each_sweep_adds_one_tag(self):
        seed = initial_seed(window("A1", depth=14), stabilized=False)
        for k in range(1, 7):
            seed = green_sweep(seed)
            assert seed.ref_tag.count("+sweep") == k

    def test_sweep_recolors_one_step_down(self):
        cw = window("A1", depth=14)
        seed = green_sweep(initial_seed(cw, stabilized=False))
        assert seed.ref_quiver.reds() == [(1, -2)]
        assert seed.ref_quiver.greens() == [(1, -4)]


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
        seed = green_sweep(seed)
        seeds[m] = seed
    return cw, seeds


class TestRankTwoSweeps:

    def test_panels(self, sweeps):
        _, seeds = sweeps
        for m, panel in A2_PANELS.items():
            gmap = seeds[m].gmap()
            for v, terms in panel.items():
                assert gmap[v] == e(*terms), (m, v)
            # everything above the band keeps its unit vector
            for v in gmap:
                if v[1] >= 0:
                    assert gmap[v] == GVec.unit(v), (m, v)

    def test_matches_block_sweeps(self, sweeps):
        cw, seeds = sweeps
        for m in range(1, 5):
            blocks = sweep_gvectors(cw, m)
            for v, g in seeds[m].g:
                assert g == blocks[v], (m, v)

    def test_reference_translates_down(self, sweeps):
        cw, seeds = sweeps
        q0 = cw.quiver
        q1 = seeds[1].ref_quiver
        moved = q0.relabeled({v: (v[0], v[1] - 2) for v in q0.vertices})
        inner = {v for v in q1.vertices if q1.rmin + 2 <= v[1] <= q1.rmax - 2}
        a = {ab for ab, _ in moved.arrows if set(ab) <= inner}
        b = {ab for ab, _ in q1.arrows if set(ab) <= inner}
        assert a == b
        assert set(q1.reds()) == {(v[0], v[1] - 2) for v in q0.reds()}

    def test_sweep_order_irrelevant(self):
        cw = window("A2")
        base = initial_seed(cw, stabilized=False)
        greens = base.ref_quiver.greens()
        results = set()
        for perm in itertools.permutations(greens):
            seed = base
            for l in perm:
                seed = mutate_reference(seed, l)
            results.add((seed.g, seed.ref_quiver.arrows))
        assert len(results) == 1

    def test_convergence_to_stabilized(self):
        cw = window("A2", depth=14)
        stable = knit_gvectors(cw.quiver)
        seed = initial_seed(cw, stabilized=False)
        for _ in range(4):
            seed = green_sweep(seed)
        for v, g in seed.g:
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

    def test_a2_explicit_cvectors(self):
        cw = window("A2")
        seed = initial_seed(cw)
        assert cvector(seed, (1, -2)) == e((-1, (1, -2)))
        assert cvector(seed, (2, -1)) == e((1, (1, -2)), (1, (2, -1)))
        assert cvector(seed, (1, -4)) == e((1, (2, -3)))
        assert cvector(seed, (2, -3)) == e((-1, (1, -4)), (-1, (2, -3)))
        assert cvector(seed, (1, -6)) == e((-1, (2, -5)))
        assert cvector(seed, (2, -5)) == e((-1, (1, -6)))


def oracle_exchange_lhs(seed, k):
    """The exchange combination at k, one g-vector lookup per arrow."""
    acc = GVec.zero()
    for v, m in seed.quiver.arrows_in(k):
        acc = acc + seed.g_of(v).scale(m)
    for v, m in seed.quiver.arrows_out(k):
        acc = acc - seed.g_of(v).scale(m)
    return acc.as_dict()


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
    return GVec.from_dict(c)


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
        cw = build_coxeter_quiver(r, coxeter_data_from_word(r, tuple(range(1, 7))))
        greens = [(i, top - 4 * k) for i, top, n in E6_GREENS for k in range(n)]
        random.Random(6).shuffle(greens)
        seed = initial_seed(cw)
        for v in greens:
            assert cvector(seed, v) == oracle_cvector(seed, v), v
            seed, _ = mutate_seed(seed, v)
        assert len(greens) == 36

    @pytest.mark.parametrize("drop", [4, 8])
    @pytest.mark.parametrize("name", ["A2", "A3"])
    def test_margin_errors_on_a_reference_cut_below_the_top(self, name, drop):
        # a reference whose top is `drop` below the seed's: the g-vectors
        # reach above the reference top, so both margin branches fire at
        # some vertices, and at drop 8 several coefficients lie above
        # the top at once, so the message must name the first
        q = window(name, depth=4).quiver
        seed = initial_seed(window(name, depth=4))
        cut = replace(
            seed,
            ref_quiver=basic_quiver(
                q.rs, q.rmin, q.rmax - drop, parity=q.parity, margin=q.margin
            ),
        )
        kinds = set()
        for v in sorted(q.vertices):
            expected = cvector_outcome(oracle_cvector, cut, v)
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


class TestSeedMutation:
    def test_three_step_example(self):
        cw = window("A2")
        seed = initial_seed(cw)
        seed, sign = mutate_seed(seed, (1, -2))
        assert sign == -1
        assert seed.g_of((1, -2)) == e((1, (1, -2)))

        seed, sign = mutate_seed(seed, (1, -4))
        assert sign == 1
        assert seed.g_of((1, -4)) == e((-1, (2, -3)), (1, (1, -2)))

        seed, sign = mutate_seed(seed, (2, -3))
        assert sign == -1
        assert seed.g_of((2, -3)) == e((-1, (2, -5)), (1, (1, -4)))

        # unmutated variables keep their stabilized g-vectors
        stable = knit_gvectors(cw.quiver)
        for v, g in seed.g:
            if v not in {(1, -2), (1, -4), (2, -3)}:
                assert g == stable[v], v

    def test_mutation_involution(self):
        cw = window("A3")
        seed = initial_seed(cw)
        for v in [(1, -2), (2, -3), (1, -4), (3, -4)]:
            back, _ = mutate_seed(mutate_seed(seed, v)[0], v)
            assert back.g == seed.g
            assert back.quiver.same_arrows(seed.quiver)

    @pytest.mark.parametrize("v", [(9, 9), (1, 1), (1, -400)])
    def test_vertex_outside_window_is_not_a_sign_failure(self, v):
        # no such node, the wrong parity, far below the window
        seed = initial_seed(window("A3"))
        assert v not in seed.quiver.vertices
        with pytest.raises(ValueError, match="not in window") as exc:
            mutate_seed(seed, v)
        assert not isinstance(exc.value, SignError)

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
            seed, mutated_sign = mutate_seed(seed, v)
            assert sign in (-1, 1) and mutated_sign == sign
        # g-vectors of distinct variables remain distinct
        gs = [g for _, g in seed.g]
        assert len(set(gs)) == len(gs)


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
        seed = seed.with_values(vals)
        once, _ = mutate_seed(seed, (1, -2))
        assert once.value_map()[(1, -2)] != vals[(1, -2)]
        back, _ = mutate_seed(once, (1, -2))
        assert back.value_map() == vals

    def test_walk_stops_at_an_empty_exchange_side(self):
        # a seeded walk with unit values on the default A2 window (word 1,2)
        # reaches a vertex whose exchange relation has an empty side
        A2 = rs("A2")
        cw = build_coxeter_quiver(A2, coxeter_data_from_word(A2, (1, 2)))
        seed = initial_seed(cw)
        seed = seed.with_values(dict.fromkeys(seed.quiver.vertices, Fraction(1)))
        q = seed.quiver
        pool = sorted(
            v for v in q.vertices - q.frozen
            if q.rmin + q.margin < v[1] < q.rmax - q.margin
        )
        rng = random.Random(0)
        for step in range(40):
            v = rng.choice(pool)
            try:
                seed, _ = mutate_seed(seed, v)
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
        cw = build_coxeter_quiver(A2, coxeter_data_from_word(A2, (1, 2)))
        seed = initial_seed(cw).with_values(dict.fromkeys(cw.quiver.vertices, 1))
        once, _ = mutate_seed(seed, (1, -2))
        value = once.value_map()[(1, -2)]
        assert type(value) is Fraction and value == 2
