"""Windowed quivers: construction, insertion surgery, mutation, slices."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.quiver import (
    MAX_WINDOW_VERTICES,
    MarginError,
    basic_quiver,
    build_coxeter_quiver,
    mutate_quiver,
    quiver_to_json,
)
from clusterqq.rootsys import RootSystem, coxeter_data
from oracles import (
    bipartition_class,
    build_seed_quiver,
    insert_reflection,
    recolor_from_arrows,
    reds,
    relabeled,
    rs,
    same_arrows,
)


def basic(name, rmin, rmax):
    """The basic quiver on a window, with the Dynkin bipartition as parity."""
    r = rs(name)
    return basic_quiver(r, rmin, rmax, bipartition_class(r))


def arrows_within(q, vset):
    """Arrow pairs with both endpoints in vset; asserts multiplicity one."""
    out = set()
    for (a, b), m in q.arrows:
        if a in vset and b in vset:
            assert m == 1
            out.add((a, b))
    return out


# ---------------------------------------------------------------------------
# basic quiver
# ---------------------------------------------------------------------------


class TestBasicQuiver:
    def test_a1_all_vertical(self):
        q = basic("A1", -6, 6)
        assert q.vertices == {(1, r) for r in range(-6, 7, 2)}
        assert set(dict(q.arrows)) == {
            ((1, r), (1, r + 2)) for r in range(-6, 6, 2)
        }

    def test_a3_local_arrows(self):
        q = basic("A3", -8, 8)
        # columns 1,3 even; column 2 odd (bipartition parity)
        assert (2, 0) not in q.vertices and (2, -1) in q.vertices
        assert q.mult((1, 0), (2, -1)) == 1
        assert q.mult((2, -1), (1, -2)) == 1
        assert q.mult((2, -1), (3, -2)) == 1
        assert q.mult((1, 0), (1, 2)) == 1
        assert q.mult((1, 0), (3, 0)) == 0
        assert q.mult((1, 0), (1, -2)) == 0

    def test_shift_invariance(self):
        q = basic("A2", -6, 6)
        shifted = relabeled(q, {v: (v[0], v[1] + 2) for v in q.vertices})
        inner = {v for v in q.vertices if -4 <= v[1] <= 6}
        assert arrows_within(shifted, inner) == arrows_within(q, inner)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            basic("A2", 4, 4)

    @pytest.mark.parametrize("parity", [0, 1])
    def test_window_size_limit(self, parity):
        # A1 from -2·MAX_WINDOW_VERTICES + 1 to 0 has exactly the limit
        # at either parity; one or two heights lower it has one more
        rmin = -2 * MAX_WINDOW_VERTICES + 1
        q = basic_quiver(rs("A1"), rmin, 0, parity=(parity,))
        assert len(q.vertices) == MAX_WINDOW_VERTICES
        with pytest.raises(ValueError) as exc:
            basic_quiver(rs("A1"), rmin - 1 - parity, 0, parity=(parity,))
        assert str(exc.value) == (
            f"window of {MAX_WINDOW_VERTICES + 1} vertices, more than the "
            f"{MAX_WINDOW_VERTICES} allowed"
        )

    def test_custom_parity(self):
        q = basic_quiver(rs("A2"), -4, 4, parity=(0, 0))
        assert (2, 0) in q.vertices and (2, -1) not in q.vertices
        # with equal parity the oblique arrows disappear
        assert all(a[0] == b[0] for (a, b), _ in q.arrows)


# ---------------------------------------------------------------------------
# insertion surgery and rank-one examples
# ---------------------------------------------------------------------------


def a1_pattern(q):
    """Map r -> direction of the vertical arrow between r and r+2."""
    out = {}
    for (a, b), _ in q.arrows:
        if a[1] < b[1]:
            out[a[1]] = "up"
        else:
            out[b[1]] = "down"
    return out


class TestRankOne:
    def build(self, r):
        return build_seed_quiver(rs("A1"), (1,), (r,), rmin=-10, rmax=6)

    def test_single_reflection_quiver(self):
        q = self.build(0)
        assert reds(q) == [(1, 0)] and q.greens() == [(1, -2)]
        pat = a1_pattern(q)
        assert pat[-2] == "down"  # (1,0) -> (1,-2)
        assert all(pat[r] == "up" for r in pat if r != -2)

    def test_mutation_at_red_moves_up(self):
        q = mutate_quiver(self.build(0), (1, 0))
        assert same_arrows(q, self.build(2))

    def test_mutation_at_green_moves_down(self):
        q = mutate_quiver(self.build(0), (1, -2))
        assert same_arrows(q, self.build(-2))

    def test_recolor_after_mutation(self):
        q = recolor_from_arrows(mutate_quiver(self.build(0), (1, 0)))
        assert reds(q) == [(1, 2)] and q.greens() == [(1, 0)]


class TestInsertionErrors:
    def test_colored_vertex_rejected(self):
        q = build_seed_quiver(rs("A2"), (1,), (0,))
        with pytest.raises(ValueError):
            insert_reflection(q, (1, 0))

    def test_missing_vertex_rejected(self):
        q = basic("A2", -6, 4)
        with pytest.raises(ValueError):
            insert_reflection(q, (2, 0))  # wrong parity

    def test_margin_enforced(self):
        q = basic("A2", -6, 4)
        with pytest.raises(MarginError):
            insert_reflection(q, (1, -4))

    def test_nonreduced_word_rejected(self):
        with pytest.raises(ValueError):
            build_seed_quiver(rs("A2"), (1, 1), (0, -2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_seed_quiver(rs("A2"), (1, 2), (0,))


# ---------------------------------------------------------------------------
# rank-two seed quivers: full transcribed oracles
# ---------------------------------------------------------------------------

A2_TWO_LETTER_ARROWS = {
    ((1, 2), (2, 1)),
    ((2, 1), (1, 0)),
    ((1, 0), (1, 2)),
    ((1, 0), (1, -2)),
    ((1, -2), (2, -1)),
    ((2, -1), (2, 1)),
    ((2, -1), (1, -4)),
    ((1, -4), (1, -2)),
    ((1, -4), (2, -3)),
    ((2, -3), (2, -1)),
    ((2, -3), (2, -5)),
    ((2, -5), (1, -6)),
    ((1, -6), (1, -4)),
    ((1, -6), (2, -7)),
    ((2, -7), (2, -5)),
    ((2, -7), (1, -8)),
    ((1, -8), (1, -6)),
}

A2_COXETER_ARROWS = {
    ((1, 2), (2, 1)),
    ((2, 1), (1, 0)),
    ((1, 0), (1, 2)),
    ((1, 0), (1, -2)),
    ((1, -2), (2, -1)),
    ((2, -1), (2, 1)),
    ((2, -1), (2, -3)),
    ((2, -3), (1, -4)),
    ((1, -4), (1, -2)),
    ((1, -4), (1, -6)),
    ((1, -6), (2, -5)),
    ((2, -5), (2, -3)),
    ((2, -5), (1, -8)),
    ((1, -8), (1, -6)),
    ((1, -8), (2, -7)),
    ((2, -7), (1, -10)),
    ((2, -7), (2, -5)),
    ((1, -10), (1, -8)),
}

A2_WINDOW_VERTS = {(1, r) for r in range(-10, 3, 2)} | {
    (2, r) for r in range(-7, 2, 2)
}


class TestRankTwoOracles:
    def test_two_letter_word_quiver(self):
        q = build_seed_quiver(rs("A2"), (1, 2), (0, -3), rmin=-12, rmax=4)
        vset = {(1, r) for r in range(-8, 3, 2)} | {(2, r) for r in range(-7, 2, 2)}
        assert arrows_within(q, vset) == A2_TWO_LETTER_ARROWS
        assert reds(q) == [(1, 0), (2, -3)]
        assert q.greens() == [(1, -2), (2, -5)]

    def test_coxeter_quiver_arrows(self):
        cw = build_coxeter_quiver(coxeter_data(rs("A2"), (1, 2)))
        assert arrows_within(cw.quiver, A2_WINDOW_VERTS) == A2_COXETER_ARROWS
        assert reds(cw.quiver) == [(1, -4), (1, 0), (2, -1)]
        assert cw.quiver.greens() == [(1, -6), (1, -2), (2, -3)]

    def test_longest_word_quiver_matches_coxeter(self):
        # the length-3 word with the stacked heights rebuilds the same quiver
        q = build_seed_quiver(
            rs("A2"), (1, 2, 1), (0, -1, -4), rmin=-14, rmax=4
        )
        assert arrows_within(q, A2_WINDOW_VERTS) == A2_COXETER_ARROWS
        assert reds(q) == [(1, -4), (1, 0), (2, -1)]
        assert q.greens() == [(1, -6), (1, -2), (2, -3)]


# ---------------------------------------------------------------------------
# rank-three seed quivers
# ---------------------------------------------------------------------------


class TestRankThree:
    def test_stacked_word_colors(self):
        q = build_seed_quiver(
            rs("A3"), (1, 2, 1, 3, 2, 1), (0, -1, -4, -2, -5, -8)
        )
        assert reds(q) == sorted(
            [(1, 0), (2, -1), (1, -4), (3, -2), (2, -5), (1, -8)]
        )
        assert q.greens() == sorted(
            [(1, -2), (2, -3), (1, -6), (3, -4), (2, -7), (1, -10)]
        )

    def test_rotated_word_colors(self):
        q = build_seed_quiver(
            rs("A3"), (2, 1, 3, 2, 1, 3), (-1, -2, -2, -5, -6, -6)
        )
        assert reds(q) == sorted(
            [(2, -1), (1, -2), (3, -2), (2, -5), (1, -6), (3, -6)]
        )
        assert q.greens() == sorted(
            [(2, -3), (1, -4), (3, -4), (2, -7), (1, -8), (3, -8)]
        )

    def test_stacked_word_matches_coxeter_quiver(self):
        q = build_seed_quiver(
            rs("A3"), (1, 2, 1, 3, 2, 1), (0, -1, -4, -2, -5, -8),
            rmin=-16, rmax=4,
        )
        cw = build_coxeter_quiver(coxeter_data(rs("A3"), (1, 2, 3)), depth_below=6)
        vset = q.vertices & cw.quiver.vertices
        vset = {v for v in vset if v[1] >= -12}
        assert arrows_within(q, vset) == arrows_within(cw.quiver, vset)
        assert set(reds(q)) == set(reds(cw.quiver))
        assert set(q.greens()) == set(cw.quiver.greens())


# ---------------------------------------------------------------------------
# mutation and the three-letter braid move
# ---------------------------------------------------------------------------


class TestMutation:
    def test_frozen_vertex_rejected(self):
        cw = build_coxeter_quiver(coxeter_data(rs("A2"), (1, 2)))
        with pytest.raises(ValueError):
            mutate_quiver(cw.gamma, (1, 2))

    def test_margin_enforced(self):
        q = basic("A2", -6, 6)
        with pytest.raises(MarginError):
            mutate_quiver(q, (1, 6))

    def test_braid_move(self):
        q = build_seed_quiver(
            rs("A2"), (1, 2, 1), (0, -1, -4), rmin=-15, rmax=4
        )
        for v in [(1, -2), (1, -4), (2, -3)]:
            q = mutate_quiver(q, v)
        target = build_seed_quiver(
            rs("A2"), (2, 1, 2), (-1, -2, -5), rmin=-15, rmax=4
        )

        def relabel(v):
            i, r = v
            if v == (1, -4):
                return (2, -3)
            if i == 1 and r <= -6:
                return (1, r + 2)
            if i == 2 and r <= -3:
                return (2, r - 2)
            return v

        moved = relabeled(q, {v: relabel(v) for v in q.vertices})
        vset = {v for v in target.vertices if v[1] >= -10}
        assert arrows_within(moved, vset) == arrows_within(target, vset)


# ---------------------------------------------------------------------------
# slices and the finite core
# ---------------------------------------------------------------------------


class TestCoxeterWindow:
    def test_a2_slice_data(self):
        cw = build_coxeter_quiver(coxeter_data(rs("A2"), (1, 2)))
        assert cw.datum.word == (1, 2)
        q = cw.quiver
        assert reds(q) == [(1, -4), (1, 0), (2, -1)]
        assert q.greens() == [(1, -6), (1, -2), (2, -3)]
        assert [cw.slice_index(v) for v in reds(q)] == [-2, 0, -1]
        # one green in each of the slices -1, -2, -3, read top-down
        greens = cw.green_sequence()
        assert greens == [(1, -2), (2, -3), (1, -6)]
        assert [cw.slice_index(v) for v in greens] == [-1, -2, -3]

    def test_a2_core(self):
        cw = build_coxeter_quiver(coxeter_data(rs("A2"), (1, 2)))
        g = cw.gamma
        assert g.vertices == {
            (1, 2), (1, 0), (1, -2), (1, -4), (1, -6),
            (2, 1), (2, -1), (2, -3),
        }
        assert g.frozen == {(1, 2), (2, 1), (1, -6), (2, -3)}

    def test_a3_green_word(self):
        cw = build_coxeter_quiver(coxeter_data(rs("A3"), (1, 2, 3)))
        # greens sit in slices -1:{1}, -2:{2}, -3:{1,3}, -4:{2}, -5:{1}
        word = tuple(v[0] for v in cw.green_sequence())
        assert word == (1, 2, 1, 3, 2, 1)

    def test_slice_orientation_flips(self):
        cw = build_coxeter_quiver(coxeter_data(rs("A2"), (1, 2)), depth_below=10)
        q = cw.quiver

        def slice_edge(m):
            """The arrow between the two vertices of slice m, as nodes."""
            one, two = (1, 2 * m), (2, 1 + 2 * m)  # l = (0, 1)
            assert (q.mult(one, two) > 0) != (q.mult(two, one) > 0)
            return (1, 2) if q.mult(one, two) else (2, 1)

        assert cw.datum.l == (0, 1)
        assert slice_edge(0) == (2, 1)
        # far below the band the slice orientation is the opposite one
        assert slice_edge(-6) == (1, 2)

    def test_d4_exponent_bookkeeping(self):
        cw = build_coxeter_quiver(coxeter_data(rs("D4"), (1, 3, 4, 2)), depth_below=4)
        assert len(reds(cw.quiver)) == rs("D4").num_positive_roots
        assert len(cw.gamma.frozen) == 8


# ---------------------------------------------------------------------------
# cached lookups
# ---------------------------------------------------------------------------


def assert_answers_from_own_arrows(q, probe):
    """mult of q agrees with its arrows on probe."""
    arrows = dict(q.arrows)
    for a, b in probe:
        assert q.mult(a, b) == arrows.get((a, b), 0)


def fill_cache(q):
    for (a, b), _ in q.arrows:
        q.mult(a, b)


class TestLookupCache:
    @pytest.fixture()
    def q(self):
        return build_coxeter_quiver(coxeter_data(rs("A3"), (1, 2, 3))).quiver

    def test_derived_quivers_use_their_own_arrows(self, q):
        fill_cache(q)
        v = q.greens()[0]
        mutated = mutate_quiver(q, v)
        recolored = recolor_from_arrows(mutated)
        moved = relabeled(q, {u: (u[0], u[1] - 2) for u in q.vertices})
        probe = {k for k, _ in q.arrows} | {(b, a) for (a, b), _ in q.arrows}
        for child in (mutated, recolored, moved):
            probe |= {k for k, _ in child.arrows}
        for child in (mutated, recolored, moved):
            assert_answers_from_own_arrows(child, probe)
        # the parent is unchanged by its children
        assert_answers_from_own_arrows(q, probe)
        assert mutated.mult(*next(k for k, _ in q.arrows if k[0] == v)) == 0

    def test_equality_and_hash_ignore_the_cache(self, q):
        twin = replace(q)
        assert "out" not in vars(twin)
        fill_cache(q)
        assert "out" in vars(q)
        assert q == twin and hash(q) == hash(twin)
        assert {q, twin} == {twin}
        fill_cache(twin)
        assert q == twin and hash(q) == hash(twin)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def assert_payload_is(q):
    """The ``quiver_to_json`` payload of q, read back field by field,
    gives q's fields, each list in sorted order, and the text is the
    payload with sorted keys."""
    text = quiver_to_json(q)
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True)
    assert payload["type"] == q.rs.dynkin_type
    assert payload["window"] == [q.rmin, q.rmax]
    assert payload["parity"] == list(q.parity)
    assert payload["margin"] == q.margin
    assert payload["vertices"] == sorted(list(v) for v in q.vertices)
    assert payload["frozen"] == sorted(list(v) for v in q.frozen)
    arrows = tuple((((i, r), (j, s)), m) for i, r, j, s, m in payload["arrows"])
    assert arrows == q.arrows
    colors = {
        tuple(int(x) for x in key.split(",")): c
        for key, c in payload["colors"].items()
    }
    assert colors == dict(q.colors)


class TestJson:
    def test_roundtrip_coxeter(self):
        cw = build_coxeter_quiver(coxeter_data(rs("A3"), (1, 2, 3)))
        assert cw.gamma.frozen and cw.quiver.colors
        for q in (cw.quiver, cw.gamma):
            assert_payload_is(q)

    def test_roundtrip_seed_quiver(self):
        assert_payload_is(build_seed_quiver(rs("A2"), (1, 2), (0, -3)))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

WORDS = {
    "A2": (1, 2),
    "A3": (1, 2, 3),
    "D4": (1, 3, 4, 2),
}


@st.composite
def coxeter_windows(draw):
    name = draw(st.sampled_from(sorted(WORDS)))
    return build_coxeter_quiver(coxeter_data(RootSystem.from_name(name), WORDS[name]))


class TestProperties:
    @given(coxeter_windows(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutation_involutive(self, cw, data):
        q = cw.quiver
        interior = sorted(
            v for v in q.vertices if q.rmin + q.margin < v[1] < q.rmax - q.margin
        )
        v = data.draw(st.sampled_from(interior))
        assert same_arrows(mutate_quiver(mutate_quiver(q, v), v), q)

    @given(coxeter_windows(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_green_mutations_commute(self, cw, data):
        q = cw.quiver
        greens = [v for v in q.greens() if v[1] > q.rmin + q.margin]
        v = data.draw(st.sampled_from(greens))
        w = data.draw(st.sampled_from(greens))
        vw = mutate_quiver(mutate_quiver(q, v), w)
        wv = mutate_quiver(mutate_quiver(q, w), v)
        assert same_arrows(vw, wv)

    @given(st.integers(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_shift_equivariance(self, s):
        base = build_seed_quiver(
            rs("A2"), (1, 2), (0, -3), rmin=-14, rmax=6
        )
        shifted = build_seed_quiver(
            rs("A2"), (1, 2), (2 * s, -3 + 2 * s), rmin=-14 + 2 * s, rmax=6 + 2 * s
        )
        moved = relabeled(base, {v: (v[0], v[1] + 2 * s) for v in base.vertices})
        assert moved.vertices == shifted.vertices
        assert moved.arrows == shifted.arrows
        assert moved.colors == shifted.colors
