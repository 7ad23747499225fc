"""Stabilized g-vectors: block limits, knitting, braid action."""

import itertools
import math
import random
from functools import reduce
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.gvector import (
    GVec,
    blocks_gvectors,
    block_matrix,
    braid_gvectors,
    f_labels,
    green_slice_nodes,
    knit_gvectors,
    mesh_check,
    mesh_pairs,
    stable_block,
    sweep_gvectors,
)
from clusterqq.gvector import _band_memo, _block_to_gvecs
from clusterqq.quiver import _make, basic_quiver, build_coxeter_quiver
from clusterqq.rootsys import (
    RootSystem,
    _identity,
    coxeter_data,
)
from oracles import (
    A3_STABILIZED,
    a2_expected,
    assert_adjugate_is_det_times_inverse,
    cli,
    e,
    f_label,
    green_slice_nodes_scan,
    knit_by_rounds,
    mat_mul,
    reflection_matrix_t,
    rs,
    slice_matrix,
    sweep_table,
    theta,
    theta_word,
)


A2 = coxeter_data(rs("A2"), (1, 2))
A3 = coxeter_data(rs("A3"), (1, 2, 3))

WORDS = {
    "A2": (1, 2),
    "A3": (1, 2, 3),
    "A3r": (3, 2, 1),
    "D4": (1, 3, 4, 2),
    "D5": (1, 2, 3, 4, 5),
}


def window(key, depth=8):
    name = key.rstrip("r")
    return build_coxeter_quiver(coxeter_data(rs(name), WORDS[key]), depth_below=depth)


# ---------------------------------------------------------------------------
# slice matrices and blocks
# ---------------------------------------------------------------------------


class TestSliceMatrices:
    def test_a2_green_slices(self):
        assert green_slice_nodes(A2, -1) == [1]
        assert green_slice_nodes(A2, -2) == [2]
        assert green_slice_nodes(A2, -3) == [1]
        assert green_slice_nodes(A2, -4) == []

    def test_a2_elementary_matrices(self):
        assert slice_matrix(A2, -1) == ((-1, 0), (1, 1))
        assert slice_matrix(A2, -2) == ((1, 1), (0, -1))

    def test_a2_products(self):
        assert stable_block(A2, -2) == ((-1, -1), (1, 0))
        assert stable_block(A2, -3) == ((0, -1), (-1, 0))
        # below the last green slice the limit block is constant: minus
        # the permutation matrix of the twist
        assert stable_block(A2, -3) == stable_block(A2, -9)

    def test_a2_sweep_blocks(self):
        T = lambda m: slice_matrix(A2, m)
        # one sweep
        assert block_matrix(A2, 1, -1) == T(-1)
        assert block_matrix(A2, 1, -2) == T(-2)
        assert block_matrix(A2, 1, -3) == T(-3)
        # two sweeps
        assert block_matrix(A2, 2, -1) == T(-1)
        assert block_matrix(A2, 2, -2) == stable_block(A2, -2)
        assert block_matrix(A2, 2, -4) == T(-3)
        # three sweeps
        assert block_matrix(A2, 3, -3) == stable_block(A2, -3)
        assert block_matrix(A2, 3, -5) == T(-3)

    def test_identity_above_band(self):
        for m in (0, 1, 5):
            assert stable_block(A2, m) == ((1, 0), (0, 1))

    def test_a3_slice_one_has_two_greens(self):
        assert green_slice_nodes(A3, -3) == [1, 3]


# ---------------------------------------------------------------------------
# rank-two closed forms
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cw_a2():
    return window("A2", depth=10)


@pytest.fixture(scope="module")
def cw_a3():
    return window("A3", depth=10)


class TestRankTwo:
    @pytest.fixture()
    def cw(self, cw_a2):
        return cw_a2

    def test_knit_matches_closed_form(self, cw):
        g = knit_gvectors(cw.quiver)
        for v in cw.quiver.vertices:
            assert g[v] == a2_expected(v), v

    def test_blocks_match_closed_form(self, cw):
        g = blocks_gvectors(cw)
        for v in cw.quiver.vertices:
            assert g[v] == a2_expected(v), v

    def test_braid_on_greens(self, cw):
        g = braid_gvectors(cw)
        assert set(g) == set(cw.quiver.greens())
        for v in g:
            assert g[v] == a2_expected(v), v


# ---------------------------------------------------------------------------
# rank-three worked values
# ---------------------------------------------------------------------------


class TestRankThree:
    @pytest.fixture()
    def cw(self, cw_a3):
        return cw_a3

    def test_knit_values(self, cw):
        g = knit_gvectors(cw.quiver)
        for v, terms in A3_STABILIZED.items():
            assert g[v] == e(*terms), v

    def test_braid_values(self, cw):
        g = braid_gvectors(cw)
        expected = {
            (1, -2): [(-1, (1, -2)), (1, (2, -1))],
            (2, -3): [(-1, (1, -4)), (1, (3, -2))],
            (1, -6): [(-1, (2, -5)), (1, (3, -4))],
            (3, -4): [(-1, (1, -6))],
            (2, -7): [(-1, (2, -7))],
            (1, -10): [(-1, (3, -8))],
        }
        assert set(g) == set(expected)
        for v, terms in expected.items():
            assert g[v] == e(*terms), v

    def test_green_word_is_reduced_longest(self, cw):
        from clusterqq.rootsys import longest_element, weyl_from_word

        word = tuple(v[0] for v in cw.green_sequence())
        w = weyl_from_word(rs("A3"), word)
        assert w == longest_element(rs("A3"))
        assert w.length == len(word)


def missing_vertical_arrow():
    base = basic_quiver(rs("A3"), -4, 0, parity=(0, 1, 0))
    return _make(base, vertices={(1, 0), (1, -2)}, out={})


def cyclic_greens():
    """Each red over its green, the greens in a 3-cycle: every green
    waits for the one it points to."""
    base = basic_quiver(rs("A3"), -4, 0, parity=(0, 1, 0))
    reds, greens = [(1, 0), (2, -1), (3, 0)], [(1, -2), (2, -3), (3, -2)]
    out = {r: {g: 1} for r, g in zip(reds, greens)}
    for a, b in zip(greens, greens[1:] + greens[:1]):
        out[a] = {b: 1}
    return _make(base, vertices=reds + greens, out=out), reds, greens


class TestKnitErrors:
    def test_missing_vertical_arrow(self):
        with pytest.raises(
            ValueError, match=r"no vertical arrow between \(1, -2\) and \(1, 0\)"
        ):
            knit_gvectors(missing_vertical_arrow())

    def test_cyclic_dependencies(self):
        q, reds, greens = cyclic_greens()
        with pytest.raises(ValueError, match=r"cyclic dependencies at") as err:
            knit_gvectors(q)
        assert all(str(g) in str(err.value) for g in greens)
        assert not any(str(r) in str(err.value) for r in reds)


def knit_outcome(knit, q):
    """knit(q), or its exception's type and message."""
    try:
        return knit(q)
    except ValueError as exc:
        return type(exc), str(exc)


def knit_words():
    """Every Coxeter word of A1-A5, D4 and D5, and 10 seeded words each of
    E6, E7 and E8."""
    for name in ("A1", "A2", "A3", "A4", "A5", "D4", "D5"):
        for word in itertools.permutations(range(1, rs(name).n + 1)):
            yield name, word
    for name in ("E6", "E7", "E8"):
        rng = random.Random(name)
        for _ in range(10):
            word = list(range(1, rs(name).n + 1))
            rng.shuffle(word)
            yield name, tuple(word)


class TestKnitAgainstRounds:
    """The one-pass knitting gives what the round-by-round recursion of
    ``oracles.knit_by_rounds`` gives: the same g-vectors, or the same
    error with the same message."""

    @pytest.mark.parametrize(
        "name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8"]
    )
    def test_every_window(self, name):
        # margin 0, so that depth -1 builds: there the lowest red's green
        # falls below the window and the red keeps only its up-arrow
        for _, word in (w for w in knit_words() if w[0] == name):
            datum = coxeter_data(rs(name), word)
            for depth in (-1, 2, 8, 30):
                q = build_coxeter_quiver(datum, depth_below=depth, margin=0).quiver
                got = knit_outcome(knit_gvectors, q)
                assert isinstance(got, dict), (word, depth, got)
                assert got == knit_outcome(knit_by_rounds, q), (word, depth)

    def test_error_quivers(self):
        for q in (missing_vertical_arrow(), cyclic_greens()[0]):
            got = knit_outcome(knit_gvectors, q)
            assert isinstance(got, tuple)
            assert got == knit_outcome(knit_by_rounds, q)


# ---------------------------------------------------------------------------
# cross-validation of the three methods
# ---------------------------------------------------------------------------


class TestAgreement:
    @pytest.mark.parametrize("key", sorted(WORDS))
    def test_knit_equals_blocks(self, key):
        cw = window(key)
        knit = knit_gvectors(cw.quiver)
        blocks = blocks_gvectors(cw)
        assert set(knit) == set(blocks)
        for v in knit:
            assert knit[v] == blocks[v], v

    @pytest.mark.parametrize("key", sorted(WORDS))
    def test_braid_equals_knit_on_greens(self, key):
        cw = window(key)
        knit = knit_gvectors(cw.quiver)
        braid = braid_gvectors(cw)
        for v, g in braid.items():
            assert knit[v] == g, v

    @pytest.mark.parametrize("key", ["A2", "A3", "D4"])
    def test_sweeps_converge_to_limit(self, key):
        cw = window(key)
        # slice m stabilizes once the sweep count k satisfies m + k > 0,
        # so the deepest window slice controls the convergence time
        k = -min(cw.slice_range()) + 1
        tables = sweep_gvectors(cw, k + 3)
        assert tables[k] == blocks_gvectors(cw)
        assert tables[k + 3] == blocks_gvectors(cw)
        assert tables[1] != blocks_gvectors(cw)

    def test_green_word_reduced_longest_everywhere(self):
        from clusterqq.rootsys import longest_element, weyl_from_word

        for key in sorted(WORDS):
            cw = window(key)
            word = tuple(v[0] for v in cw.green_sequence())
            w = weyl_from_word(cw.datum.rs, word)
            assert w == longest_element(cw.datum.rs)
            assert w.length == len(word)


# ---------------------------------------------------------------------------
# mesh relation
# ---------------------------------------------------------------------------


class TestMesh:
    @pytest.mark.parametrize("key", sorted(WORDS))
    def test_mesh_on_all_eligible_greens(self, key):
        cw = window(key)
        g = knit_gvectors(cw.quiver)
        pairs = mesh_pairs(cw.quiver)
        if cw.datum.rs.n > 1:
            assert pairs  # every non-trivial band has stacked greens
        for v in pairs:
            assert mesh_check(cw.quiver, g, v), v

    def test_a2_explicit_instance(self):
        cw = window("A2")
        g = knit_gvectors(cw.quiver)
        lhs = g[(1, -6)] + g[(1, -2)].shift(-2)
        rhs = g[(2, -3)].shift(-1)
        assert lhs == rhs == e((-1, (1, -6)))


# ---------------------------------------------------------------------------
# braid operators
# ---------------------------------------------------------------------------


@st.composite
def gvecs(draw, name):
    r = RootSystem.from_name(name)
    n_terms = draw(st.integers(1, 4))
    d = {}
    for _ in range(n_terms):
        i = draw(st.integers(1, r.n))
        a = draw(st.integers(-6, 6))
        d[(i, a)] = draw(st.integers(-3, 3))
    return GVec.from_dict(d)


class TestTheta:
    def test_basis_action(self):
        a3 = rs("A3")
        assert theta(a3, 1, GVec.unit((2, 5))) == GVec.unit((2, 5))
        assert theta(a3, 2, GVec.unit((2, -1))) == e(
            (-1, (2, -3)), (1, (1, -2)), (1, (3, -2))
        )

    def test_worked_chain(self):
        a3 = rs("A3")
        out = theta_word(a3, (1, 2, 1, 3, 2, 1), GVec.unit((1, 0))).shift(-2)
        assert out == e((-1, (3, -8)))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_braid_relations(self, data):
        name = data.draw(st.sampled_from(["A2", "A3", "D4"]))
        r = RootSystem.from_name(name)
        g = data.draw(gvecs(name))
        i = data.draw(st.integers(1, r.n))
        j = data.draw(st.integers(1, r.n))
        if i == j:
            return
        if r.cartan[i - 1][j - 1] == -1:
            assert theta_word(r, (i, j, i), g) == theta_word(r, (j, i, j), g)
        else:
            assert theta_word(r, (i, j), g) == theta_word(r, (j, i), g)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_shift_equivariance(self, data):
        r = rs("A3")
        g = data.draw(gvecs("A3"))
        i = data.draw(st.integers(1, 3))
        s = data.draw(st.integers(-2, 2))
        assert theta(r, i, g.shift(s)) == theta(r, i, g).shift(s)


# ---------------------------------------------------------------------------
# the band-product memo against the plain products
# ---------------------------------------------------------------------------


def oracle_slice(d, m):
    mats = [reflection_matrix_t(d.rs, i) for i in green_slice_nodes_scan(d, m)]
    return reduce(mat_mul, mats, _identity(d.rs.n))


def oracle_stable(d, m, T):
    """T_{-1} ... T_m, clamped to the band, from the slices T[j]."""
    if m >= 0:
        return _identity(d.rs.n)
    m = max(m, d.h_c)
    mats = [T[j] for j in range(-1, m - 1, -1)]
    return reduce(mat_mul, mats, _identity(d.rs.n))


def oracle_blocks(d, m, K, T):
    """[T_{m+k-1} ... T_m for k = 0..K], each grown at the top."""
    slices = [T[j] for j in range(m, m + K)]
    grow = lambda acc, t: mat_mul(t, acc)  # noqa: E731
    return list(accumulate(slices, grow, initial=_identity(d.rs.n)))


MEMO_TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]


def coxeter_words(r, count=4):
    """1..n, n..1 and seeded shuffles: up to ``count`` distinct words."""
    rng = random.Random(r.dynkin_type)
    words = {tuple(range(1, r.n + 1)), tuple(range(r.n, 0, -1))}
    while len(words) < min(count, math.factorial(r.n)):
        words.add(tuple(rng.sample(range(1, r.n + 1), r.n)))
    return sorted(words)


def coxeter_windows(name):
    """The Coxeter windows of the words of :func:`coxeter_words`."""
    r = rs(name)
    return [
        build_coxeter_quiver(coxeter_data(r, w), depth_below=4)
        for w in coxeter_words(r)
    ]


class TestBandMemo:
    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_h_c_is_the_lowest_green_slice(self, name):
        # the band products clamp at h_c: it must be the lowest slice of
        # a green vertex in the built window, for every Coxeter word
        r = rs(name)
        for w in coxeter_words(r, 6):
            cw = build_coxeter_quiver(coxeter_data(r, w), depth_below=2)
            lowest = min(cw.slice_index(v) for v in cw.quiver.greens())
            assert cw.datum.h_c == lowest, w

    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_green_slice_nodes_equal_the_scan(self, name):
        r = rs(name)
        for w in coxeter_words(r):
            d = coxeter_data(r, w)
            for m in range(d.h_c - 2, 2):
                assert green_slice_nodes(d, m) == green_slice_nodes_scan(d, m), (w, m)

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_products_equal_the_plain_products(self, name, order):
        for cw in coxeter_windows(name):
            d = cw.datum
            ms = sorted(cw.slice_range(), reverse=order == "descending")
            K = -d.h_c + 1
            T = {j: oracle_slice(d, j) for j in range(min(ms) - 1, max(ms) + K)}
            _band_memo.cache_clear()
            for m in ms:
                assert slice_matrix(d, m) == T[m], m
                assert stable_block(d, m) == oracle_stable(d, m, T), m
                for k, block in enumerate(oracle_blocks(d, m, K, T)):
                    assert block_matrix(d, k, m) == block, (k, m)

    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_adjugate_of_every_stable_block(self, name):
        windows = coxeter_windows(name) + [
            window(key) for key in WORDS if key.rstrip("r") == name
        ]
        for cw in windows:
            for m in cw.slice_range():
                assert_adjugate_is_det_times_inverse(stable_block(cw.datum, m))

    def test_negative_sweep_count_rejected(self):
        with pytest.raises(ValueError):
            block_matrix(A2, -1, -1)
        with pytest.raises(ValueError):
            sweep_gvectors(window("A2"), -1)

    def test_sweeps_reuse_products(self, monkeypatch):
        # each sweep count k adds at most one product per band slice, so
        # K sweeps compute at most depth·K distinct products, each applying
        # one slice's column operations; rebuilding every block per sweep
        # would be quadratic in K
        r = rs("D4")
        d = coxeter_data(r, (1, 2, 3, 4))
        calls = []

        def counted(datum, m):
            calls.append(1)
            return green_slice_nodes(datum, m)

        monkeypatch.setattr("clusterqq.gvector.green_slice_nodes", counted)
        _band_memo.cache_clear()
        cli("seed sweep --type D4 --sweeps 20 --json")
        bound = -d.h_c * 20
        assert 0 < _band_memo.cache_info().misses <= bound
        assert len(calls) <= bound


def oracle_block_to_gvecs(d, m, block):
    """Column i of ``block`` as the g-vector of (i, l(i) + 2m), sorted."""
    n = d.rs.n
    return {
        (i, d.l_of(i) + 2 * m): GVec.from_dict(
            {(j, d.l_of(j) + 2 * m): block[j - 1][i - 1] for j in range(1, n + 1)}
        )
        for i in range(1, n + 1)
    }


class TestBlockColumns:
    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_every_slice_after_every_sweep_count(self, name):
        for cw in coxeter_windows(name):
            d = cw.datum
            h = d.rs.coxeter_number
            tables = sweep_gvectors(cw, h + 3)
            assert len(tables) == h + 4
            for k, table in enumerate(tables):
                expected = {}
                for m in cw.slice_range():
                    block = block_matrix(d, k, m)
                    columns = oracle_block_to_gvecs(d, m, block)
                    assert _block_to_gvecs(d, m, block) == columns, (k, m)
                    expected.update(
                        (v, g) for v, g in columns.items() if v in cw.quiver.vertices
                    )
                assert table == expected, k

    def test_identity_blocks_give_unit_vectors(self):
        # k = 0, and every slice above the band, clamp to an empty range
        cw = window("D4")
        for m in cw.slice_range():
            block = block_matrix(cw.datum, 0, m)
            for v, g in _block_to_gvecs(cw.datum, m, block).items():
                assert g == GVec.unit(v)
        (table,) = sweep_gvectors(cw, 0)
        assert all(g.coeffs == ((v, 1),) for v, g in table.items())


def range_changes(cw, sweeps):
    """Per slice, the k in 0..sweeps at which the clamped range of
    T_{m+k-1} ⋯ T_m differs from the one at k - 1 (k = 0 always counts)."""
    d = cw.datum
    changes = {}
    for m in cw.slice_range():
        ranges = []
        for k in range(sweeps + 1):
            top, bottom = min(m + k - 1, -1), max(m, d.h_c)
            ranges.append((top, bottom) if top >= bottom else "identity")
        changes[m] = [
            k for k in range(sweeps + 1) if k == 0 or ranges[k] != ranges[k - 1]
        ]
    return changes


class TestSweepWalk:
    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_a_walk_frozen_after_one_sweep_fails(self, name):
        # a slice's block changes again after k = 1 as the band reaches
        # it, so a walk that kept its k = 1 tables would fail the
        # comparison with the oracle
        cw = coxeter_windows(name)[0]
        h = cw.datum.rs.coxeter_number
        tables = sweep_gvectors(cw, h + 3)
        assert any(max(ks) >= 2 for ks in range_changes(cw, h + 3).values())
        frozen = tables[:2] + [tables[1]] * (h + 2)
        assert any(frozen[k] != sweep_table(cw, k) for k in range(h + 4))

    def test_twenty_d4_sweeps_rebuild_only_changed_ranges(self, monkeypatch):
        calls = []

        def counted(datum, m, block):
            calls.append(m)
            return _block_to_gvecs(datum, m, block)

        monkeypatch.setattr("clusterqq.gvector._block_to_gvecs", counted)
        cli("seed sweep --type D4 --sweeps 20 --json")
        # the window of `seed sweep`: depth below 10 + 2 per sweep
        cw = build_coxeter_quiver(coxeter_data(rs("D4"), (1, 2, 3, 4)), depth_below=50)
        changes = range_changes(cw, 20)
        assert sorted(calls) == sorted(m for m, ks in changes.items() for _ in ks)
        # 174 of them; one per slice and sweep count would be 680
        assert len(calls) * 3 < 20 * len(changes)


# ---------------------------------------------------------------------------
# the braid columns against the whole prefix words
# ---------------------------------------------------------------------------


def oracle_braid(cw):
    """Green t gets the whole prefix word applied to its red-top unit."""
    r = cw.datum.rs
    greens = cw.green_sequence()
    word = [v[0] for v in greens]
    out, seen = {}, {}
    for t, (i, a) in enumerate(greens):
        s_t = seen.get(i, 0)
        start = GVec.unit((i, cw.red_top(i)))
        out[(i, a)] = theta_word(r, word[: t + 1], start).shift(-s_t)
        seen[i] = s_t + 1
    return out


class TestBraidColumns:
    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_braid_equals_the_prefix_words(self, name):
        r = rs(name)
        words = coxeter_words(r)
        assert len(words) >= min(3, math.factorial(r.n))
        for w in words:
            cw = build_coxeter_quiver(coxeter_data(r, w), depth_below=2)
            assert braid_gvectors(cw) == oracle_braid(cw), w


# ---------------------------------------------------------------------------
# the Q-variable labels against the whole prefix words
# ---------------------------------------------------------------------------


def oracle_labels(cw, g):
    """The label of every vertex whose prefix word shifts onto g."""
    out = {}
    for v in cw.quiver.vertices:
        try:
            out[v] = f_label(cw, v, g)
        except ValueError:
            pass
    return out


class TestLabels:
    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_labels_equal_the_prefix_words(self, name):
        for cw in coxeter_windows(name)[:2]:
            g = knit_gvectors(cw.quiver)
            labels = f_labels(cw, g)
            assert labels.keys() == cw.quiver.vertices
            assert labels == oracle_labels(cw, g)

    @pytest.mark.parametrize("name", MEMO_TYPES)
    def test_a_corrupted_gvector_drops_exactly_its_vertex(self, name):
        cw = coxeter_windows(name)[-1]
        g = knit_gvectors(cw.quiver)
        labels = f_labels(cw, g)
        # the lowest green: its word is the whole green word
        v = min(cw.quiver.greens(), key=cw.slice_index)
        bad = {**g, v: g[v].scale(2)}  # no shift of a column doubles it
        dropped = f_labels(cw, bad)
        assert dropped == {u: x for u, x in labels.items() if u != v}
        assert dropped == oracle_labels(cw, bad)
