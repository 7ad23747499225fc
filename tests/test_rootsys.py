"""Root-system and Weyl-group arithmetic."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.rootsys import (
    RootSystem,
    Weight,
    coxeter_data,
    fundamental_weight,
    is_reduced,
    longest_element,
    simple_root,
    weyl_from_word,
)
from clusterqq import rootsys
from clusterqq.rootsys import _adjugate
from oracles import (
    ALL_TYPES,
    assert_adjugate_is_det_times_inverse,
    bipartition_class,
    gauss_jordan,
    identity_element,
    nakayama,
    reflection_matrix_t,
    rs,
    sign_flipped,
    simple_reflection,
    weyl_inverse,
    weyl_product,
)

SMALL_TYPES = ["A1", "A2", "A3", "A4", "D4", "D5"]


class TestCartan:
    def test_a2_matrix(self):
        assert rs("A2").cartan == ((2, -1), (-1, 2))

    def test_d4_matrix(self):
        c = rs("D4").cartan
        assert c[2 - 1][4 - 1] == -1 and c[1 - 1][4 - 1] == 0

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_symmetric_connected(self, name):
        r = rs(name)
        assert all(
            r.cartan[i][j] == r.cartan[j][i] for i in range(r.n) for j in range(r.n)
        )
        assert all(r.cartan[i][i] == 2 for i in range(r.n))
        # connectivity: bipartition reaches every node
        assert -1 not in bipartition_class(r)

    def test_bad_names(self):
        for bad in ("B2", "D3", "E9", "X1", "A0"):
            with pytest.raises(ValueError):
                rs(bad)

    @pytest.mark.parametrize(
        "name,num", [("A1", 1), ("A2", 3), ("A3", 6), ("D4", 12), ("E6", 36), ("E8", 120)]
    )
    def test_positive_root_counts(self, name, num):
        assert rs(name).num_positive_roots == num

    @pytest.mark.parametrize(
        "name,h", [("A1", 2), ("A2", 3), ("A7", 8), ("D4", 6), ("E6", 12), ("E8", 30)]
    )
    def test_coxeter_numbers(self, name, h):
        assert rs(name).coxeter_number == h


class TestReflectionMatrices:
    def test_a2_generators(self):
        a2 = rs("A2")
        assert reflection_matrix_t(a2, 1) == ((-1, 0), (1, 1))
        assert reflection_matrix_t(a2, 2) == ((1, 1), (0, -1))

    def test_a1_generator(self):
        assert reflection_matrix_t(rs("A1"), 1) == ((-1,),)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            reflection_matrix_t(rs("A2"), 3)

    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_braid_relations(self, name):
        r = rs(name)
        for i, j in itertools.combinations(range(1, r.n + 1), 2):
            order = 3 if r.cartan[i - 1][j - 1] == -1 else 2
            w = weyl_from_word(r, (i, j) * order)
            assert w == identity_element(r)

    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_involutions(self, name):
        r = rs(name)
        for i in range(1, r.n + 1):
            assert weyl_from_word(r, (i, i)) == identity_element(r)


class TestWeylAction:
    def test_s1_on_fw1_a2(self):
        a2 = rs("A2")
        s1 = simple_reflection(a2, 1)
        image = s1.apply(fundamental_weight(a2, 1))
        fw, alpha = fundamental_weight(a2, 1).coords2, simple_root(a2, 1).coords2
        assert image.coords2 == tuple(a - b for a, b in zip(fw, alpha))
        assert image.coords2 == (-2, 2)

    def test_identity_action(self):
        a3 = rs("A3")
        lam = Weight(a3, (2, -4, 6))
        assert identity_element(a3).apply(lam) == lam

    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_w0_on_simple_roots(self, name):
        r = rs(name)
        w0 = longest_element(r)
        nu = nakayama(r)
        for i in range(1, r.n + 1):
            image = w0.apply(simple_root(r, i)).coords2
            assert image == tuple(-a for a in simple_root(r, nu[i - 1]).coords2)

    def test_simple_reflection_formula(self):
        # s_i(λ) = λ − λ(h_i)·α_i on a random-ish weight
        a3 = rs("A3")
        lam = Weight(a3, (4, -2, 6))
        for i in (1, 2, 3):
            k = lam.coords2[i - 1] // 2
            alpha = simple_root(a3, i).coords2
            expect = tuple(a - k * b for a, b in zip(lam.coords2, alpha))
            assert simple_reflection(a3, i).apply(lam).coords2 == expect


class TestWords:
    def test_a2_reduced(self):
        a2 = rs("A2")
        assert is_reduced(a2, (1, 2, 1))
        assert weyl_from_word(a2, (1, 2, 1)).length == 3
        assert not is_reduced(a2, (1, 1))

    @pytest.mark.parametrize("name", ["A3", "D4", "E6", "E8"])
    def test_is_reduced_agrees_with_the_weyl_element(self, name):
        r = rs(name)
        words = [
            tuple((7 * t + 3 * k * k) % r.n + 1 for k in range(length))
            for t in range(20)
            for length in range(6)
        ]
        w0 = longest_element(r).word
        for word in words + [w0, w0[:-1] * 2]:
            assert is_reduced(r, word) == (
                weyl_from_word(r, word).length == len(word)
            ), word

    def test_is_reduced_bad_letter_raises(self):
        with pytest.raises(IndexError):
            is_reduced(rs("A2"), (1, 3))

    @pytest.mark.parametrize(
        "name", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]
    )
    def test_is_reduced_on_random_words(self, name):
        r = rs(name)
        rng = random.Random(name)
        w0 = longest_element(r).word
        words = [
            tuple(rng.randint(1, r.n) for _ in range(rng.randint(0, 2 * r.n)))
            for _ in range(100)
        ]
        # w0 prefixes are reduced, w0 and one more letter never is, and a
        # prefix and one more letter may or may not be
        for t in range(0, len(w0), max(1, len(w0) // 10)):
            words += [w0[:t], w0[:t] + (rng.randint(1, r.n),)]
        words += [w0, w0 + (rng.randint(1, r.n),)]
        assert is_reduced(r, words[-2]) and not is_reduced(r, words[-1])
        for word in words:
            assert is_reduced(r, word) == (
                weyl_from_word(r, word).length == len(word)
            ), word

    @pytest.mark.parametrize("word", [(1, 1, 3), (1, 2, 2, 1, 0), (3, 1, 1)])
    def test_bad_letter_raises_the_walks_error_after_a_descent(self, word):
        # the walk stops at the descent (1, 1) but still checks the rest
        r = rs("A2")
        with pytest.raises(IndexError) as walked:
            rootsys._length_and_word(r, word)
        with pytest.raises(IndexError) as stopped:
            is_reduced(r, word)
        assert str(stopped.value) == str(walked.value)
        assert "out of range 1..2" in str(stopped.value)

    @pytest.mark.parametrize("name", ["A1", "A3", "D4", "E8"])
    def test_neighbors_one_tuple_per_node(self, name):
        r = rs(name)
        for i in range(1, r.n + 1):
            expect = tuple(
                j
                for j in range(1, r.n + 1)
                if j != i and r.cartan[i - 1][j - 1] == -1
            )
            assert r.neighbors(i) == expect
            assert r.neighbors(i) is r.neighbors(i)
        for i in (0, r.n + 1):
            with pytest.raises(IndexError):
                r.neighbors(i)

    def test_a3_longest_word(self):
        a3 = rs("A3")
        w = weyl_from_word(a3, (1, 2, 1, 3, 2, 1))
        assert w.length == 6
        assert w == longest_element(a3)

    def test_word_independence(self):
        a2 = rs("A2")
        assert weyl_from_word(a2, (1, 2, 1)) == weyl_from_word(a2, (2, 1, 2))
        a3 = rs("A3")
        assert weyl_from_word(a3, (1, 2, 1, 3, 2, 1)) == weyl_from_word(
            a3, (2, 1, 3, 2, 1, 3)
        )

    def test_nonreduced_gets_reduced_word(self):
        a2 = rs("A2")
        w = weyl_from_word(a2, (1, 1, 2))
        assert w.length == 1 == len(w.word)
        assert w == simple_reflection(a2, 2)

    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_w0_length(self, name):
        r = rs(name)
        assert longest_element(r).length == r.num_positive_roots

    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_w0_on_fundamental_weights(self, name):
        r = rs(name)
        w0 = longest_element(r)
        nu = nakayama(r)
        for i in range(1, r.n + 1):
            image = w0.apply(fundamental_weight(r, i)).coords2
            assert image == tuple(-a for a in fundamental_weight(r, nu[i - 1]).coords2)


    @pytest.mark.parametrize(
        "name, sha256",
        [
            ("A3", "709e0cf435434ae8ab92415bc733e54055144ca4f88181f6b8455806481a0bc3"),
            ("D4", "bfacadf16c3619ffdb359df5f89f7529a64ddd4bf33160427374e8020f7094de"),
            ("E6", "650ffbc78d6018063c244841b8f5ac2b0f7c442c3d03ec49e822b5e3645214af"),
            ("E7", "76bccdf637fb41042b32d040c905e7f2d81a70de36175b75cac05c8f2ba1b67a"),
            ("E8", "fe3fd021142a35dfdaf1e40146ef2246f2c9856d3ffd90cf982dfd4f7ee99b5f"),
        ],
    )
    def test_w0_greedy_word_pinned(self, name, sha256):
        # the word feeds `qq verify` and the QQ batteries, so it must not
        # drift: the greedy word appends the least i with w(α_i) > 0
        word = longest_element(rs(name)).word
        assert len(word) == rs(name).num_positive_roots
        assert hashlib.sha256(repr(word).encode()).hexdigest() == sha256


class TestNakayama:
    def test_a3(self):
        assert nakayama(rs("A3")) == (3, 2, 1)

    def test_d4_identity(self):
        assert nakayama(rs("D4")) == (1, 2, 3, 4)

    def test_a1_identity(self):
        assert nakayama(rs("A1")) == (1,)

    def test_d5_swaps_fork(self):
        assert nakayama(rs("D5")) == (1, 2, 3, 5, 4)


class TestCoxeterData:
    def test_a3_linear(self):
        # l rises along 1 - 2 - 3 towards the later letters
        d = coxeter_data(rs("A3"), (1, 2, 3))
        assert d.word == (1, 2, 3)
        assert d.l == (0, 1, 2)
        assert d.m == (3, 2, 1)
        assert d.rs.coxeter_number == 4

    def test_a2_values(self):
        d = coxeter_data(rs("A2"), (1, 2))
        assert d.word == (1, 2)
        assert d.l == (0, 1)
        assert d.m == (2, 1)
        assert d.h_c == -3

    def test_a4_zigzag_heights(self):
        # node 3 is the latest letter of both its edges
        d = coxeter_data(rs("A4"), (1, 2, 4, 3))
        assert d.l == (0, 1, 2, 1)

    def test_a3_bipartite(self):
        d = coxeter_data(rs("A3"), (2, 1, 3))
        assert d.c == weyl_from_word(rs("A3"), (2, 1, 3))
        assert d.l == (1, 0, 1)

    def test_from_word_roundtrip(self):
        a3 = rs("A3")
        for word in [(1, 2, 3), (3, 2, 1), (2, 1, 3), (1, 3, 2)]:
            d = coxeter_data(a3, word)
            assert d.c == weyl_from_word(a3, word)
            assert d.word == word

    def test_malformed_word(self):
        for word in [(1, 2), (1, 1, 2), (1, 2, 3, 4), (0, 1, 2), (2, 3, 4)]:
            with pytest.raises(ValueError, match="exactly once"):
                coxeter_data(rs("A3"), word)

    def test_orbits_that_miss_a_root_raise(self, monkeypatch):
        # every orbit one weight short: the exponents count 3 of the 6
        # positive roots, refused by a check that python -O keeps
        real = rootsys.coxeter_orbit
        monkeypatch.setattr(rootsys, "coxeter_orbit", lambda c, i: real(c, i)[:-1])
        with pytest.raises(ValueError, match="give 3 positive roots, not 6"):
            coxeter_data(rs("A3"), (1, 2, 3))

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4", "D5"])
    def test_exponent_sum(self, name):
        r = rs(name)
        # bipartite word: class-0 nodes first, so they are the sinks
        cls = bipartition_class(r)
        d = coxeter_data(r, sorted(range(1, r.n + 1), key=lambda i: cls[i - 1]))
        assert sum(d.m) == r.num_positive_roots
        assert d.l == cls

    def test_commuting_letters_give_equal_data(self):
        for name, one, two in [
            ("A3", (1, 3, 2), (3, 1, 2)),
            ("D4", (1, 3, 4, 2), (4, 1, 3, 2)),
            ("E6", (6, 5, 4, 3, 2, 1), (6, 5, 4, 2, 3, 1)),
        ]:
            a, b = coxeter_data(rs(name), one), coxeter_data(rs(name), two)
            assert a == b and hash(a) == hash(b)
            assert (a.word, b.word) == (one, two)
        assert coxeter_data(rs("A3"), (1, 2, 3)) != coxeter_data(rs("A3"), (3, 2, 1))

    @pytest.mark.parametrize(
        "name", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5"]
    )
    def test_every_word_is_named_by_its_height_function(self, name):
        # l changes by 1 on each Dynkin edge and has least value 0, and one
        # adapted word sorted(nodes, key=l) gives back the same datum
        r = rs(name)
        nodes = range(1, r.n + 1)
        for word in itertools.permutations(nodes):
            d = coxeter_data(r, word)
            assert min(d.l) == 0
            assert all(abs(d.l_of(i) - d.l_of(j)) == 1 for i, j in r.edges())
            assert coxeter_data(r, sorted(nodes, key=d.l_of)) == d, word


@st.composite
def type_and_words(draw):
    name = draw(st.sampled_from(["A2", "A3", "D4"]))
    r = RootSystem.from_name(name)
    word = draw(st.lists(st.integers(1, r.n), min_size=0, max_size=8))
    return r, tuple(word)


class TestProperties:
    @given(type_and_words())
    @settings(max_examples=150, deadline=None)
    def test_length_subadditive_and_matrix_consistent(self, data):
        r, word = data
        w = weyl_from_word(r, word)
        assert w.length <= len(word)
        assert (w.length - len(word)) % 2 == 0
        # the cached word reproduces the matrix
        assert weyl_from_word(r, w.word).mat_t == w.mat_t
        assert len(w.word) == w.length

    @given(type_and_words())
    @settings(max_examples=100, deadline=None)
    def test_inverse(self, data):
        r, word = data
        w = weyl_from_word(r, word)
        assert weyl_product(w, weyl_inverse(w)) == identity_element(r)


# det C in each family: A_n has n + 1, D_n has 4, E_n has 9 - n
DET_C = {f"A{n}": n + 1 for n in range(1, 9)} | {
    f"D{n}": 4 for n in range(4, 9)
} | {f"E{n}": 9 - n for n in (6, 7, 8)}


@st.composite
def any_type_and_words(draw):
    r = RootSystem.from_name(draw(st.sampled_from(ALL_TYPES)))
    word = draw(st.lists(st.integers(1, r.n), min_size=0, max_size=10))
    return r, word


class TestHeightFunctional:
    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_scale_is_det_and_weights_are_integers(self, name):
        r = rs(name)
        den, w = r.height_functional
        assert den == DET_C[name]
        assert len(w) == r.n and all(type(x) is int for x in w)
        # each simple root has doubled height 2: C·w = den·(1, ..., 1)
        assert all(
            sum(r.cartan[i][j] * w[j] for j in range(r.n)) == den
            for i in range(r.n)
        )

    @given(st.sampled_from(ALL_TYPES), st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_root_coordinates(self, name, data):
        r = rs(name)
        lam = data.draw(st.lists(st.integers(-30, 30), min_size=r.n, max_size=r.n))
        den, w = r.height_functional
        assert Fraction(sum(a * b for a, b in zip(w, lam)), den) == sum(
            r.root_coords2(lam)
        )

    @given(any_type_and_words())
    @settings(max_examples=150, deadline=None)
    def test_weyl_from_word_is_the_product_of_reflections(self, data):
        r, word = data
        expected = identity_element(r)
        for i in word:
            expected = weyl_product(expected, simple_reflection(r, i))
        for given_word in (list(word), tuple(word), (i for i in word)):
            w = weyl_from_word(r, given_word)
            assert w == expected
            assert w.length == expected.length == len(w.word)
            assert weyl_from_word(r, w.word) == w

    def test_bad_letter_still_raises_after_good_words(self):
        r = rs("A2")
        weyl_from_word(r, (1, 2))
        for _ in range(2):
            with pytest.raises(IndexError):
                weyl_from_word(r, (1, 3))


@st.composite
def integer_matrices(draw):
    """Square integer matrices up to 6 x 6; one in two has two equal rows,
    so singular ones come up often."""
    size = draw(st.integers(0, 6))
    mat = [
        draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
        for _ in range(size)
    ]
    if size >= 2 and draw(st.booleans()):
        mat[draw(st.integers(1, size - 1))] = mat[0]
    return tuple(map(tuple, mat))


class TestGaussJordan:
    """The cofactor adjugate against the Gauss–Jordan oracle, on Cartan
    matrices and on Weyl matrices, and A·adj A = det A·I on any integer
    matrix."""

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_cartan_inverse_and_det(self, name):
        r = rs(name)
        assert_adjugate_is_det_times_inverse(r.cartan)
        assert _adjugate(r.cartan)[1] == DET_C[name]
        # α_i has doubled root coordinates 2·e_i
        for i in range(1, r.n + 1):
            assert r.root_coords2(simple_root(r, i).coords2) == tuple(
                2 * (j == i) for j in range(1, r.n + 1)
            )

    @pytest.mark.parametrize("name", ["A3", "D5", "E6"])
    def test_weyl_matrix_has_integer_inverse(self, name):
        w0 = longest_element(rs(name))
        assert_adjugate_is_det_times_inverse(w0.mat_t)
        adj, det = _adjugate(w0.mat_t)
        assert det in (1, -1)
        # w0 is an involution
        assert tuple(tuple(det * x for x in row) for row in adj) == w0.mat_t

    @given(integer_matrices())
    @settings(max_examples=150, deadline=None)
    def test_times_matrix_is_det_times_identity(self, mat):
        adj, det = _adjugate(mat)
        n = len(mat)
        for a, b in ((mat, adj), (adj, mat)):
            assert all(
                sum(a[i][k] * b[k][j] for k in range(n)) == det * (i == j)
                for i in range(n)
                for j in range(n)
            )
        if det:
            assert_adjugate_is_det_times_inverse(mat)

    def test_failing_twin(self, monkeypatch):
        cartan = rs("A3").cartan
        assert_adjugate_is_det_times_inverse(cartan)
        monkeypatch.setattr(rootsys, "_minor", sign_flipped(rootsys._minor))
        adj, _ = _adjugate(cartan)
        inv, det = gauss_jordan(cartan)
        assert adj != tuple(tuple(det * x for x in row) for row in inv)
