"""Root-system and Weyl-group arithmetic."""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.rootsys import (
    CoxeterDatum,
    RootSystem,
    Weight,
    coxeter_data,
    coxeter_data_from_word,
    fundamental_weight,
    identity_element,
    is_reduced,
    longest_element,
    orientation_from_word,
    simple_reflection,
    simple_root,
    weyl_from_word,
    zero_weight,
)
from clusterqq.rootsys import _gauss_jordan
from test_weyl_walk import nakayama

ALL_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + [
    "E6",
    "E7",
    "E8",
]
SMALL_TYPES = ["A1", "A2", "A3", "A4", "D4", "D5"]


def rs(name):
    return RootSystem.from_name(name)


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
        assert -1 not in r.bipartition_class()

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
        assert a2.reflection_matrix_t(1) == ((-1, 0), (1, 1))
        assert a2.reflection_matrix_t(2) == ((1, 1), (0, -1))

    def test_a1_generator(self):
        assert rs("A1").reflection_matrix_t(1) == ((-1,),)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            rs("A2").reflection_matrix_t(3)

    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_braid_relations(self, name):
        r = rs(name)
        for i, j in itertools.combinations(range(1, r.n + 1), 2):
            order = 3 if r.cartan[i - 1][j - 1] == -1 else 2
            w = weyl_from_word(r, (i, j) * order)
            assert w.is_identity

    @pytest.mark.parametrize("name", SMALL_TYPES)
    def test_involutions(self, name):
        r = rs(name)
        for i in range(1, r.n + 1):
            assert weyl_from_word(r, (i, i)).is_identity


class TestWeylAction:
    def test_s1_on_fw1_a2(self):
        a2 = rs("A2")
        s1 = simple_reflection(a2, 1)
        image = s1.apply(fundamental_weight(a2, 1))
        assert image == fundamental_weight(a2, 1) - simple_root(a2, 1)
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
            assert w0.apply(simple_root(r, i)) == -simple_root(r, nu[i - 1])

    def test_simple_reflection_formula(self):
        # s_i(λ) = λ − λ(h_i)·α_i on a random-ish weight
        a3 = rs("A3")
        lam = Weight(a3, (4, -2, 6))
        for i in (1, 2, 3):
            expect = lam - simple_root(a3, i).scale(lam.pairing2(i) // 2)
            assert simple_reflection(a3, i).apply(lam) == expect


class TestWords:
    def test_a2_reduced(self):
        a2 = rs("A2")
        assert is_reduced(a2, (1, 2, 1))
        assert weyl_from_word(a2, (1, 2, 1)).length == 3
        assert not is_reduced(a2, (1, 1))

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
            assert w0.apply(fundamental_weight(r, i)) == -fundamental_weight(
                r, nu[i - 1]
            )


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
        # orientation 1 <- 2 <- 3, adapted word (1,2,3)
        d = coxeter_data(rs("A3"), [(2, 1), (3, 2)])
        assert d.word == (1, 2, 3)
        assert d.l == (0, 1, 2)
        assert d.m == (3, 2, 1)
        assert d.h == 4

    def test_a2_values(self):
        d = coxeter_data(rs("A2"), [(2, 1)])
        assert d.word == (1, 2)
        assert d.l == (0, 1)
        assert d.m == (2, 1)
        assert d.h_c == -3

    def test_a4_zigzag_heights(self):
        # orientation 1 <- 2 <- 3 -> 4
        d = coxeter_data(rs("A4"), [(2, 1), (3, 2), (3, 4)])
        assert d.l == (0, 1, 2, 1)

    def test_a3_bipartite(self):
        d = coxeter_data(rs("A3"), [(1, 2), (3, 2)])
        assert d.c == weyl_from_word(rs("A3"), (2, 1, 3))
        assert d.l == (1, 0, 1)

    def test_from_word_roundtrip(self):
        a3 = rs("A3")
        for word in [(1, 2, 3), (3, 2, 1), (2, 1, 3), (1, 3, 2)]:
            d = coxeter_data_from_word(a3, word)
            assert d.c == weyl_from_word(a3, word)

    def test_malformed_orientation(self):
        with pytest.raises(ValueError):
            coxeter_data(rs("A3"), [(2, 1)])
        with pytest.raises(ValueError):
            coxeter_data(rs("A3"), [(2, 1), (3, 2), (1, 3)])

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4", "D5"])
    def test_exponent_sum(self, name):
        r = rs(name)
        # alternating orientation via bipartition: class-0 nodes are sinks
        cls = r.bipartition_class()
        orient = [
            (i, j) if cls[j - 1] == 0 else (j, i) for i, j in r.edges()
        ]
        d = coxeter_data(r, orient)
        assert sum(d.m) == r.num_positive_roots
        assert 0 in d.l

    def test_string_edges(self):
        d = coxeter_data(rs("A2"), ["2->1"])
        assert d.word == (1, 2)


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
        assert (w * w.inverse()).is_identity


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
            expected = expected * simple_reflection(r, i)
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


class TestGaussJordan:
    """The one exact elimination, on Cartan matrices and on Weyl matrices."""

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_cartan_inverse_and_det(self, name):
        r = rs(name)
        inv, det = _gauss_jordan(r.cartan)
        assert det == DET_C[name]
        assert inv == r.cartan_inverse
        assert all(
            sum(r.cartan[i][k] * inv[k][j] for k in range(r.n)) == (i == j)
            for i in range(r.n)
            for j in range(r.n)
        )

    @pytest.mark.parametrize("name", ["A3", "D5", "E6"])
    def test_weyl_matrix_has_integer_inverse(self, name):
        r = rs(name)
        w0 = longest_element(r)
        inv, det = _gauss_jordan(w0.mat_t)
        assert det in (1, -1)
        assert all(x.denominator == 1 for row in inv for x in row)
        # w0 is an involution
        assert inv == w0.mat_t
