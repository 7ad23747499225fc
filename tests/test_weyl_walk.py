"""Weyl elements from the ρ-walk against the two-matrix implementations.

The oracles below carry a second matrix per element, on simple-root
coordinates, and read everything off roots: the length counts the
positive roots sent negative, a non-reduced word is replaced by stripping
descents found by applying the root matrix to each α_i, w_0 is built by
matrix products and ν is read off w_0(α_i) = −α_ν(i).  ``clusterqq.rootsys``
keeps one matrix per element and gets lengths, words and w_0 from
u = w⁻¹(ρ) alone, and the Coxeter exponents from the weight orbits; it
must agree with the oracles on every input here.
"""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.rootsys import (
    RootSystem,
    Weight,
    _identity,
    _mat_vec,
    coxeter_data,
    coxeter_orbit,
    fundamental_weight,
    longest_element,
    weyl_from_word,
)
from oracles import mat_mul, reflection_matrix_t, weyl_inverse, weyl_product

ALL_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + [
    "E6",
    "E7",
    "E8",
]


def rs(name):
    return RootSystem.from_name(name)


# ---------------------------------------------------------------------------
# oracles: a root matrix beside the weight matrix
# ---------------------------------------------------------------------------


def reflection_matrix_root(r, i):
    """Simple reflection on simple-root coordinates (transpose of t_i)."""
    t = reflection_matrix_t(r, i)
    return tuple(tuple(t[j][k] for j in range(r.n)) for k in range(r.n))


def unit(r, i):
    return tuple(1 if j == i - 1 else 0 for j in range(r.n))


@lru_cache(maxsize=None)
def positive_roots(r):
    """All positive roots in simple-root coordinates, via reflection closure."""
    simple = [unit(r, i) for i in range(1, r.n + 1)]
    refl = [reflection_matrix_root(r, i) for i in range(1, r.n + 1)]
    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = {_mat_vec(m, beta) for beta in frontier for m in refl} - roots
        roots |= new
        frontier = new
    return tuple(sorted(x for x in roots if all(c >= 0 for c in x)))


def inversion_count(r, mat_root):
    return sum(
        all(x <= 0 for x in _mat_vec(mat_root, beta)) for beta in positive_roots(r)
    )


def canonical_word(r, mat_t, mat_root):
    """A reduced word, by repeatedly stripping the least descent."""
    letters = []
    ident = _identity(r.n)
    while mat_t != ident:
        i = next(
            i
            for i in range(1, r.n + 1)
            if all(x <= 0 for x in _mat_vec(mat_root, unit(r, i)))
        )
        letters.append(i)
        mat_t = mat_mul(mat_t, reflection_matrix_t(r, i))
        mat_root = mat_mul(mat_root, reflection_matrix_root(r, i))
    return tuple(reversed(letters))


def finalize(r, mat_t, mat_root, word):
    """(mat_t, mat_root, word, length), the word made reduced if need be."""
    length = inversion_count(r, mat_root)
    if len(word) != length:
        word = canonical_word(r, mat_t, mat_root)
    return mat_t, mat_root, word, length


def oracle_from_word(r, word):
    mat_t = mat_root = _identity(r.n)
    for i in word:
        mat_t = mat_mul(mat_t, reflection_matrix_t(r, i))
        mat_root = mat_mul(mat_root, reflection_matrix_root(r, i))
    return finalize(r, mat_t, mat_root, tuple(word))


def oracle_mul(r, a, b):
    return finalize(r, mat_mul(a[0], b[0]), mat_mul(a[1], b[1]), a[2] + b[2])


@lru_cache(maxsize=None)
def oracle_longest(r):
    """w_0 by greedy matrix products: append the least i with w(α_i) > 0."""
    mat_t = mat_root = _identity(r.n)
    word = []
    for _ in range(len(positive_roots(r))):
        # w(α_i) is column i of the root matrix
        i = next(
            i for i in range(1, r.n + 1) if all(row[i - 1] >= 0 for row in mat_root)
        )
        mat_t = mat_mul(mat_t, reflection_matrix_t(r, i))
        mat_root = mat_mul(mat_root, reflection_matrix_root(r, i))
        word.append(i)
    return finalize(r, mat_t, mat_root, tuple(word))


@lru_cache(maxsize=None)
def nakayama(r):
    """The involution ν with w_0(α_i) = −α_ν(i) (1-based tuple)."""
    w0_root = oracle_longest(r)[1]
    simple = [unit(r, j) for j in range(1, r.n + 1)]
    return tuple(
        simple.index(tuple(-x for x in _mat_vec(w0_root, unit(r, i)))) + 1
        for i in range(1, r.n + 1)
    )


def oracle_exponents(r, c_mat_t):
    """m_i = the least k with c^k(ϖ_i) = −ϖ_ν(i)."""
    nu = nakayama(r)
    h = 2 * len(positive_roots(r)) // r.n
    m = []
    for i in range(1, r.n + 1):
        target = tuple(-x for x in fundamental_weight(r, nu[i - 1]).coords2)
        lam = fundamental_weight(r, i).coords2
        k = 0
        while lam != target:
            lam = _mat_vec(c_mat_t, lam)
            k += 1
            assert k <= 2 * h
        m.append(k)
    return tuple(m)


def element_fields(w):
    return w.mat_t, w.word, w.length


def oracle_fields(o):
    return o[0], o[2], o[3]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@st.composite
def type_and_two_words(draw):
    r = rs(draw(st.sampled_from(ALL_TYPES)))
    word = st.lists(st.integers(1, r.n), min_size=0, max_size=12).map(tuple)
    return r, draw(word), draw(word)


class TestElements:
    @given(type_and_two_words())
    @settings(max_examples=200, deadline=None)
    def test_word_product_and_inverse(self, data):
        r, a, b = data
        wa, wb = weyl_from_word(r, a), weyl_from_word(r, b)
        oa, ob = oracle_from_word(r, a), oracle_from_word(r, b)
        assert element_fields(wa) == oracle_fields(oa)
        assert element_fields(wb) == oracle_fields(ob)
        assert element_fields(weyl_product(wa, wb)) == oracle_fields(
            oracle_mul(r, oa, ob)
        )
        assert element_fields(weyl_inverse(wa)) == oracle_fields(
            oracle_from_word(r, tuple(reversed(oa[2])))
        )

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_longest_element(self, name):
        r = rs(name)
        assert element_fields(longest_element(r)) == oracle_fields(oracle_longest(r))
        assert r.num_positive_roots == len(positive_roots(r))


# ---------------------------------------------------------------------------
# Coxeter data
# ---------------------------------------------------------------------------


def coxeter_words():
    for name in ["A1", "A2", "A3", "A4", "A5", "D4"]:
        r = rs(name)
        for word in itertools.permutations(range(1, r.n + 1)):
            yield name, word
    rng = random.Random(20260)
    for name in ["E6", "E7", "E8"]:
        for _ in range(8):
            yield name, tuple(rng.sample(range(1, rs(name).n + 1), rs(name).n))


class TestCoxeterData:
    def test_fields_match_the_nakayama_route(self):
        # the height function comes from a walk of the Dynkin tree; c, h,
        # m and h_c are recomputed here
        for name, word in coxeter_words():
            r = rs(name)
            d = coxeter_data(r, word)
            c = oracle_from_word(r, word)
            m = oracle_exponents(r, c[0])
            assert element_fields(d.c) == oracle_fields(c), (name, word)
            assert r.coxeter_number == 2 * len(positive_roots(r)) // r.n
            assert d.m == m, (name, word)
            assert d.h_c == -max(d.l[i] + 2 * m[i] - 1 for i in range(r.n))


ORBIT_TYPES = [f"A{n}" for n in range(1, 9)] + ["D4", "D5", "D6", "E6", "E7", "E8"]


def standard_and_shuffled(name):
    """The word 1, 2, ..., n and one shuffled Coxeter word of the type."""
    n = rs(name).n
    shuffled = random.Random(f"orbit:{name}").sample(range(1, n + 1), n)
    return [tuple(range(1, n + 1)), tuple(shuffled)]


class TestCoxeterOrbit:
    @pytest.mark.parametrize("name", ORBIT_TYPES)
    def test_walk_ends_at_the_lowest_weight(self, name):
        r = rs(name)
        w0 = longest_element(r)
        for word in standard_and_shuffled(name):
            d = coxeter_data(r, word)
            assert d.c == weyl_from_word(r, word)
            oracle_m = oracle_exponents(r, d.c.mat_t)
            total = 0
            for i in range(1, r.n + 1):
                orbit = coxeter_orbit(d.c, i)
                fw = fundamental_weight(r, i)
                assert orbit[0] == fw.coords2
                assert orbit[-1] == w0.apply(fw).coords2
                assert all(any(x > 0 for x in lam) for lam in orbit[:-1])
                assert all(
                    d.c.apply(Weight(r, a)).coords2 == b
                    for a, b in zip(orbit, orbit[1:])
                )
                assert len(orbit) - 1 == d.m_of(i) == oracle_m[i - 1]
                total += len(orbit) - 1
            assert total == r.num_positive_roots == len(positive_roots(r))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_standard_type_a_exponents(self, n):
        r = rs(f"A{n}")
        c = weyl_from_word(r, range(1, n + 1))
        assert [len(coxeter_orbit(c, i)) - 1 for i in range(1, n + 1)] == [
            n + 1 - i for i in range(1, n + 1)
        ]

    @pytest.mark.parametrize("i", [1, 2])
    def test_raises_off_the_coxeter_elements(self, i):
        # s_1 alone never takes ϖ_1 or ϖ_2 to an antidominant weight
        a2 = rs("A2")
        with pytest.raises(ValueError, match="does not reach its lowest weight"):
            coxeter_orbit(weyl_from_word(a2, (1,)), i)
