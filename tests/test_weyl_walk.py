"""Weyl elements from the ρ-walk against the two-matrix implementations.

The root-matrix oracles of ``oracles.py`` carry a second matrix per
element, on simple-root coordinates, and read everything off roots: the
length counts the positive roots sent negative, a non-reduced word is
replaced by stripping descents found by applying the root matrix to each
α_i, w_0 is built by matrix products and ν is read off
w_0(α_i) = −α_ν(i).  ``clusterqq.rootsys`` keeps one matrix per element
and gets lengths, words and w_0 from u = w⁻¹(ρ) alone, and the Coxeter
exponents from the weight orbits; it must agree with the oracles on
every input here.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.rootsys import (
    Weight,
    coxeter_data,
    coxeter_orbit,
    fundamental_weight,
    longest_element,
    weyl_from_word,
)
from oracles import (
    ALL_TYPES,
    oracle_exponents,
    oracle_from_word,
    oracle_longest,
    oracle_mul,
    positive_roots,
    rs,
    weyl_inverse,
    weyl_product,
)


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
