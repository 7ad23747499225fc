"""Rank-one segments, Ptolemy exchange, and unique compatible factorization."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.qseries import (
    KSeries,
    QEvaluator,
    a_monomial,
    bracket,
    key_inv,
    key_mul,
    key_one,
    psi_mul,
    psi_var,
)
from clusterqq.rootsys import RootSystem
from clusterqq.sl2 import (
    INF,
    Diagonal,
    Segment,
    compatible,
    diagonal_variable,
    exchange_relations_at,
    factorize,
    parse_monomial,
    ptolemy_check,
    quadrilateral_check,
    segment_qchar,
    x_finite,
    x_minus,
    x_plus,
)

A1 = RootSystem.from_name("A1")


@pytest.fixture(scope="module")
def ev():
    return QEvaluator(A1, depth=6)


def nested_finite_oracle(r, s, d):
    """Ψ_{2r}Ψ_{2(s+1)}^{-1}(1+A⁻¹_{2(s+1)}(...(1+A⁻¹_{2r+2}))), built directly."""
    cutoff = Fraction(-2 * max(d, s - r + 2))
    ser = KSeries.one(A1, cutoff)
    for b in range(2 * r + 2, 2 * s + 3, 2):
        ser = KSeries.one(A1, cutoff) + ser.mul_monomial(
            key_inv(a_monomial(A1, 1, b))
        )
    return ser.mul_monomial(
        ((0,), psi_mul(psi_var(1, 2 * r), psi_var(1, 2 * s + 2, -1)))
    )


class TestSegmentSeries:
    def test_positive_half_is_monomial(self):
        s = segment_qchar(Segment(3, INF), 4)
        assert s.terms == {((0,), psi_var(1, 6)): 1}

    def test_unit_segments(self):
        assert segment_qchar(Segment(2, 1), 4).terms == {key_one(1): 1}
        assert segment_qchar(Segment(-INF, INF), 4).terms == {key_one(1): 1}

    def test_length_one_two_term_character(self):
        s = segment_qchar(Segment(0, 0), 6)
        assert s.terms == {
            ((0,), psi_mul(psi_var(1, 0), psi_var(1, 2, -1))): 1,
            ((-4,), psi_mul(psi_var(1, 2, -1), psi_var(1, 4))): 1,
        }

    @pytest.mark.parametrize("r,s", [(0, 0), (-2, 1), (1, 4), (-3, -1)])
    def test_finite_closed_sum_matches_nested_product(self, r, s):
        assert segment_qchar(Segment(r, s), 6).matches(
            nested_finite_oracle(r, s, 6)
        )

    def test_finite_depth_independent(self):
        a = segment_qchar(Segment(-1, 2), 5)
        b = segment_qchar(Segment(-1, 2), 9)
        assert a.terms == b.terms

    @pytest.mark.parametrize("v", [-2, 0, 3])
    def test_negative_half_matches_q_variable(self, ev, v):
        # the class [-inf, v-2] is the raw q-variable for the reflected
        # fundamental weight at height 2v
        assert segment_qchar(Segment(-INF, v - 2), 6).matches(
            ev.q_raw((1,), 1, 2 * v)
        )

    def test_top_is_ell_weight(self):
        for seg in [Segment(0, 3), Segment(-INF, 2), Segment(1, INF)]:
            key, coeff = segment_qchar(seg, 5).top()
            assert coeff == 1
            assert key == seg.ell_weight()


class TestCompatibility:
    def test_disjoint_with_gap(self):
        assert compatible(Segment(0, 2), Segment(4, 5))

    def test_interleaved(self):
        assert not compatible(Segment(0, 2), Segment(1, 3))
        assert not compatible(Segment(1, 3), Segment(0, 2))

    def test_nested(self):
        assert compatible(Segment(0, 5), Segment(1, 2))

    def test_adjacent_is_interleaved(self):
        # union [0,1]∪[2,5] = [0,5] properly contains both
        assert not compatible(Segment(0, 1), Segment(2, 5))

    def test_unit_always_compatible(self):
        assert compatible(Segment(5, 1), Segment(0, 3))

    def test_agrees_with_diagonal_noncrossing(self):
        ends = [-INF, -2, -1, 0, 1, 2, INF]
        segs = [
            Segment(a, b)
            for a in ends
            for b in ends
            if a <= b and a != INF and b != -INF
        ]
        for s1, s2 in itertools.product(segs, segs):
            expect = not s1.diagonal().crosses(s2.diagonal())
            assert compatible(s1, s2) == expect, (s1, s2)


class TestPtolemy:
    def test_t_system_instance(self):
        cert = ptolemy_check(0, 1, 1, 2, 6)
        assert cert["ok"]
        # the correction term is the bare bracket of weight -4ϖ
        lhs = segment_qchar(Segment(0, 1), 6) * segment_qchar(Segment(1, 2), 6)
        rhs = segment_qchar(Segment(0, 2), 6) * segment_qchar(Segment(1, 1), 6)
        diff = lhs - rhs
        assert diff.terms == {((-8,), ()): 1}

    @pytest.mark.parametrize("s", [-2, 0, 3])
    def test_two_term_instance(self, s):
        # r = -inf, s' = +inf, r' = s+1: no correction-free term survives
        assert ptolemy_check(-INF, s, s + 1, INF, 6)["ok"]

    def test_baxter_instance(self):
        # r = s = r'-1, s' = +inf
        assert ptolemy_check(0, 0, 1, INF, 6)["ok"]

    def test_grid(self):
        finite = range(-3, 4)
        count = 0
        for rp, s in itertools.product(finite, finite):
            if rp > s + 1:
                continue
            for r in [-INF] + [x for x in finite if x < rp]:
                for sp in [x for x in finite if x > s] + [INF]:
                    assert ptolemy_check(r, s, rp, sp, 4)["ok"], (r, s, rp, sp)
                    count += 1
        assert count > 100

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            ptolemy_check(1, 0, 0, 2, 4)
        with pytest.raises(ValueError):
            ptolemy_check(0, 1, 3, 4, 4)  # r' > s+1
        with pytest.raises(ValueError):
            ptolemy_check(-INF, 0, INF, INF, 4)

    @pytest.mark.parametrize("d", [0, -3])
    def test_depth_below_one_raises(self, d):
        # both sides would keep no terms, so nothing would be compared
        with pytest.raises(ValueError):
            ptolemy_check(-INF, 0, 1, INF, d)


class TestExchangeRelations:
    @pytest.mark.parametrize("r", [0, 2, -1])
    def test_all_families_certify(self, r):
        certs = exchange_relations_at(r, d=6, span=2)
        assert len(certs) == 6
        assert all(c["ok"] for c in certs)

    def test_x_variables_match_renormalized_q_variables(self, ev):
        assert x_plus(2, 6).matches(ev.q_bar((), 1, 4))
        assert x_plus(-1, 6).matches(ev.q_bar((), 1, -2))
        assert x_minus(1, 6).matches(ev.q_bar((1,), 1, 4))
        assert x_minus(-2, 6).matches(ev.q_bar((1,), 1, -2))

    @pytest.mark.parametrize("r,s", [(0, 1), (-2, 2), (1, 3)])
    def test_finite_variable_from_half_infinite_ones(self, r, s):
        lhs = x_minus(s, 6) * x_plus(r, 6)
        rhs = x_minus(r - 1, 6) * x_plus(s + 1, 6)
        assert x_finite(r, s, 6).matches(lhs - rhs)

    def test_quadrilateral_relations(self):
        quads = [
            (-INF, 0, 3, INF),
            (-INF, -1, 2, 5),
            (-2, 0, 3, 7),
            (-3, -1, 0, INF),
            (-INF, 0, 1, INF),
        ]
        for q in quads:
            assert quadrilateral_check(*q, d=6)["ok"], q

    def test_edge_diagonals_are_unit(self):
        assert diagonal_variable(Diagonal(-INF, INF), 4).terms == {key_one(1): 1}
        assert diagonal_variable(Diagonal(3, 4), 4).terms == {key_one(1): 1}


def brute_force_factorizations(pos, neg):
    """All segment multisets with the given open/close height multisets."""
    if not neg:
        return [tuple(sorted(Segment(p, INF) for p in pos))]
    out = []
    n, rest = neg[0], neg[1:]
    choices = [None] + sorted({p for p in pos if p <= n})
    for p in choices:
        if p is None:
            seg = Segment(-INF, n - 1)
            remaining = list(pos)
        else:
            seg = Segment(p, n - 1)
            remaining = list(pos)
            remaining.remove(p)
        for tail in brute_force_factorizations(remaining, rest):
            out.append(tuple(sorted(tail + (seg,))))
    return sorted(set(out))


class TestFactorize:
    def test_four_prefundamental_example(self):
        segs, lam = factorize(parse_monomial("2:1 4:1 -3:-1 -5:-1"))
        assert segs == (
            Segment(-INF, -6),
            Segment(-INF, -4),
            Segment(2, INF),
            Segment(4, INF),
        )
        assert lam == (0,)

    def test_single_finite_segment(self):
        for r, s in [(0, 1), (-2, 3)]:
            key = ((0,), psi_mul(psi_var(1, 2 * r), psi_var(1, 2 * s, -1)))
            segs, _ = factorize(key)
            assert segs == (Segment(r, s - 1),)

    def test_constant_monomial(self):
        assert factorize(((6,), ())) == ((), (6,))

    def test_nested_pairing(self):
        segs, _ = factorize(parse_monomial("0:1 2:1 4:-1 6:-1"))
        assert segs == (Segment(0, 5), Segment(2, 3))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_output_compatible_and_weight_sound(self, data):
        heights = data.draw(
            st.dictionaries(
                st.integers(-5, 5), st.integers(-2, 2).filter(bool), max_size=6
            )
        )
        psi = ()
        for h, e in heights.items():
            psi = psi_mul(psi, psi_var(1, 2 * h, e))
        segs, lam = factorize(((0,), psi))
        for a, b in itertools.combinations(segs, 2):
            assert compatible(a, b), (a, b)
        acc = key_one(1)
        for seg in segs:
            acc = key_mul(acc, seg.ell_weight())
        assert acc == ((0,), psi)
        assert lam == (0,)

    def test_unique_compatible_pairing(self):
        cases = [
            ([0, 2], [4, 6]),
            ([0, 2], [1, 6]),
            ([0], [-2, 3]),
            ([0, 1, 2], [3]),
            ([-1, 1], [0, 2, 4]),
        ]
        for pos, neg in cases:
            key = ((0,), ())
            psi = ()
            for p in pos:
                psi = psi_mul(psi, psi_var(1, 2 * p))
            for n in neg:
                psi = psi_mul(psi, psi_var(1, 2 * n, -1))
            got, _ = factorize(((0,), psi))
            good = [
                f
                for f in brute_force_factorizations(pos, neg)
                if all(
                    compatible(a, b) for a, b in itertools.combinations(f, 2)
                )
            ]
            assert good == [tuple(sorted(got))], (pos, neg)

    def test_segments_are_prime(self):
        # a segment class never refactors, and its weight space one level
        # below the top is one-dimensional (when present at all)
        for seg in [Segment(0, 4), Segment(-INF, 1), Segment(2, INF)]:
            refac, _ = factorize(seg.ell_weight())
            assert refac == (seg,)
            series = segment_qchar(seg, 5)
            top_ht = series.max_ht()
            level1 = [
                k
                for k in series.terms
                if series._ht(k) == top_ht - 2
            ]
            assert len(level1) <= 1
            if seg.r == -INF or seg.is_finite:
                assert len(level1) == 1

    def test_incompatible_product_is_not_a_single_class(self):
        # interleaved segments: the series product has strictly more
        # content than the class of the product of their top monomials
        a, b = Segment(0, 2), Segment(1, 3)
        prod = segment_qchar(a, 6) * segment_qchar(b, 6)
        segs, _ = factorize(key_mul(a.ell_weight(), b.ell_weight()))
        assert segs == (Segment(0, 3), Segment(1, 2))
        rebuilt = segment_qchar(segs[0], 6) * segment_qchar(segs[1], 6)
        assert not prod.matches(rebuilt)

    def test_compatible_product_reconstructs(self):
        a, b = Segment(0, 3), Segment(1, 2)
        prod = segment_qchar(a, 6) * segment_qchar(b, 6)
        segs, _ = factorize(prod.top()[0])
        assert segs == (a, b)
        rebuilt = segment_qchar(a, 6) * segment_qchar(b, 6)
        assert prod.matches(rebuilt)
