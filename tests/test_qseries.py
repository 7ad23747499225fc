"""Truncated series ring, Q-variables, QQ and three-term relations."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from clusterqq.gvector import f_labels, knit_gvectors
from clusterqq.qseries import (
    FIELD_BITS,
    CertificationError,
    KSeries,
    QEvaluator,
    TruncationError,
    bracket,
    key_mul,
    key_one,
    omega_lam2,
    psi_mul,
    psi_var,
    qq_check,
    qqstar_check,
)
from clusterqq.quiver import build_coxeter_quiver
from clusterqq.rootsys import (
    coxeter_data,
    fundamental_weight,
    simple_root,
)
from oracles import (
    A3_SEED_LABELS,
    ALL_TYPES,
    a_monomial,
    add_two_sided,
    ht,
    key_inv,
    matches_two_sided,
    max_ht,
    rs,
    tau,
    weight_of,
    y_monomial,
)


A1, A2, A3 = rs("A1"), rs("A2"), rs("A3")


def mono(r, key, depth=6, coeff=1):
    return KSeries(r, {key: coeff}, Fraction(-2 * depth))


def one(r, depth=6):
    return KSeries.one(r, Fraction(-2 * depth))


def a_inv(r, i, rr):
    return key_inv(a_monomial(r, i, rr))


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------


class TestMonomials:
    def test_y_weight(self):
        for r, i in [(A2, 1), (A3, 2)]:
            assert y_monomial(r, i, 5)[0] == fundamental_weight(r, i).coords2

    def test_a_weight(self):
        for r, i in [(A1, 1), (A2, 2), (A3, 3)]:
            assert a_monomial(r, i, 0)[0] == simple_root(r, i).coords2

    def test_a_psi_part_rank_one(self):
        # in rank one the Ψ-part of A telescopes to Ψ_{r-2}/Ψ_{r+2}
        _, psi = a_monomial(A1, 1, 0)
        assert psi == (((1, -2), 1), ((1, 2), -1))

    def test_highest_weight_ratio_identity(self):
        # Y_{i,q^r}·A_{i,q^{r-1}}^{-1} equals
        # [ϖ_i-α_i]·Ψ̃_{i,q^{r-3}}/Ψ̃_{i,q^{r-1}},
        # with Ψ̃_{i,q^s} = Ψ_{i,q^s}^{-1}·∏_{j~i} Ψ_{j,q^{s+1}}
        def psi_tilde(r, i, s):
            p = psi_var(i, s, -1)
            for j in r.neighbors(i):
                p = psi_mul(p, psi_var(j, s + 1))
            return ((0,) * r.n, p)

        for r, i in [(A2, 1), (A2, 2), (A3, 2)]:
            lam2 = tuple(
                a - b
                for a, b in zip(
                    fundamental_weight(r, i).coords2, simple_root(r, i).coords2
                )
            )
            lhs = key_mul(y_monomial(r, i, 0), key_inv(a_monomial(r, i, -1)))
            rhs = key_mul(
                bracket(lam2),
                key_mul(psi_tilde(r, i, -3), key_inv(psi_tilde(r, i, -1))),
            )
            assert lhs == rhs

    def test_omega_of_psi_monomial(self):
        psi = key_mul(
            ((0, 0), psi_var(1, 4)), ((0, 0), psi_var(2, -3, 2))
        )[1]
        assert omega_lam2(A2, psi) == (4, -6)


# ---------------------------------------------------------------------------
# series arithmetic
# ---------------------------------------------------------------------------


class TestSeries:
    def test_inverse_roundtrip(self):
        x = one(A2) + mono(A2, a_inv(A2, 1, 0)) + mono(
            A2, a_inv(A2, 2, 3), coeff=-2
        )
        y = x * x.inverse()
        assert y.matches(one(A2))

    def test_truncation_is_tracked(self):
        x = one(A2, depth=2) + mono(A2, a_inv(A2, 1, 0), depth=2)
        y = one(A2, depth=6)
        # the product forgets nothing above the coarser cutoff
        assert (x * y).cutoff2 == Fraction(-4)

    def test_matches_needs_a_term_above_the_cutoff(self):
        low = mono(A2, a_inv(A2, 1, 0), depth=3)  # height -2, cutoff -6
        empty = KSeries.zero(A2, Fraction(-2))
        assert not empty.matches(KSeries.zero(A2, Fraction(-2)))
        # common cutoff -2: neither side has a term above it
        assert not low.matches(empty) and not empty.matches(low)
        assert low.matches(low.clamped(Fraction(-4)))

    def test_top_reads_the_kept_order(self):
        low = mono(A1, ((-2,), psi_var(1, 4, 3)))
        x = one(A1) + low
        assert x.top() == (key_one(1), 1)
        assert x._ordered is not None
        assert (x * low).top() == (((-2,), psi_var(1, 4, 3)), 1)
        with pytest.raises(TruncationError, match="no terms above its cutoff"):
            KSeries.zero(A1, Fraction(-4)).top()
        tied = x + mono(A1, ((0,), psi_var(1, 0)), coeff=2)
        with pytest.raises(TruncationError, match="leading term is not unique"):
            tied.top()

    @pytest.mark.parametrize("c0", [2, -2, 3])
    def test_inverse_needs_a_unit_leading_coefficient(self, c0):
        x = mono(A2, key_one(2), coeff=c0) + mono(A2, a_inv(A2, 1, 0))
        with pytest.raises(
            TruncationError, match=f"^cannot invert leading coefficient {c0}$"
        ):
            x.inverse()

    def test_inverse_of_a_non_unique_top_raises(self, monkeypatch):
        # two terms at height 0; a _top that returns one of them leaves
        # the other in eps at height 0, where its powers never vanish
        x = one(A1) + mono(A1, ((0,), psi_var(1, 0)))
        first = next(iter(x._t.items()))
        monkeypatch.setattr(KSeries, "_top", lambda self: first)
        products = []
        real_mul = KSeries.__mul__

        def bounded_mul(a, b):
            products.append(1)
            assert len(products) < 50, "inverse kept multiplying"
            return real_mul(a, b)

        monkeypatch.setattr(KSeries, "__mul__", bounded_mul)
        with pytest.raises(TruncationError, match="not the only one"):
            x.inverse()
        assert products == []

    @pytest.mark.parametrize("name", ALL_TYPES)
    def test_cutoff_off_the_height_lattice_is_rejected(self, name):
        # heights lie in (1/det C)·Z, and den + 1 never divides den
        r = rs(name)
        den = r.height_functional[0]
        on, off = Fraction(-7, den), Fraction(-1, den + 1)
        assert KSeries.zero(r, on).cutoff2 == on
        assert one(r).clamped(on).cutoff2 == on
        with pytest.raises(ValueError):
            KSeries(r, {}, off)
        with pytest.raises(ValueError):
            KSeries.one(r, off)
        with pytest.raises(ValueError):
            one(r).clamped(off)

    def test_heights_keep_doubled_units(self):
        x = one(A2, depth=2) + mono(A2, a_inv(A2, 1, 0), depth=2)
        assert x.cutoff2 == Fraction(-4) and max_ht(x) == 0
        assert ht(x, a_inv(A2, 1, 0)) == -2
        shifted = x.mul_monomial(y_monomial(A2, 1, 0))
        # ϖ_1 = (2α_1 + α_2)/3 in A2: doubled height 2
        assert max_ht(shifted) == 2 and shifted.cutoff2 == Fraction(-2)
        half = bracket((1, 0))
        assert x.mul_monomial(half).cutoff2 == Fraction(-4) + 1


def oracle_mul(a, b):
    """The all-pairs product, pruned afterwards: the reference for
    ``KSeries.__mul__``, which forms only the pairs above the cutoff."""
    cut = max(a.cut + b._max_h(), b.cut + a._max_h())
    out = {}
    get = out.get
    for k1, c1 in a._t.items():
        for k2, c2 in b._t.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    a._cx.check(out)
    s = a._new(out, cut)
    s._prune()
    return s


def decoded(ser):
    return dict(ser.terms.items()), ser.cutoff2


@st.composite
def small_series(draw, r):
    """A series of few terms with colliding keys, so that coefficients
    cancel; zero coefficients and terms below the cutoff included."""
    vertex = st.tuples(st.integers(1, r.n), st.sampled_from([-2, 0, 2]))
    psi = st.dictionaries(vertex, st.sampled_from([-2, -1, 1, 2]), max_size=2)
    key = st.tuples(
        st.tuples(*[st.integers(-3, 3)] * r.n),
        psi.map(lambda d: tuple(sorted(d.items()))),
    )
    terms = draw(st.dictionaries(key, st.integers(-2, 2), max_size=6))
    den = r.height_functional[0]
    return KSeries(r, terms, Fraction(draw(st.integers(-12 * den, den)), den))


class TestProductOracle:
    @pytest.mark.parametrize("name", ["A1", "A3"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_the_all_pairs_product(self, name, data):
        r = rs(name)
        a, b = data.draw(small_series(r)), data.draw(small_series(r))
        assert decoded(a * b) == decoded(oracle_mul(a, b))

    @pytest.mark.parametrize(
        "a, b",
        [
            # (1 + x)(1 - x): the cross terms cancel
            (one(A1) + mono(A1, a_inv(A1, 1, 0)),
             one(A1) - mono(A1, a_inv(A1, 1, 0))),
            # unequal cutoffs, each side setting the product's
            (one(A3, depth=2) + mono(A3, a_inv(A3, 2, 0), depth=2),
             one(A3, depth=5) + mono(A3, a_inv(A3, 1, 1), depth=5, coeff=-3)),
            # a factor with no terms
            (KSeries.zero(A3, Fraction(-4)), one(A3) + mono(A3, a_inv(A3, 3, 2))),
            (one(A1) + mono(A1, a_inv(A1, 1, 0)), KSeries.zero(A1, Fraction(-6))),
        ],
    )
    def test_named_cases(self, a, b):
        for x, y in ((a, b), (b, a)):
            assert decoded(x * y) == decoded(oracle_mul(x, y))

    @pytest.mark.parametrize("name", ["A1", "A3"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_overflowing_kept_keys_raise(self, name, data):
        # both factors carry Ψ_{1,q^0}^E with 2E - 4 >= 2^(FIELD_BITS-2), so
        # every pair overflows, the top pair among them, which is kept
        r = rs(name)
        a, b = data.draw(small_series(r)), data.draw(small_series(r))
        assume(not a.is_zero() and not b.is_zero())
        big = (1 << (FIELD_BITS - 3)) + 3 + data.draw(st.integers(0, 5))
        lift = ((0,) * r.n, psi_var(1, 0, big))
        a, b = a.mul_monomial(lift), b.mul_monomial(lift)
        with pytest.raises(OverflowError):
            oracle_mul(a, b)
        with pytest.raises(OverflowError):
            a * b


def heights(s):
    return sorted(ht(s, k) for k in s.terms)


@st.composite
def invertible_series(draw, r):
    """A ±1 term at height 0 over lower terms: a unique top whose
    coefficient is a unit, so the series has an inverse."""
    low = draw(small_series(r))
    terms = {k: c for k, c in low.terms.items() if ht(low, k) < 0}
    b = draw(st.sampled_from([-2, 0, 2]))
    terms[((0,) * r.n, psi_var(r.n, b))] = draw(st.sampled_from([1, -1]))
    return KSeries(r, terms, Fraction(-6))


SHIFT_TYPES = ["A1", "A2", "A3", "A4", "D4", "E6"]


class TestSpectralShift:
    """τ_s (Ψ_{j,q^b} ↦ Ψ_{j,q^{b+s}}) is a ring automorphism of the
    truncated ring that keeps heights and cutoffs."""

    @pytest.mark.parametrize("name", SHIFT_TYPES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_repack_equals_the_decoding_oracle(self, name, data):
        r = rs(name)
        a = data.draw(small_series(r))
        s = data.draw(st.integers(-9, 9))
        assert decoded(a.tau(s)) == decoded(tau(a, s))
        assert a.tau(s).cutoff2 == a.cutoff2
        assert heights(a.tau(s)) == heights(a)

    @pytest.mark.parametrize("name", SHIFT_TYPES)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_products_and_sums(self, name, data):
        r = rs(name)
        a, b = data.draw(small_series(r)), data.draw(small_series(r))
        s = data.draw(st.integers(-9, 9))
        assert decoded((a * b).tau(s)) == decoded(a.tau(s) * b.tau(s))
        assert decoded((a + b).tau(s)) == decoded(a.tau(s) + b.tau(s))

    @pytest.mark.parametrize("name", SHIFT_TYPES)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_inverses(self, name, data):
        r = rs(name)
        a = data.draw(invertible_series(r))
        s = data.draw(st.integers(-9, 9))
        assert decoded(a.inverse().tau(s)) == decoded(a.tau(s).inverse())

    @pytest.mark.parametrize("name", SHIFT_TYPES)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_a_group_action(self, name, data):
        r = rs(name)
        a = data.draw(small_series(r))
        s, t = data.draw(st.integers(-9, 9)), data.draw(st.integers(-9, 9))
        assert decoded(a.tau(s).tau(t)) == decoded(a.tau(s + t))
        assert decoded(a.tau(0)) == decoded(a)
        assert decoded(a.tau(s).tau(-s)) == decoded(a)

    def test_a_q_variable_at_a_shifted_parameter(self):
        ev = QEvaluator(A3, depth=3)
        value = ev._solve((1, 2), 2, 0)
        for s in (-4, -1, 3):
            assert decoded(value.tau(s)) == decoded(ev._solve((1, 2), 2, s))


class TestPrunedInvariant:
    def test_constructor_drops_zero_and_low_terms(self):
        # heights 0, -2, -4 and -6 (doubled) against a cutoff of -4
        top, zero = key_one(2), a_inv(A2, 1, 0)
        at_cut = key_mul(a_inv(A2, 1, 0), a_inv(A2, 2, 1))
        below = key_mul(at_cut, a_inv(A2, 1, 2))
        s = KSeries(A2, {top: 1, zero: 0, at_cut: 5, below: -1}, Fraction(-4))
        assert dict(s.terms.items()) == {top: 1}
        assert KSeries(A2, {top: 0}, Fraction(-4)).is_zero()

    @pytest.mark.parametrize("name", ["A1", "A3"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_clamp_at_or_below_the_own_cutoff_is_the_series(self, name, data):
        r = rs(name)
        s = data.draw(small_series(r))
        den = r.height_functional[0]
        lower = s.cutoff2 - Fraction(data.draw(st.integers(0, 9)), den)
        assert s.clamped(lower) is s
        assert decoded(s.clamped(lower)) == decoded(s)

    @pytest.mark.parametrize("name", ["A1", "A3"])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_every_operation_keeps_the_invariant(self, name, data):
        r = rs(name)
        a, b = data.draw(small_series(r)), data.draw(small_series(r))
        cut = Fraction(data.draw(st.integers(-12, 2)), r.height_functional[0])
        # a * b builds the kept orders of a and b before the rest run
        results = [a, a * b, a + b, a - b, -a, a.clamped(cut)]
        results.append(a.mul_monomial(a_inv(r, 1, 0)))
        try:  # a unique leading term with coefficient ±1
            results.append(a.inverse())
        except TruncationError:
            pass
        for s in results:
            assert all(
                c and ht(s, k) > s.cutoff2 for k, c in s.terms.items()
            ), s
            assert s._order() == fresh_order(s), s

    @pytest.mark.parametrize("name", ["A1", "A3"])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_product_does_not_depend_on_a_kept_order(self, name, data):
        r = rs(name)
        a, b = data.draw(small_series(r)), data.draw(small_series(r))
        first = a * b  # sorts b
        for p in (a * b, a * copy_of(b), copy_of(a) * copy_of(b)):
            assert decoded(p) == decoded(first)
            assert list(p._t.items()) == list(first._t.items())


def fresh_order(s):
    """The terms of ``s`` as (height, key, coefficient), sorted now; the
    height in the integer scale, from the decoded key."""
    den = s._cx.den
    return sorted(
        ((int(ht(s, s._cx.unpack(k)) * den), k, c) for k, c in s._t.items()),
        reverse=True,
    )


def copy_of(s):
    """A new series with the terms and cutoff of ``s`` and no kept order."""
    return KSeries(s.rs, dict(s.terms.items()), s.cutoff2)


class TestOneSidedPruning:
    @pytest.mark.parametrize("name", ["A1", "A3"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sum_equals_the_two_sided_sum(self, name, data):
        r = rs(name)
        a, b = data.draw(small_series(r)), data.draw(small_series(r))
        assume(a.cut != b.cut)
        for x, y in ((a, b), (b, a), (a, -a.clamped(b.cutoff2))):
            got, want = x + y, add_two_sided(x, y)
            assert got.cut == want.cut
            # x's keys first, then y's new ones
            assert list(got._t.items()) == list(want._t.items())

    @pytest.mark.parametrize("name", ["A1", "A3"])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_equals_the_two_sided_comparison(self, name, data):
        r = rs(name)
        a, b = data.draw(small_series(r)), data.draw(small_series(r))
        assume(a.cut != b.cut)
        zero = KSeries.zero(r, data.draw(st.sampled_from([b.cutoff2, a.cutoff2])))
        pairs = [(a, b), (a, a.clamped(b.cutoff2)), (a, a + b - b), (a, zero)]
        for x, y in pairs + [(y, x) for x, y in pairs]:
            assert x.matches(y) == matches_two_sided(x, y), (x, y)

    @pytest.mark.parametrize(
        "x, y, same",
        [
            # both empty, at unequal cutoffs
            (KSeries.zero(A1, Fraction(-2)), KSeries.zero(A1, Fraction(-6)), False),
            # one side empty
            (KSeries.zero(A3, Fraction(-6)), one(A3, depth=2), False),
            # one side's terms all at or below the other's cutoff
            (mono(A3, a_inv(A3, 2, 0), depth=3), KSeries.zero(A3, Fraction(-2)), False),
            (mono(A3, a_inv(A3, 2, 0), depth=3), one(A3, depth=1), False),
            # equal above the higher cutoff, different below it
            (one(A1) + mono(A1, a_inv(A1, 1, 0)), one(A1, depth=1), True),
        ],
    )
    def test_named_matches(self, x, y, same):
        for p, q in ((x, y), (y, x)):
            assert p.matches(q) == matches_two_sided(p, q) == same


# ---------------------------------------------------------------------------
# rank-one Q-variables
# ---------------------------------------------------------------------------


def sigma_series(r, i, b, depth=6):
    """1 + A_{i,q^b}^{-1}(1 + A_{i,q^{b-2}}^{-1}(...)) to the given depth."""
    out = one(r, depth)
    term = one(r, depth)
    for k in range(depth):
        term = term * mono(r, a_inv(r, i, b - 2 * k), depth)
        out = out + term
    return out


class TestRankOne:
    def test_reflected_variable_series(self):
        ev = QEvaluator(A1, depth=6)
        got = ev.q_raw((1,), 1, 0)
        expected = sigma_series(A1, 1, -2).mul_monomial(
            ((0,), psi_var(1, -2, -1))
        )
        assert got.matches(expected)

    def test_two_term_relation_equals_one(self):
        ev = QEvaluator(A1, depth=6)
        a1 = simple_root(A1, 1).coords2
        for r in (0, 2, -4):
            lhs = ev.q_raw((1,), 1, r) * ev.q_raw((), 1, r - 2) - (
                ev.q_raw((1,), 1, r - 2) * ev.q_raw((), 1, r)
            ).mul_monomial(bracket(tuple(-c for c in a1)))
            assert lhs.matches(one(A1))
            assert qq_check(ev, (), 1, r)


# ---------------------------------------------------------------------------
# rank-two Q-variables: explicit expansions
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ev_a2():
    return QEvaluator(A2, depth=6)


@pytest.fixture(scope="module")
def ev_a3():
    return QEvaluator(A3, depth=4)


class TestRankTwo:
    @pytest.fixture()
    def ev(self, ev_a2):
        return ev_a2

    def test_single_reflection(self, ev):
        got = ev.q_raw((1,), 1, 0)
        top = ((0, 0), key_mul(((0, 0), psi_var(1, -2, -1)), ((0, 0), psi_var(2, -1)))[1])
        expected = sigma_series(A2, 1, -2).mul_monomial(top)
        assert got.matches(expected)

    def test_double_reflection(self, ev):
        # staircase sum: ℓ factors in column 1 under k factors in column 2
        got = ev.q_raw((2, 1), 1, 0)
        expected = KSeries.zero(A2, Fraction(-12))
        for k in range(0, 8):
            for ell in range(0, k + 1):
                key = key_one(2)
                for t in range(k):
                    key = key_mul(key, a_inv(A2, 2, -3 - 2 * t))
                for t in range(ell):
                    key = key_mul(key, a_inv(A2, 1, -2 - 2 * t))
                expected = expected + mono(A2, key)
        expected = expected.mul_monomial(((0, 0), psi_var(2, -3, -1)))
        assert got.matches(expected)

    def test_weight_identities(self, ev):
        # the variable depends on the word only through the weight
        assert ev.q_raw((1, 2, 1), 1, -2).matches(ev.q_raw((2, 1), 1, -2))
        assert ev.q_raw((2,), 1, 0).matches(ev.q_raw((), 1, 0))

    def test_qq_relations(self, ev):
        for word, i in [((), 1), ((), 2), ((1,), 2), ((2,), 1), ((2, 1), 2)]:
            for r in (0, -2, 3):
                assert qq_check(ev, word, i, r), (word, i, r)

    def test_three_term_relation(self, ev):
        # the non-QQ exchange relation for the rank-two three-move
        assert qqstar_check(ev, (), 1, 2, -2)
        assert qqstar_check(ev, (), 2, 1, -1)


# ---------------------------------------------------------------------------
# rank-three: the worked seed example
# ---------------------------------------------------------------------------


class TestRankThree:
    @pytest.fixture()
    def ev(self, ev_a3):
        return ev_a3

    def test_first_exchange_is_qq(self, ev):
        lhs = ev.q_bar((), 1, 0) * ev.q_bar((1,), 1, 2)
        rhs = ev.q_bar((), 1, 2) * ev.q_bar((1,), 1, 0) + ev.q_bar((), 2, 1)
        assert lhs.matches(rhs)

    def test_deep_exchange_is_qq(self, ev):
        lhs = ev.q_bar((1, 2), 2, -3) * ev.q_bar((1, 2, 3, 1, 2), 2, -1)
        rhs = ev.q_bar((1, 2), 2, -1) * ev.q_bar((1, 2, 3, 1, 2), 2, -3) + (
            ev.q_bar((1, 2, 1), 1, -2) * ev.q_bar((1, 2, 1, 3), 3, -2)
        )
        assert lhs.matches(rhs)

    def test_non_qq_exchange_value(self, ev):
        # mutating the variable at the degree-three vertex produces an
        # explicit non-QQ exchange with a closed-form new variable
        lam2 = tuple(
            -a + b - c
            for a, b, c in zip(
                fundamental_weight(A3, 1).coords2,
                fundamental_weight(A3, 2).coords2,
                fundamental_weight(A3, 3).coords2,
            )
        )
        top = (lam2, ())
        for piece in [
            ((0, 0, 0), psi_var(2, 1, -1)),
            ((0, 0, 0), psi_var(2, -1)),
            ((0, 0, 0), psi_var(1, 2)),
            ((0, 0, 0), psi_var(3, 2)),
        ]:
            top = key_mul(top, piece)
        x = mono(A3, top, depth=4) + mono(
            A3, key_mul(top, key_inv(a_monomial(A3, 2, 1))), depth=4
        )
        lhs = x * ev.q_bar((), 2, 1)
        rhs = ev.q_bar((), 1, 0) * ev.q_bar((), 2, 3) * ev.q_bar(
            (), 3, 0
        ) + ev.q_bar((), 1, 2) * ev.q_bar((), 2, -1) * ev.q_bar((), 3, 2)
        assert lhs.matches(rhs)

    def test_word_independence_fresh_evaluators(self):
        ev1 = QEvaluator(A3, depth=3)
        ev2 = QEvaluator(A3, depth=3)
        a = ev1.q_raw((2, 1, 3, 2), 2, -1)
        b = ev2.q_raw((2, 3, 1, 2), 2, -1)
        assert a.matches(b)

    def test_qq_relations(self, ev):
        for word, i in [((1, 2, 3, 1), 2), ((1, 2, 1), 3), ((1,), 2)]:
            assert qq_check(ev, word, i, -1), (word, i)


# ---------------------------------------------------------------------------
# the embedding of initial seeds
# ---------------------------------------------------------------------------


class TestDepthBelowOne:
    """Below depth 1 the unit keeps no term: the evaluator refuses the
    depth, where a solve would otherwise report a failed QQ relation
    (depth -1) or a truncation (depth 0)."""

    @pytest.mark.parametrize("depth", [0, -1])
    @pytest.mark.parametrize(
        "use",
        [
            lambda ev: qq_check(ev, (), 1, 0),
            lambda ev: ev.q_bar((1,), 1, 0),
        ],
        ids=["qq_check", "q_bar"],
    )
    def test_refused(self, depth, use):
        with pytest.raises(ValueError, match="depth must be at least 1") as exc:
            use(QEvaluator(A2, depth=depth))
        assert exc.type is ValueError  # not a TruncationError


class TestEmbedding:
    def test_rank_three_labels(self):
        cw = build_coxeter_quiver(coxeter_data(A3, (1, 2, 3)), depth_below=10)
        ev = QEvaluator(A3, depth=2)
        labels = f_labels(cw, knit_gvectors(cw.quiver))
        for v, (xword, xi, xr) in A3_SEED_LABELS.items():
            word, i, r = labels[v]
            assert i == xi and r == xr, v
            assert weight_of(ev, word, i) == weight_of(ev, xword, xi), v

    def test_leading_monomials_are_gvectors(self):
        cw = build_coxeter_quiver(coxeter_data(A2, (1, 2)), depth_below=8)
        ev = QEvaluator(A2, depth=3)
        g = knit_gvectors(cw.quiver)
        labels = f_labels(cw, g)
        assert labels.keys() == cw.quiver.vertices
        for v in sorted(cw.quiver.vertices):
            word, i, r = labels[v]
            (lam2, psi), coeff = ev.q_raw(word, i, r).top()
            assert coeff == 1 and lam2 == (0, 0), v
            assert dict(psi) == g[v], v

    def test_certification_catches_wrong_value(self):
        ev = QEvaluator(A2, depth=4)
        wrong = KSeries.one(A2, Fraction(-8))
        with pytest.raises(CertificationError):
            ev._certify((1,), 1, 0, wrong)
        assert (weight_of(ev, (1,), 1), 0) not in ev._memo
        assert ev._inverses.keys() <= ev._memo.keys()

    def test_failed_certification_is_not_memoized(self, monkeypatch):
        ev = QEvaluator(A2, depth=4)
        key = (weight_of(ev, (1,), 1), 0)
        with monkeypatch.context() as m:
            m.setattr(KSeries, "matches", lambda self, other: False)
            for _ in range(2):  # a retry checks again
                with pytest.raises(CertificationError):
                    ev.q_raw((1,), 1, 0)
            assert key not in ev._memo
            assert key[0] not in ev._bases
            assert ev._inverses.keys() <= ev._memo.keys()
        value = ev.q_raw((1,), 1, 0)
        assert key in ev._memo and ev._bases[key[0]] == (0, value)
        assert ev._inverses.keys() <= ev._memo.keys()
        assert value.matches(QEvaluator(A2, depth=4).q_raw((1,), 1, 0))

    def test_wrong_base_solve_leaves_nothing_to_shift(self, monkeypatch):
        # the base solve of (1, 2) at node 2 gains a term; the lower solve
        # in _certify stays right, so the relation check must fail
        ev = QEvaluator(A2, depth=4)
        lam2 = weight_of(ev, (1, 2), 2)
        real = QEvaluator._solve

        def solve(self, word, i, r):
            value = real(self, word, i, r)
            if (tuple(word), i, r) == ((1, 2), 2, 0):
                value = value + mono(A2, a_inv(A2, 1, 0), depth=4)
            return value

        with monkeypatch.context() as m:
            m.setattr(QEvaluator, "_solve", solve)
            with pytest.raises(CertificationError):
                ev.q_raw((1, 2), 2, 0)
            assert lam2 not in ev._bases
            assert all(lam != lam2 for lam, _ in ev._memo)
            assert all(lam != lam2 for lam, _ in ev._inverses)
            assert ev._inverses.keys() <= ev._memo.keys()
        # the next parameter asked for is solved and certified afresh
        value = ev.q_raw((1, 2), 2, 2)
        assert ev._bases[lam2] == (2, value)
        assert value.matches(QEvaluator(A2, depth=4).q_raw((1, 2), 2, 2))
        assert ev.q_raw((1, 2), 2, 0).matches(
            QEvaluator(A2, depth=4).q_raw((1, 2), 2, 0)
        )
