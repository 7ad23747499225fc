"""Rank-one segments, Ptolemy exchange, and unique compatible factorization."""

import copy
import hashlib
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.qseries import (
    KSeries,
    QEvaluator,
    bracket,
    key_mul,
    key_one,
    psi_mul,
    psi_var,
)
from clusterqq.rootsys import RootSystem, fundamental_weight
from clusterqq import sl2
from clusterqq.sl2 import (
    INF,
    Segment,
    compatible,
    exchange_relations_at,
    factorize,
    parse_monomial,
    ptolemy_check,
    segment_qchar,
)
from oracles import (
    DataclassSegment,
    Diagonal,
    a_monomial,
    compatible_each_way,
    crosses,
    decoded,
    diagonal,
    diagonal_variable,
    fmt,
    ht,
    key_inv,
    max_ht,
    ptolemy_grid,
    quadrilateral_identity,
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


def nested_neg_half_oracle(s, d):
    """Ψ_{2(s+1)}^{-1}(1+A⁻¹_{2(s+1)}(1+A⁻¹_{2s}(...))), d levels deep."""
    top = 2 * (s + 1)
    cutoff = Fraction(-2 * d)
    ser = KSeries.one(A1, cutoff)
    for k in reversed(range(d)):
        inner = ser.mul_monomial(key_inv(a_monomial(A1, 1, top - 2 * k)))
        ser = KSeries.one(A1, cutoff) + inner.clamped(cutoff)
    return ser.mul_monomial(((0,), psi_var(1, top, -1)))


GRID_ENDS = range(-7, 8)


def class_grid_sha256():
    """sha256 over every class [r, s], r ∈ {-∞, -7..7}, s ∈ {-7..7, +∞},
    at depths 1..9: its label, depth, decoded terms and cutoff."""
    h = hashlib.sha256()
    for d in range(1, 10):
        for r in (-INF, *GRID_ENDS):
            for s in (*GRID_ENDS, INF):
                seg = Segment(r, s)
                ser = segment_qchar(seg, d)
                h.update(repr((str(seg), d, *decoded(ser))).encode())
    return h.hexdigest()


# recorded with the nested-series constructors the one sum replaced
CLASS_GRID_SHA256 = (
    "a6c41df3188f5ebf6ed5fec59c07a0bd6522bbd20ebecfa9ce0d02db664d167d"
)


class TestOneSum:
    def test_class_grid_digest(self):
        assert class_grid_sha256() == CLASS_GRID_SHA256

    @pytest.mark.parametrize("d", range(1, 8))
    def test_finite_classes_equal_the_nested_chain(self, d):
        for r, s in itertools.combinations_with_replacement(range(-4, 5), 2):
            assert decoded(segment_qchar(Segment(r, s), d)) == decoded(
                nested_finite_oracle(r, s, d)
            ), (r, s)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_negative_half_classes_equal_the_nested_chain(self, d):
        for s in range(-4, 5):
            assert decoded(segment_qchar(Segment(-INF, s), d)) == decoded(
                nested_neg_half_oracle(s, d)
            ), s

    @pytest.mark.parametrize(
        "seg", [Segment(0, 3), Segment(-INF, 2), Segment(1, INF), Segment(2, 1)]
    )
    @pytest.mark.parametrize("d", [0, -2])
    def test_depth_below_one_raises(self, seg, d):
        # the unit kept no term there, while a finite class kept them all
        with pytest.raises(ValueError):
            segment_qchar(seg, d)


class TestClassMemo:
    def test_a_class_is_built_once(self):
        seg = Segment(-2, 3)
        assert segment_qchar(seg, 5) is segment_qchar(seg, 5)
        assert segment_qchar(Segment(-INF, 1), 4) is segment_qchar(
            Segment(-INF, 1), 4
        )

    def test_a_shared_class_is_never_changed(self):
        c = segment_qchar(Segment(0, 3), 6)
        other = segment_qchar(Segment(-INF, 1), 6)
        before = decoded(c)
        for _ in (
            c * other, other * c, c * c, c + other, c - other, other - c,
            c.mul_monomial(bracket((-4,))), c.clamped(Fraction(-4)),
            c.clamped(Fraction(-20)), c.inverse(), c.inverse() * c,
        ):
            assert decoded(c) == before
        assert segment_qchar(Segment(0, 3), 6) is c

    def test_ptolemy_grid_builds_each_class_once(self):
        # the 715-quadruple grid of the rank_one benchmark workload, d = 6
        grid = ptolemy_grid(-5, 5)
        assert len(grid) == 715
        asked = set()
        for r, s, rp, sp in grid:
            asked.update(
                Segment(*ends)
                for ends in ((r, s), (rp, sp), (r, sp), (rp, s),
                             (r, rp - 2), (s + 2, sp))
            )
        segment_qchar.cache_clear()
        assert all(ptolemy_check(*q, 6)["ok"] for q in grid)
        info = segment_qchar.cache_info()
        assert info.misses == len(asked) == info.currsize
        assert info.hits == 6 * len(grid) - len(asked)


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


# every segment label with ends in -5..5 and ±∞, bad pairs included
ENDS = [-INF, *range(-5, 6), INF]
END_PAIRS = list(itertools.product(ENDS, ENDS))


def labels(cls):
    out = []
    for r, s in END_PAIRS:
        try:
            out.append(cls(r, s))
        except ValueError:
            pass
    return out


class TestSegmentFace:
    def test_repr_str_and_keywords(self):
        seg = Segment(r=0, s=3)
        assert seg == Segment(0, 3) and (seg.r, seg.s) == (0, 3)
        assert repr(seg) == "Segment(r=0, s=3)" and str(seg) == "[0,3]"
        assert repr(Segment(-INF, 2)) == "Segment(r=-inf, s=2)"
        assert str(Segment(-INF, INF)) == "[-inf,+inf]"

    def test_is_a_tuple_that_survives_copies(self):
        seg = Segment(-INF, 4)
        assert isinstance(seg, tuple) and tuple(seg) == (-INF, 4)
        for back in (pickle.loads(pickle.dumps(seg)), copy.deepcopy(seg)):
            assert type(back) is Segment and back == seg

    @pytest.mark.parametrize(
        "ends, message",
        [
            ((0.5, 1), "bad segment endpoint 0.5"),
            ((1, 2.0), "bad segment endpoint 2.0"),
            ((None, 1), "bad segment endpoint None"),
            ((0, "3"), "bad segment endpoint '3'"),
            ((INF, INF), "bad segment [inf, inf]"),
            ((-INF, -INF), "bad segment [-inf, -inf]"),
            # an int-valued float is no int: only the validating path sees it
            ((1.0, 2), "bad segment endpoint 1.0"),
            ((0, 1.0), "bad segment endpoint 1.0"),
            ((2.5, 2.5), "bad segment endpoint 2.5"),
            ((float("nan"), 0), "bad segment endpoint nan"),
            ((0, float("nan")), "bad segment endpoint nan"),
        ],
    )
    def test_every_error_message(self, ends, message):
        for cls in (Segment, DataclassSegment):
            with pytest.raises(ValueError) as err:
                cls(*ends)
            assert str(err.value) == message

    # two plain ints take the fast path; bools, ±∞ and 0 beside them
    FAST_AND_SLOW = [
        (0, 0), (0, 3), (-4, 7), (3, -2), (10**30, -(10**30)),
        (True, False), (False, True), (True, True), (0, True), (False, 2),
        (0, INF), (-INF, 0), (-INF, INF), (INF, 0), (5, -INF), (INF, -INF),
    ]

    @pytest.mark.parametrize("r, s", FAST_AND_SLOW)
    def test_every_path_equals_the_dataclass_oracle(self, r, s):
        seg, ref = Segment(r, s), DataclassSegment(r, s)
        assert type(seg) is Segment
        # each end is kept as given: a bool stays a bool
        assert [type(x) for x in seg] == [type(r), type(s)]
        assert tuple(seg) == (ref.r, ref.s) == (r, s)
        assert str(seg) == f"[{fmt(r)},{fmt(s)}]" == str(ref)
        assert repr(seg) == repr(ref).replace("DataclassSegment", "Segment")
        assert hash(seg) == hash(ref) == hash((r, s))
        assert seg.is_unit == ref.is_unit

    def test_every_path_sorts_as_the_dataclass_oracle(self):
        pairs = self.FAST_AND_SLOW * 2
        random.Random(1).shuffle(pairs)
        segs = sorted(Segment(r, s) for r, s in pairs)
        refs = sorted(DataclassSegment(r, s) for r, s in pairs)
        assert [tuple(x) for x in segs] == [(x.r, x.s) for x in refs]

    def test_face_equals_the_dataclass_oracle(self):
        # the same labels are valid, with the same repr, str, hash,
        # unit flag and top monomial
        segs, refs = labels(Segment), labels(DataclassSegment)
        assert len(segs) == len(refs) == 13 * 13 - 2  # not [∞, ∞], [-∞, -∞]
        for seg, ref in zip(segs, refs):
            assert (seg.r, seg.s) == (ref.r, ref.s)
            assert repr(seg) == repr(ref).replace("DataclassSegment", "Segment")
            assert str(seg) == str(ref)
            assert hash(seg) == hash(ref)
            assert seg.is_unit == ref.is_unit
            assert seg.ell_weight() == ref.ell_weight()

    def test_sorted_and_compatible_equal_the_oracles(self):
        segs, refs = labels(Segment), labels(DataclassSegment)
        order = list(range(len(segs)))
        random.Random(0).shuffle(order)
        assert [tuple(x) for x in sorted(segs[k] for k in order)] == [
            (x.r, x.s) for x in sorted(refs[k] for k in order)
        ]
        for (s1, r1), (s2, r2) in itertools.product(zip(segs, refs), repeat=2):
            assert compatible(s1, s2) == compatible_each_way(r1, r2), (s1, s2)

    def test_checks_look_up_the_class_memo_by_name(self, monkeypatch):
        # the tracer and the failing twins replace sl2.segment_qchar
        asked = []
        real = sl2.segment_qchar

        def recording(seg, d=6):
            asked.append(seg)
            return real(seg, d)

        monkeypatch.setattr(sl2, "segment_qchar", recording)
        assert ptolemy_check(-INF, 1, 0, 3, 4)["ok"]
        assert len(asked) == 6
        # the last quadrilateral, (-∞, -2, -1, 0), asks for its edge
        # (-1, 0) last
        assert all(c["ok"] for c in exchange_relations_at(0, 4, 1))
        assert len(asked) == 6 + 4 * 6
        assert asked[-1] == Segment(-1, -2)


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
            expect = not crosses(diagonal(s1), diagonal(s2))
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
        # the quadrilateral (a, b, c, e) is the check of [a, c-2] and [b, e-2]
        quads = [
            (-INF, 0, 3, INF),
            (-INF, -1, 2, 5),
            (-2, 0, 3, 7),
            (-3, -1, 0, INF),
            (-INF, 0, 1, INF),
        ]
        for a, b, c, e in quads:
            assert ptolemy_check(a, c - 2, b, e - 2, 6)["ok"], (a, b, c, e)

    def test_edge_diagonals_are_unit(self):
        assert diagonal_variable(Diagonal(-INF, INF), 4).terms == {key_one(1): 1}
        assert diagonal_variable(Diagonal(3, 4), 4).terms == {key_one(1): 1}


class TestOneRelation:
    """Both certificates read the one relation ``sl2._ptolemy``."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        real = sl2._ptolemy

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sl2, "_ptolemy", recording)
        return calls

    def test_exchange_relations_pass_their_quadrilaterals(self, calls):
        certs = exchange_relations_at(0, 6, 3)
        assert all(c["ok"] for c in certs)
        assert [(c["relation"], c["at"]) for c in certs] == [
            ("flip-upper", 1), ("flip-upper", 2), ("flip-upper", 3),
            ("flip-switch-red", 0), ("flip-switch-green", -1),
            ("flip-lower", -4), ("flip-lower", -3), ("flip-lower", -2),
        ]
        assert calls == [
            (0, 1, 2, INF, 6), (1, 2, 3, INF, 6), (2, 3, 4, INF, 6),
            (-INF, 0, 1, INF, 6), (-INF, -1, 0, INF, 6),
            (-INF, -4, -3, -2, 6), (-INF, -3, -2, -1, 6), (-INF, -2, -1, 0, 6),
        ]

    def test_ptolemy_check_passes_its_quadrilateral(self, calls):
        grid = ptolemy_grid(-3, 3) + [
            (-INF, 0, 1, INF), (-INF, 0, -2, 3), (-1, 0, 1, INF),
        ]
        for quad in grid:
            assert ptolemy_check(*quad, 4)["ok"], quad
        assert calls == [(r, rp, s + 2, sp + 2, 4) for r, s, rp, sp in grid]

    @pytest.mark.parametrize("d", [2, 5])
    def test_diagonal_identity_agrees_with_ptolemy_check(self, d):
        # every quadrilateral on -∞, -5..5, +∞: the middle two are finite
        quads = list(itertools.combinations([-INF, *range(-5, 6), INF], 4))
        assert len(quads) == 715
        for a, b, c, e in quads:
            assert quadrilateral_identity(a, b, c, e, d), (a, b, c, e)
            assert ptolemy_check(a, c - 2, b, e - 2, d)["ok"], (a, b, c, e)


VARPI2 = fundamental_weight(A1, 1).coords2


def oracle_x_plus(v, d):
    key = key_mul(
        bracket(tuple(-v * c for c in VARPI2)), ((0,), psi_var(1, 2 * v))
    )
    return KSeries.one(A1, Fraction(-2 * d)).mul_monomial(key)


def oracle_x_minus(v, d):
    return nested_neg_half_oracle(v - 1, d).mul_monomial(
        bracket(tuple(v * c for c in VARPI2))
    )


def oracle_x_finite(r, s, d):
    return nested_finite_oracle(r, s - 1, d).mul_monomial(
        bracket(tuple((s - r) * c for c in VARPI2))
    )


def oracle_variable(diag, d):
    if diag.is_edge:
        return KSeries.one(A1, Fraction(-2 * d))
    if diag.b == INF:
        return oracle_x_plus(int(diag.a), d)
    if diag.a == -INF:
        return oracle_x_minus(int(diag.b) - 1, d)
    return oracle_x_finite(int(diag.a), int(diag.b) - 1, d)


class TestOneVariableFormula:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_diagonal_matches_its_oracle(self, d):
        ends = range(-5, 6)
        count = 0
        for a in (-INF, *ends):
            for b in (*ends, INF):
                if a < b:
                    diag = Diagonal(a, b)
                    assert decoded(diagonal_variable(diag, d)) == decoded(
                        oracle_variable(diag, d)
                    ), diag
                    count += 1
        assert count == 78

    @pytest.mark.parametrize("v", [-3, 0, 2])
    def test_named_variables(self, v):
        assert decoded(x_plus(v, 5)) == decoded(oracle_x_plus(v, 5))
        assert decoded(x_minus(v, 5)) == decoded(oracle_x_minus(v, 5))
        assert decoded(x_finite(v, v + 3, 5)) == decoded(
            oracle_x_finite(v, v + 3, 5)
        )

    @pytest.mark.parametrize("d", [0, -1])
    def test_depth_below_one_raises(self, d):
        for diag in (Diagonal(0, INF), Diagonal(-INF, 2), Diagonal(0, 3),
                     Diagonal(0, 1), Diagonal(-INF, INF)):
            with pytest.raises(ValueError):
                diagonal_variable(diag, d)
        with pytest.raises(ValueError):
            x_plus(0, d)
        with pytest.raises(ValueError):
            x_minus(0, d)
        with pytest.raises(ValueError):
            x_finite(0, 2, d)

    @pytest.mark.parametrize("d", [0, -1])
    def test_relations_refuse_depth_below_one(self, d):
        # at depth 0 these read "ok": False for true identities, or passed
        # on some quadrilaterals only
        with pytest.raises(ValueError):
            exchange_relations_at(0, d=d)
        for a, b, c, e in [(-INF, 0, 1, INF), (-2, 0, 3, 7)]:
            with pytest.raises(ValueError):
                ptolemy_check(a, c - 2, b, e - 2, d)


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
            top_ht = max_ht(series)
            level1 = [
                k
                for k in series.terms
                if ht(series, k) == top_ht - 2
            ]
            assert len(level1) <= 1
            if seg.s != INF:  # every segment here but [2, +∞]
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
