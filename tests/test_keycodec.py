"""Packed series keys: the codec against the tuple key API as oracle."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.qseries import (
    FIELD_BITS,
    KeyCodec,
    KSeries,
    TruncationError,
    _height,
    key_codec,
    key_mul,
    key_one,
    psi_var,
)
from clusterqq.rootsys import RootSystem
from clusterqq.sl2 import Segment, ptolemy_check, segment_qchar
from oracles import key_inv, max_ht, ptolemy_grid

TYPES = ["A1", "A2", "A3", "A4", "D4", "E6"]
LIMIT = 1 << (FIELD_BITS - 2)


def keys(n: int):
    """Keys (λ, Ψ) of rank n in canonical form: Ψ sorted, no zero exponent."""
    vertex = st.tuples(st.integers(1, n), st.integers(-30, 30))
    exponent = st.integers(-(1 << 20), 1 << 20).filter(bool)
    return st.tuples(
        st.tuples(*[st.integers(-1000, 1000)] * n),
        st.dictionaries(vertex, exponent, max_size=6).map(
            lambda d: tuple(sorted(d.items()))
        ),
    )


@st.composite
def typed_keys(draw, count: int):
    rs = RootSystem.from_name(draw(st.sampled_from(TYPES)))
    return rs, [draw(keys(rs.n)) for _ in range(count)]


class TestCodec:
    @given(typed_keys(1))
    @settings(max_examples=150, deadline=None)
    def test_pack_unpack_roundtrip(self, case):
        rs, (key,) = case
        cx = key_codec(rs)
        assert cx.unpack(cx.pack(key)) == key

    @given(typed_keys(2))
    @settings(max_examples=150, deadline=None)
    def test_packed_product_is_key_mul(self, case):
        rs, (k1, k2) = case
        cx = key_codec(rs)
        packed = cx.pack(k1) + cx.pack(k2)
        assert packed == cx.pack(key_mul(k1, k2))
        assert cx.unpack(packed) == key_mul(k1, k2)
        assert cx.pack(k1) + cx.pack(key_inv(k1)) == cx.pack(key_one(rs.n)) == 0

    @given(typed_keys(3))
    @settings(max_examples=80, deadline=None)
    def test_distinct_keys_pack_apart(self, case):
        rs, ks = case
        cx = key_codec(rs)
        assert len({cx.pack(k) for k in ks}) == len(set(ks))

    @given(typed_keys(4), st.integers(-40, 40))
    @settings(max_examples=150, deadline=None)
    def test_tau_moves_psi_fields_only(self, case, s):
        # fields of either sign, so a borrow between fields would show
        rs, ks = case
        cx = key_codec(rs)
        t = {cx.pack(k): c for c, k in enumerate(ks, 1)}
        expected = {
            cx.pack((lam, tuple(((j, b + s), e) for (j, b), e in psi))): c
            for c, (lam, psi) in enumerate(ks, 1)
        }
        assert cx.tau(t, s) == expected

    def test_height_is_field_zero(self):
        D4 = RootSystem.from_name("D4")
        s = KSeries.monomial(D4, ((2, -1, 0, 1), psi_var(3, -4, 7)), Fraction(-20))
        den, w = D4.height_functional
        assert max_ht(s) == Fraction(2 * w[0] - w[1] + w[3], den)

    def test_new_vertex_leaves_old_keys(self):
        cx = KeyCodec(RootSystem.from_name("A3"))
        old = [
            ((1, 0, -1), psi_var(2, 0, 3)),
            ((0, 2, 0), (((1, -4), -1), ((3, 6), 2))),
        ]
        packed = [cx.pack(k) for k in old]
        for r in range(-40, 41, 3):
            cx.pack(((0, 0, 0), psi_var(1 + r % 3, r, 5)))
        assert [cx.unpack(k) for k in packed] == old
        assert [cx.pack(k) for k in old] == packed


class TestWideCodec:
    def test_roundtrip_past_300_psi_fields(self):
        # as many Ψ fields as an E8 depth-3 QQ battery opens, with every
        # key packed before the later fields were opened decoded again
        e8 = RootSystem.from_name("E8")
        cx = KeyCodec(e8)
        vertices = [(i, r) for r in range(-40, 0) for i in range(1, 9)]
        rng = random.Random(318)
        extremes = [LIMIT - 1, -(LIMIT - 1), 1, -1]
        keys = [key_one(8), ((0,) * 8, ((vertices[-1], -(LIMIT - 1)),))]
        for _ in range(200):
            lam = tuple(rng.randint(-1000, 1000) for _ in range(8))
            chosen = rng.sample(vertices, rng.randint(0, 12))
            psi = tuple(
                sorted((v, rng.choice(extremes + [rng.randint(-999, 999) or 7]))
                       for v in chosen)
            )
            keys.append((lam, psi))
        packed = [cx.pack(k) for k in keys]
        for v in vertices:
            cx.pack(((0,) * 8, ((v, 1),)))
        assert len(cx.vertices) > 300
        assert [cx.unpack(k) for k in packed] == keys
        for a, b, ka, kb in zip(keys, keys[1:], packed, packed[1:]):
            assert cx.unpack(ka + kb) == key_mul(a, b)


class TestOverflow:
    A2 = RootSystem.from_name("A2")

    def mono(self, e):
        return KSeries.monomial(self.A2, ((0, 0), psi_var(2, 3, e)), Fraction(-4))

    @pytest.mark.parametrize("x", [LIMIT, -LIMIT, LIMIT + 5, -LIMIT - 5])
    def test_pack_rejects_a_wide_field(self, x):
        cx = key_codec(self.A2)
        with pytest.raises(OverflowError):
            cx.pack(((0, 0), psi_var(1, 0, x)))
        with pytest.raises(OverflowError):
            cx.pack(((x, 0), ()))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_product_overflow_raises(self, sign):
        e = sign * ((1 << 29) + 5)
        x = self.mono(e)
        with pytest.raises(OverflowError):
            x * x
        with pytest.raises(OverflowError):
            x.mul_monomial(((0, 0), psi_var(2, 3, e)))
        # in A1 the height field equals the single weight field
        A1 = RootSystem.from_name("A1")
        y = KSeries.monomial(A1, ((e,), ()), Fraction(-4) - 2 * (1 << 30))
        with pytest.raises(OverflowError):
            y * y

    @pytest.mark.parametrize("sign", [1, -1])
    def test_product_just_inside_decodes(self, sign):
        e = sign * ((1 << 29) - 1)
        x = self.mono(e)
        assert (x * x).terms == {((0, 0), psi_var(2, 3, 2 * e)): 1}
        assert x.inverse().terms == {((0, 0), psi_var(2, 3, -e)): 1}


# ---------------------------------------------------------------------------
# the field bound a series carries
# ---------------------------------------------------------------------------


A1 = RootSystem.from_name("A1")
A2 = RootSystem.from_name("A2")
# exponents whose sums of two reach 2^(FIELD_BITS-2) or just miss it
NEAR = [LIMIT // 2 + d for d in (-3, -1, 0, 1, 3)]
EXPONENTS = st.sampled_from(NEAR + [-e for e in NEAR] + [1, -1, 2, -3])


def true_widest(s) -> int:
    """max |field| over the keys of ``s``, read by unpacking: the
    height, every λ coordinate and every Ψ exponent."""
    cx, out = s._cx, 0
    for k in s._t:
        lam, psi = cx.unpack(k)
        h = sum(map(mul, cx.w, lam))
        assert _height(k) == h
        out = max(out, abs(h), *map(abs, lam), *(abs(e) for _, e in psi))
    return out


def check_raises(cx, keys) -> bool:
    """Whether ``KeyCodec.check`` rejects the created ``keys``."""
    try:
        cx.check(keys)
    except OverflowError:
        return True
    return False


def product_keys(a, b) -> list:
    """The keys ``a * b`` creates: the pairs above its cutoff."""
    cut = max(a.cut + b._max_h(), b.cut + a._max_h())
    return [
        k1 + k2 for k1 in a._t for k2 in b._t if _height(k1) + _height(k2) > cut
    ]


def unbounded(s):
    """``s`` with no known bound, so every key it creates is checked."""
    return s._new(s._t, s.cut)


def outcome(op, *args):
    """The series ``op`` gives, or the type of its error."""
    try:
        return op(*args)
    except (OverflowError, TruncationError) as exc:
        return type(exc)


def seen(x):
    """An outcome as compared: a series by its terms and cutoff."""
    return (x._t, x.cut) if isinstance(x, KSeries) else x


def wide_psi(rs):
    """Ψ parts of at most two factors, exponents near 2^(FIELD_BITS-3)."""
    vertex = st.tuples(st.integers(1, rs.n), st.sampled_from([0, 2]))
    return st.dictionaries(vertex, EXPONENTS, max_size=2).map(
        lambda d: tuple(sorted(d.items()))
    )


@st.composite
def wide_series(draw, rs):
    """A series of up to four terms at distinct heights, its top unique
    with coefficient ±1, Ψ exponents near 2^(FIELD_BITS-3) and, in A1,
    heights near it too (there the height field is the λ field)."""
    base = 0
    if rs.n == 1:
        base = draw(st.sampled_from([0, 5, *NEAR, *(-e for e in NEAR)]))
    drops = sorted(draw(st.sets(st.integers(0, 3), min_size=1, max_size=4)))
    terms = {}
    for j in drops:
        lam = (base - j,) + (0,) * (rs.n - 1)
        terms[lam, draw(wide_psi(rs))] = draw(st.sampled_from([1, -1]))
    den, w = rs.height_functional
    cut = w[0] * (base - 4)  # below every term
    return KSeries(rs, terms, Fraction(cut, den))


class TestFieldBound:
    def test_a_product_adds_the_bounds(self):
        e = (1 << 28) + 1
        x = KSeries.monomial(A2, ((0, 0), psi_var(2, 3, e)), Fraction(-4))
        assert x._w == e and KSeries.one(A2, Fraction(-4))._w == 0
        y = x * x
        assert y._w == 2 * e
        assert y.mul_monomial(((0, 0), psi_var(2, 3, -e)))._w == 3 * e
        with pytest.raises(OverflowError):
            y * y
        assert (y + x)._w == (-y)._w == y.tau(4)._w == 2 * e

    def test_ptolemy_grid_runs_no_check(self, monkeypatch):
        # the classes' fields are small, so no product reaches the limit
        calls = []
        check = KeyCodec.check

        def counted(cx, keys):
            calls.append(len(keys))
            return check(cx, keys)

        monkeypatch.setattr(KeyCodec, "check", counted)
        grid = ptolemy_grid(-5, 5)
        assert len(grid) == 715
        segment_qchar.cache_clear()
        assert all(ptolemy_check(*q, 6)["ok"] for q in grid)
        assert calls == []
        # an unbounded factor is checked in every product
        c = unbounded(segment_qchar(Segment(0, 3), 6))
        c * c
        assert len(calls) == 1

    @given(st.sampled_from([A1, A2]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_chains_keep_a_sound_bound(self, rs, data):
        pool = [data.draw(wide_series(rs)) for _ in range(3)]
        for _ in range(10):
            op = data.draw(st.sampled_from(
                ["*", "+", "-", "neg", "mul_monomial", "inverse", "tau", "clamped"]
            ))
            a, b = (pool[data.draw(st.integers(0, len(pool) - 1))] for _ in "ab")
            if op == "*":
                fn, args, created = KSeries.__mul__, (a, b), product_keys(a, b)
            elif op == "mul_monomial":
                key = ((0,) * rs.n, data.draw(wide_psi(rs)))
                fn, args = KSeries.mul_monomial, (a, key)
                created = [k + a._cx.pack(key) for k in a._t]
            else:
                created = None
                fn, args = {
                    "+": (KSeries.__add__, (a, b)),
                    "-": (KSeries.__sub__, (a, b)),
                    "neg": (KSeries.__neg__, (a,)),
                    "inverse": (KSeries.inverse, (a,)),
                    "tau": (KSeries.tau, (a, data.draw(st.integers(-4, 4)))),
                    "clamped": (KSeries.clamped, (a, a.cutoff2 + Fraction(
                        data.draw(st.integers(0, 3)), a._cx.den
                    ))),
                }[op]
            # the same operation where every created key is checked
            twin_args = tuple(unbounded(x) if isinstance(x, KSeries) else x
                              for x in args)
            got = outcome(fn, *args)
            assert seen(got) == seen(outcome(fn, *twin_args)), op
            if created is not None:
                assert (got is OverflowError) == check_raises(a._cx, created), op
            if isinstance(got, KSeries):
                assert got._w >= true_widest(got), op
                if len(got._t) <= 64:
                    pool.append(got)
