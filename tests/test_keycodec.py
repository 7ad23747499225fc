"""Packed series keys: the codec against the tuple key API as oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq.qseries import (
    FIELD_BITS,
    KeyCodec,
    KSeries,
    key_codec,
    key_mul,
    key_one,
    psi_var,
)
from clusterqq.rootsys import RootSystem
from oracles import key_inv, max_ht

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
