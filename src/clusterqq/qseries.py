"""Truncated formal power series and exact Q-variable evaluation.

The ambient ring is spanned by monomials ``[λ]·∏ Ψ_{i,q^r}^{m}``, where λ
runs over the half-integral weight lattice (stored in doubled fundamental
coordinates) and Ψ are the formal series variables indexed by quiver
vertices.  A :class:`KSeries` is a finite, exactly-truncated element: all
terms whose weight height is strictly above ``cutoff2`` (doubled height)
are present with exact integer coefficients, and everything at or below
the cutoff has been discarded.  Every series holds exactly that: only
nonzero terms strictly above its cutoff.  The constructor prunes, and
every operation keeps the invariant, so truncating at a cutoff that is
not above a series' own returns the series itself.  No series is
changed in place; every operation returns a new one, so a series may be
shared (``sl2.segment_qchar`` memoizes its classes).

Heights are compared as integers.  With d = det C, d times the doubled
height of any weight is an integer linear form in its doubled fundamental
coordinates (``RootSystem.height_functional``); a series stores its
cutoff in that scale, and converts back to doubled heights only where it
reports them.

Inside a series each term's key is one int.  A :class:`KeyCodec`, one
per root system (:func:`key_codec`), packs a key (λ, Ψ) into signed
``FIELD_BITS``-bit fields with no bias: field 0 holds the integer height
Σ w_j·λ_j, fields 1..n hold λ, and each Ψ vertex (i, r) has a field of
its own, given when the codec first meets the vertex.  The vertex index
only grows, and an absent field is 0, so keys packed earlier stay valid.
Reading the fields as balanced digits makes the encoding canonical, so
two keys are equal iff their ints are, the key of a product is the sum
of the keys, and a term's height is its lowest field.  Every field of a
key lies in [-2^(FIELD_BITS-2), 2^(FIELD_BITS-2)), and an overflow
raises ``OverflowError`` and never wraps into a neighbouring field.
Packing rejects a wider field.  Each series carries an upper bound on
|field| over all its keys, the height field included, and a field of a
sum of keys is at most the sum of their bounds: so the keys that a
product or a monomial shift creates are checked, one add and one mask
each, only when the two bounds sum to 2^(FIELD_BITS-2) or more.  A product
forms only the term pairs whose heights sum to above its cutoff: it
walks the right factor's terms highest first (each series sorts its
terms by height once and keeps the order), and each left term's inner
loop stops at the first pair at or below the cutoff.  Keys are
decoded back to (λ, Ψ) tuples only at the edges: the constructor,
:meth:`KSeries.monomial`, :meth:`KSeries.mul_monomial`,
:meth:`KSeries.top` and the ``terms`` mapping.  The tuple key API is
``psi_var``, ``psi_mul``, ``key_mul``, ``key_one``, ``bracket`` and
``omega_lam2``.

Q-variables are evaluated by a bootstrap: for an ascent ``w′ s_i > w′``
the two-term QQ relation is solved for the variable at w′s_i upward in
the spectral parameter, one q²-step at a time, from those at w′.  Every
solved value is certified against the QQ relation itself before it is
cached, so a cached value is always a machine-checked one.  A label
w(ϖ_i) is solved and certified once, at the first parameter asked for;
every other parameter is served by the spectral shift τ_s, which moves
each Ψ_{j,q^b} to Ψ_{j,q^{b+s}} and leaves the bracket part alone.  The
solve commutes with τ_s, so the shifted value is the solved one term for
term, truncation included, and carries its certificate.  Each level of a
solve divides by a cached lower value; its inverse is cached too, beside
it, so a cached value is inverted at most once per evaluator.

This module evaluates Q-variables and knows nothing of quivers: the
label (word, i, r) of each window vertex's Q-variable comes from
``gvector.f_labels``.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from operator import add, itemgetter, lshift, mul

from .rootsys import (
    RootSystem,
    fundamental_weight,
    is_reduced,
    simple_root,
    weyl_from_word,
)

Lam2 = tuple[int, ...]
Psi = tuple[tuple[tuple[int, int], int], ...]  # ((i, r), exponent), sorted
Key = tuple[Lam2, Psi]


def psi_var(i: int, r: int, e: int = 1) -> Psi:
    return (((i, r), e),)


def psi_mul(p1: Psi, p2: Psi) -> Psi:
    d = dict(p1)
    for v, e in p2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(filter(itemgetter(1), d.items())))


def key_mul(k1: Key, k2: Key) -> Key:
    l1, p1 = k1
    l2, p2 = k2
    return (tuple(map(add, l1, l2)), psi_mul(p1, p2))


def key_one(n: int) -> Key:
    return ((0,) * n, ())


def bracket(lam2: Lam2) -> Key:
    """The monomial [λ] of the doubled weight ``lam2``, with no Ψ part."""
    return (tuple(lam2), ())


def omega_lam2(rs: RootSystem, psi: Psi) -> Lam2:
    """Doubled coordinates of Ω(Ψ-monomial) = Σ m·(r/2)·ϖ_i."""
    out = [0] * rs.n
    for (i, r), e in psi:
        out[i - 1] += e * r
    return tuple(out)


# ---------------------------------------------------------------------------
# packed keys
# ---------------------------------------------------------------------------


FIELD_BITS = 32
_MASK = (1 << FIELD_BITS) - 1
_HALF = 1 << (FIELD_BITS - 1)
# every field of a stored key lies in [-_LIMIT, _LIMIT)
_LIMIT = 1 << (FIELD_BITS - 2)


def _height(k: int) -> int:
    """Field 0 of a packed key: the term's height in the integer scale."""
    return ((k + _HALF) & _MASK) - _HALF


class KeyCodec:
    """Packs the keys (λ, Ψ) of one root system into ints.

    Field 0 is the height Σ w_j·λ_j, fields 1..n are λ, and the field at
    bit ``shift[(i, r)]`` is the exponent of Ψ_{i,q^r}.  ``off`` holds
    2^(FIELD_BITS-2) and ``guard`` the top bit in every field so far: a
    key whose fields all lie in [-2^(FIELD_BITS-2), 2^(FIELD_BITS-2))
    has ``(k + off) & guard == 0``, and a sum of two such keys that left
    the range in some field sets that field's guard bit.
    """

    def __init__(self, rs: RootSystem) -> None:
        self.n = rs.n
        self.den, self.w = rs.height_functional
        self.lam_shifts = tuple(FIELD_BITS * j for j in range(1, 1 + self.n))
        self.shift: dict[tuple[int, int], int] = {}
        self.vertices: list[tuple[int, int]] = []
        self.off = self.guard = 0
        for f in range(1 + self.n):
            self._open(f)

    def _open(self, f: int) -> int:
        """Open field f; its bit offset."""
        self.off |= _LIMIT << (FIELD_BITS * f)
        self.guard |= _HALF << (FIELD_BITS * f)
        return FIELD_BITS * f

    def _new_vertex(self, v: tuple[int, int]) -> int:
        self.vertices.append(v)
        self.shift[v] = self._open(self.n + len(self.vertices))
        return self.shift[v]

    def pack(self, key: Key) -> int:
        return self.pack_wide(key)[0]

    def pack_wide(self, key: Key) -> tuple[int, int]:
        """The packed key and its widest field, max |field| over the
        height, λ and every Ψ exponent."""
        lam, psi = key
        if len(lam) != self.n:
            raise ValueError(f"weight {lam} does not have {self.n} coordinates")
        h = sum(map(mul, self.w, lam))
        k = h + sum(map(lshift, lam, self.lam_shifts))
        widest = abs(h)
        for x in lam:
            if abs(x) > widest:
                widest = abs(x)
        shift = self.shift
        for v, e in psi:
            if abs(e) > widest:
                widest = abs(e)
            k += e << (shift.get(v) or self._new_vertex(v))
        if widest >= _LIMIT:
            raise OverflowError(f"a field of key {key} does not fit {FIELD_BITS} bits")
        return k, widest

    def unpack(self, k: int) -> Key:
        """The key (λ, Ψ) of ``k``, read in one pass from its biased bytes,
        the layout :meth:`tau` reads: field f is the unsigned 32-bit
        (FIELD_BITS) word f of ``k + guard``, less 2^31."""
        count = 1 + self.n + len(self.vertices)
        biased = (k + self.guard).to_bytes(4 * count, "little")
        fields = struct.unpack(f"<{count}I", biased)
        lam = tuple(f - _HALF for f in fields[1:1 + self.n])
        psi = sorted(
            (self.vertices[j], f - _HALF)
            for j, f in enumerate(fields[1 + self.n:])
            if f != _HALF
        )
        return lam, tuple(psi)

    def tau(self, t: dict, s: int) -> dict:
        """The terms ``t`` with each Ψ field (j, b) moved to (j, b + s).

        Adding ``guard`` biases every field into [0, 2^FIELD_BITS), so the
        bytes of a biased key hold its fields one after another, and XOR
        with ``guard`` leaves a field nonzero exactly where the key's is.
        The Ψ fields that are nonzero in some key are found once; each key
        is then rebuilt from the bytes of an all-zero key, with its height
        and λ bytes copied and each of those fields' bytes moved to the
        field of the shifted vertex.  Every field keeps its value, so no
        key can leave the field range.
        """
        used = 0
        for k in t:
            used |= (k + self.guard) ^ self.guard
        width = FIELD_BITS // 8
        moves = []
        f = 1 + self.n  # the field at the lowest bit of ``used``
        used >>= FIELD_BITS * f
        while used:
            gap = ((used & -used).bit_length() - 1) // FIELD_BITS
            used >>= FIELD_BITS * (gap + 1)
            f += gap
            i, b = self.vertices[f - 1 - self.n]
            at = self.shift.get((i, b + s)) or self._new_vertex((i, b + s))
            moves.append((width * f, at // 8))
            f += 1
        guard = self.guard  # with the fields just opened
        size = width * (1 + self.n + len(self.vertices))
        zero = guard.to_bytes(size, "little")
        lo = width * (1 + self.n)
        out = {}
        for k, c in t.items():
            old = (k + guard).to_bytes(size, "little")
            new = bytearray(zero)
            new[:lo] = old[:lo]
            for src, dst in moves:
                new[dst:dst + width] = old[src:src + width]
            out[int.from_bytes(new, "little") - guard] = c
        return out

    def check(self, keys) -> None:
        """Raise ``OverflowError`` if a created key left the field range."""
        off, guard = self.off, self.guard
        if any((k + off) & guard for k in keys):
            raise OverflowError(f"a key field overflowed {FIELD_BITS - 2} bits")


@lru_cache(maxsize=None)
def key_codec(rs: RootSystem) -> KeyCodec:
    """The one codec of a root system, shared by all its series."""
    return KeyCodec(rs)


class _Terms(Mapping):
    """A series' terms keyed by (λ, Ψ) tuples, decoded on access."""

    __slots__ = ("_t", "_cx")

    def __init__(self, t: dict, cx: KeyCodec) -> None:
        self._t, self._cx = t, cx

    def __len__(self) -> int:
        return len(self._t)

    def __iter__(self):
        return map(self._cx.unpack, self._t)

    def __getitem__(self, key: Key) -> int:
        return self._t[self._cx.pack(key)]

    def items(self):
        return {self._cx.unpack(k): c for k, c in self._t.items()}.items()

    def __repr__(self) -> str:
        return repr(dict(self.items()))


# ---------------------------------------------------------------------------
# truncated series
# ---------------------------------------------------------------------------


class TruncationError(ValueError):
    """An operation needed terms beyond the guaranteed truncation."""


class KSeries:
    """A truncated series: exact ``terms`` above a cutoff height.

    Heights are integers in one scale: with ``(den, w) =
    rs.height_functional``, a term whose bracket has ``coords2`` λ sits at
    the integer height Σ w_j·λ_j, which is den times its doubled height.
    The cutoff is stored in that scale as ``cut``, so pruning, products
    and comparisons use plain integers.  The public unit stays the doubled
    height as ``Fraction``: the constructor's ``cutoff2`` and the
    ``cutoff2`` attribute.  A cutoff that is not a multiple of 1/den
    raises ``ValueError``.

    The terms are held as ``_t``, a dict from packed keys (see
    :class:`KeyCodec`) to coefficients; ``terms`` is a read-only mapping
    over it keyed by (λ, Ψ) tuples.  ``_t`` holds only nonzero terms
    strictly above ``cut``: the constructor drops the rest, and no method
    changes a series in place.

    ``_w`` bounds |field| over every key of ``_t``, the height field
    included.  The constructor sets it exactly, from the widest field
    that packing reads; ``+`` takes the larger bound, and negation,
    ``tau`` and truncation keep it, since none of them makes a new
    field value.  A product adds the two bounds, and a monomial shift
    adds the monomial's widest field.  Only where that sum reaches
    2^(FIELD_BITS-2) are the created keys checked (``KeyCodec.check``),
    and a result that passes its check has the bound 2^(FIELD_BITS-2),
    the widest field the check admits.  A series made with no known
    bound (``_new`` without ``w``) has that one too, so every product
    and shift of it is checked.

    A series keeps its terms in height order too: ``_order()`` is the
    list of (height, key, coefficient), highest first, sorted on first
    use and then kept, so a series that is a factor of many products
    (a memoized segment class) is sorted once.  A product takes its
    cutoff from the top heights of that order and forms only the pairs
    above it, walking the right factor's order.  ``+`` and ``matches``
    prune one side only: both sides hold only terms above their own
    cutoffs, so only the side with the lower cutoff can have terms at
    or below the common one.
    """

    __slots__ = ("rs", "_t", "cut", "_cx", "_ordered", "_w")

    def __init__(self, rs: RootSystem, terms: dict, cutoff2) -> None:
        self.rs = rs
        self._cx = key_codec(rs)
        self._t: dict = {}
        widest: dict = {}
        for k, c in terms.items():
            k, w = self._cx.pack_wide(k)
            widest[k] = w
            self._t[k] = self._t.get(k, 0) + c
        self.cut = _scaled(self._cx.den, cutoff2)
        self._ordered = None
        self._prune()
        self._w = max(map(widest.__getitem__, self._t), default=0)

    def _new(self, t: dict, cut: int, w: int = _LIMIT) -> "KSeries":
        """A series over the same root system, cutoff given in the scale,
        with ``w`` bounding its fields (unknown: every product checks)."""
        s = KSeries.__new__(KSeries)
        s.rs, s._t, s.cut, s._cx, s._ordered, s._w = (
            self.rs, t, cut, self._cx, None, w
        )
        return s

    @property
    def terms(self) -> _Terms:
        return _Terms(self._t, self._cx)

    @staticmethod
    def monomial(rs: RootSystem, key: Key, cutoff2) -> "KSeries":
        return KSeries(rs, {key: 1}, cutoff2)

    @staticmethod
    def one(rs: RootSystem, cutoff2) -> "KSeries":
        return KSeries.monomial(rs, key_one(rs.n), cutoff2)

    @staticmethod
    def zero(rs: RootSystem, cutoff2) -> "KSeries":
        return KSeries(rs, {}, cutoff2)

    def _one(self, cut: int) -> "KSeries":
        return self._new({0: 1} if cut < 0 else {}, cut, 0)

    @property
    def cutoff2(self) -> Fraction:
        return Fraction(self.cut, self._cx.den)

    def _prune(self) -> None:
        lo = self.cut + _HALF
        self._t = {
            k: c for k, c in self._t.items() if c and (k + _HALF) & _MASK > lo
        }

    def _order(self) -> list:
        """The terms as (height, key, coefficient), highest first.

        Sorted on first use and kept; ``_t`` never changes after
        ``_prune``, so the kept list is never stale.
        """
        if self._ordered is None:
            self._ordered = sorted(
                [(((k + _HALF) & _MASK) - _HALF, k, c) for k, c in self._t.items()],
                reverse=True,
            )
        return self._ordered

    def _max_h(self) -> int:
        order = self._order()
        return order[0][0] if order else self.cut

    def _top(self) -> tuple[int, int]:
        order = self._order()
        if not order:
            raise TruncationError("series has no terms above its cutoff")
        h, top, c = order[0]
        if len(order) > 1 and order[1][0] == h:
            keys = [self._cx.unpack(k) for k in self._t if _height(k) == h]
            raise TruncationError(f"leading term is not unique: {keys}")
        return top, c

    def top(self) -> tuple[Key, int]:
        """The unique term of maximal height, as (key, coefficient)."""
        k, c = self._top()
        return self._cx.unpack(k), c

    def _above(self, cut: int) -> dict:
        """The terms above ``cut``: ``_t`` itself unless ``cut`` is higher
        than the series' own cutoff, and only then a pruned copy."""
        if cut <= self.cut:
            return self._t
        lo = cut + _HALF
        return {k: c for k, c in self._t.items() if (k + _HALF) & _MASK > lo}

    def __add__(self, other: "KSeries") -> "KSeries":
        # self's keys first, then other's new ones
        cut = max(self.cut, other.cut)
        out = dict(self._above(cut))
        get = out.get
        for k, c in other._above(cut).items():
            c += get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return self._new(out, cut, max(self._w, other._w))

    def __neg__(self) -> "KSeries":
        return self._new({k: -c for k, c in self._t.items()}, self.cut, self._w)

    def __sub__(self, other: "KSeries") -> "KSeries":
        return self + (-other)

    def __mul__(self, other: "KSeries") -> "KSeries":
        cut = max(self.cut + other._max_h(), other.cut + self._max_h())
        # the right factor highest first: for each left term the pairs
        # above the cutoff are a prefix, and the first one at or below
        # it ends the inner loop
        right = other._order()
        out: dict = {}
        get = out.get
        for k1, c1 in self._t.items():
            floor = cut - (((k1 + _HALF) & _MASK) - _HALF)
            for h2, k2, c2 in right:
                if h2 <= floor:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        w = self._w + other._w
        if w >= _LIMIT:
            self._cx.check(out)
            w = _LIMIT
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return self._new(out, cut, w)

    def mul_monomial(self, key: Key) -> "KSeries":
        """Exact multiplication by a single monomial (shifts the cutoff)."""
        return self._shift(*self._cx.pack_wide(key), 1)

    def _shift(self, k: int, wk: int, coeff: int) -> "KSeries":
        """``coeff`` times the monomial ``k``, whose widest field is ``wk``."""
        out = {k1 + k: c * coeff for k1, c in self._t.items()}
        w = self._w + wk
        if w >= _LIMIT:
            self._cx.check(out)
            w = _LIMIT
        return self._new(out, self.cut + _height(k), w)

    def tau(self, s: int) -> "KSeries":
        """The spectral shift τ_s: Ψ_{j,q^b} ↦ Ψ_{j,q^{b+s}} in every term.

        A ring automorphism that keeps every height, so the cutoff stays.
        """
        return self._new(self._cx.tau(self._t, s), self.cut, self._w)

    def clamped(self, cutoff2) -> "KSeries":
        """Copy truncated at a coarser (higher) cutoff."""
        return self._clamp(_scaled(self._cx.den, cutoff2))

    def _clamp(self, cut: int) -> "KSeries":
        if cut <= self.cut:
            return self
        return self._new(self._above(cut), cut, self._w)

    def inverse(self) -> "KSeries":
        t, c0 = self._top()
        if c0 not in (1, -1):
            raise TruncationError(f"cannot invert leading coefficient {c0}")
        cut = self.cut - _height(t)
        # t is a key of this series, so its widest field is within _w
        eps = self._shift(-t, self._w, c0) - self._one(cut)
        # with a term at height 0 or above the powers of eps never vanish
        if eps._t and eps._max_h() >= 0:
            raise TruncationError("the leading term is not the only one at its height")
        acc = self._one(cut)
        power = acc
        while power._t:
            power = (-(power * eps))._clamp(cut)
            acc = acc + power
        return acc._shift(-t, self._w, c0)

    def matches(self, other: "KSeries") -> bool:
        """Equality of all terms above the common guaranteed cutoff.

        False when neither side has a term there: such a comparison
        compared nothing.
        """
        cut = max(self.cut, other.cut)
        a = self._above(cut)
        return bool(a) and a == other._above(cut)

    def is_zero(self) -> bool:
        return not self._t

    def __repr__(self) -> str:
        return (
            f"KSeries({self.rs.dynkin_type}, {self.terms!r}, "
            f"cutoff2={self.cutoff2})"
        )


def _scaled(den: int, cutoff2) -> int:
    """A doubled height as an integer in the scale of ``den``."""
    if not isinstance(cutoff2, Rational):
        cutoff2 = Fraction(cutoff2)
    if den % cutoff2.denominator:
        raise ValueError(f"cutoff {cutoff2} is not a multiple of 1/{den}")
    return cutoff2.numerator * (den // cutoff2.denominator)


# ---------------------------------------------------------------------------
# Q-variable evaluation
# ---------------------------------------------------------------------------


class CertificationError(RuntimeError):
    """A solved Q-variable failed its defining relation check."""


class QEvaluator:
    """Exact evaluator of (renormalized) Q-variables on a height window.

    ``depth`` is the guaranteed truncation depth in root-height units:
    every returned series is exact on all terms less than ``depth`` simple
    roots below its leading monomial.  A depth below 1 raises
    ``ValueError``: the unit would keep no term, so nothing could be
    compared.

    ``_bases`` maps a label w(ϖ_i) to (r₀, value): the value solved at
    the first parameter r₀ it was asked for, which ``_certify`` checked
    before it was stored.  ``_memo`` maps (w(ϖ_i), r) to the value
    ``q_raw`` returns, the base at r₀ and τ_{r−r₀} of it elsewhere, and
    ``_inverses`` maps the same keys to those values' inverses.  An
    inverse is taken only of a value ``q_raw`` has returned, so the keys
    of ``_inverses`` are always a subset of those of ``_memo``.

    A shifted value counts as certified.  The solve is equivariant under
    τ_s: its base case is the monomial Ψ_{i,q^r}, and its levels, its
    cutoff −2·depth and its brackets [−w′(α_i)] do not depend on r.  τ_s
    is a ring automorphism that keeps every height, so it keeps every
    cutoff and commutes with every product, inverse and truncation of
    the solve: τ_s of the certified base is the value a solve at r₀ + s
    would give, term for term, and it satisfies the relation that
    ``_certify`` checked, shifted by s.
    """

    def __init__(self, rs: RootSystem, depth: int = 6):
        if depth < 1:
            raise ValueError(f"depth must be at least 1, got {depth}")
        self.rs = rs
        self.depth = depth
        self._bases: dict = {}
        self._memo: dict = {}
        self._inverses: dict = {}
        self._labels: dict = {}

    # -- bookkeeping ------------------------------------------------------

    def _label(self, word, i: int) -> tuple:
        """(w, w(ϖ_i), ascent) for a reduced word stripped to w, its last
        letter i; ascent is (w′, integer height of w′(α_i), [−w′(α_i)])
        for w = w′s_i, or None for w = 1.  Each record is derived once per
        evaluator and shared by a word and its stripped form."""
        word = tuple(word)
        if (word, i) in self._labels:
            return self._labels[word, i]
        element = weyl_from_word(self.rs, word)
        if element.length != len(word):
            raise ValueError(f"word {word} is not reduced")
        w = word
        while w and w[-1] != i:
            w = w[:-1]
        if (w, i) not in self._labels:
            ascent = None
            if w:
                alpha2 = weyl_from_word(self.rs, w[:-1]).apply(
                    simple_root(self.rs, i)
                ).coords2
                # an ascent iff w'(α_i) is a positive root
                if any(c < 0 for c in self.rs.root_coords2(alpha2)):
                    raise ValueError(f"{w} is not an ascent at {i}")
                h = sum(map(mul, self.rs.height_functional[1], alpha2))
                br = bracket(tuple(-a for a in alpha2))
                ascent = (w[:-1], h, br)
            # the letters after the last i fix ϖ_i
            lam2 = element.apply(fundamental_weight(self.rs, i)).coords2
            self._labels[w, i] = (w, lam2, ascent)
        self._labels[word, i] = self._labels[w, i]
        return self._labels[word, i]

    def _neighbors(self, w_prime, i: int, b: int) -> KSeries:
        """∏_{j~i} Q′_j(b), with Q′ the Q-variables at w′."""
        out = KSeries.one(self.rs, -2 * self.depth)
        for j in self.rs.neighbors(i):
            out = (out * self.q_raw(w_prime, j, b)).clamped(-2 * self.depth)
        return out

    # -- raw Q-variables --------------------------------------------------

    def q_raw(self, word, i: int, r: int) -> KSeries:
        """Projection of the Q-variable of weight w(ϖ_i) at parameter q^r:
        solved and certified at the first r asked for, and the shift of
        that base value at every other r."""
        w, lam2, _ = self._label(word, i)
        memo_key = (lam2, r)
        if memo_key not in self._memo:
            if lam2 in self._bases:
                r0, base = self._bases[lam2]
                value = base.tau(r - r0)
            else:
                value = self._solve(w, i, r)
                self._certify(w, i, r, value)
                self._bases[lam2] = (r, value)
            self._memo[memo_key] = value
        return self._memo[memo_key]

    def _q_inverse(self, word, i: int, r: int) -> KSeries:
        """1 / q_raw(word, i, r), inverted once per certified value."""
        value = self.q_raw(word, i, r)
        memo_key = (self._label(word, i)[1], r)
        if memo_key not in self._inverses:
            self._inverses[memo_key] = value.inverse()
        return self._inverses[memo_key]

    def _solve(self, word, i: int, r: int) -> KSeries:
        """Q(b) = (∏_{j~i} Q′_j(b−1) + Q′_i(b)·[−w′(α_i)]·Q(b−2)) / Q′_i(b−2)
        for b = r − 2(levels − 1), …, r from Q = 0: each level sits the
        height of w′(α_i) lower, so the bottom one is below the cutoff."""
        cutoff = -2 * self.depth
        ascent = self._label(word, i)[2]
        if ascent is None:
            return KSeries.monomial(
                self.rs, ((0,) * self.rs.n, psi_var(i, r)), cutoff
            )
        w_prime, h, br = ascent
        levels = (2 * self.depth * self.rs.height_functional[0]) // h + 1
        value = KSeries.zero(self.rs, cutoff)
        for b in range(r - 2 * (levels - 1), r + 1, 2):
            # clamp before the product, so terms below the cutoff go first
            prev = value.mul_monomial(br).clamped(cutoff)
            num = self._neighbors(w_prime, i, b - 1)
            num = num + self.q_raw(w_prime, i, b) * prev
            value = (num * self._q_inverse(w_prime, i, b - 2)).clamped(cutoff)
        return value

    def _certify(self, word, i: int, r: int, value: KSeries) -> None:
        """Check the defining two-term relation before trusting a value;
        the lower value is solved afresh and every product is recomputed,
        so the check is no tautology.  Only the inverses of certified
        inputs are shared with the solve.  It runs once per label, on the
        base value, and τ carries it to every other r (see
        :class:`QEvaluator`)."""
        ascent = self._label(word, i)[2]
        if ascent is None:
            return
        w_prime, _, br = ascent
        lower = self._solve(word, i, r - 2)
        lhs = value * self.q_raw(w_prime, i, r - 2) - (
            lower * self.q_raw(w_prime, i, r)
        ).mul_monomial(br)
        if not lhs.matches(self._neighbors(w_prime, i, r - 1)):
            raise CertificationError(
                f"QQ relation failed for word={word}, i={i}, r={r}"
            )

    # -- renormalized Q-variables -----------------------------------------

    def q_bar(self, word, i: int, r: int) -> KSeries:
        """Renormalized variable: q_raw multiplied by [-Ω(top Ψ-monomial)]."""
        raw = self.q_raw(word, i, r)
        (lam2, psi), _ = raw.top()
        shift = tuple(-a for a in omega_lam2(self.rs, psi))
        return raw.mul_monomial(bracket(shift))


def qq_check(ev: QEvaluator, word, i: int, r: int) -> bool:
    """Renormalized QQ relation for the ascent w s_i > w at parameter q^r."""
    word = tuple(word)
    ext = word + (i,)
    if not is_reduced(ev.rs, ext):
        raise ValueError(f"{word} has no ascent at {i}")
    lhs = ev.q_bar(ext, i, r) * ev.q_bar(word, i, r - 2) - ev.q_bar(
        ext, i, r - 2
    ) * ev.q_bar(word, i, r)
    rhs = KSeries.one(ev.rs, -2 * ev.depth)
    for j in ev.rs.neighbors(i):
        rhs = rhs * ev.q_bar(word, j, r - 1)
    return lhs.matches(rhs)


def qqstar_check(ev: QEvaluator, word, i: int, j: int, r: int) -> bool:
    """Three-term exchange relation for adjacent i, j with l(w s_i s_j s_i)
    = l(w) + 3: the product at (ws_i, ws_j) splits into the two mixed
    products, at parameters q^r and q^{r+1}."""
    if ev.rs.cartan[i - 1][j - 1] != -1:
        raise ValueError(f"nodes {i} and {j} are not adjacent")
    word = tuple(word)
    if not is_reduced(ev.rs, word + (i, j, i)):
        raise ValueError(f"{word} does not admit the triple ascent {i},{j}")
    lhs = ev.q_bar(word + (i,), i, r) * ev.q_bar(word + (j,), j, r + 1)
    rhs = ev.q_bar(word, i, r) * ev.q_bar(word + (i, j), j, r + 1) + ev.q_bar(
        word + (j, i), i, r
    ) * ev.q_bar(word, j, r + 1)
    return lhs.matches(rhs)
