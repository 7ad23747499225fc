"""Complete rank-one model: segments, the infinity-gon, Ptolemy exchange.

In rank one every prime class of the truncated series ring is labelled by
a *segment* ``[r, s]`` with ``r ∈ ℤ∪{-∞}``, ``s ∈ ℤ∪{+∞}``:

* ``[r, +∞]`` — the monomial class ``Ψ_{q^{2r}}``;
* ``[-∞, s]`` — the negative-prefundamental class with top
  ``Ψ_{q^{2(s+1)}}^{-1}`` (an infinite nested series, truncated);
* ``[r, s]`` finite — the finite-dimensional class with top
  ``Ψ_{q^{2r}}Ψ_{q^{2(s+1)}}^{-1}`` (an exact finite sum).

Segments correspond to diagonals ``(r, s+2)`` of an ∞-gon with vertex set
``ℤ∪{±∞}``; two classes are compatible (their product is again such a
class) exactly when the diagonals do not cross in their interior.  The
exchange relations of the cluster structure are Ptolemy relations in the
quadrilateral spanned by two crossing diagonals, and every Laurent
monomial in the ``Ψ`` variables factors uniquely into pairwise-compatible
segments.  Everything here is certified by direct multiplication in
:class:`~clusterqq.qseries.KSeries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qseries import (
    KSeries,
    Key,
    a_monomial,
    bracket,
    key_inv,
    key_mul,
    key_one,
    psi_mul,
    psi_var,
)
from .rootsys import RootSystem, fundamental_weight, simple_root

INF = math.inf

_A1 = RootSystem.from_name("A1")


@dataclass(frozen=True, order=True)
class Segment:
    """Prime-class label [r, s]; r > s denotes the unit class."""

    r: float
    s: float

    def __post_init__(self):
        for x in (self.r, self.s):
            if not (isinstance(x, int) or x in (INF, -INF)):
                raise ValueError(f"bad segment endpoint {x!r}")
        if self.r == INF or self.s == -INF:
            if not self.is_unit:
                raise ValueError(f"bad segment [{self.r}, {self.s}]")

    @property
    def is_unit(self) -> bool:
        return self.r > self.s

    @property
    def is_finite(self) -> bool:
        return not self.is_unit and self.r != -INF and self.s != INF

    def ell_weight(self) -> Key:
        """Top monomial of the class (the unit key for [-∞,+∞] or r>s)."""
        p = ()
        if self.is_unit or (self.r == -INF and self.s == INF):
            return key_one(1)
        if self.r != -INF:
            p = psi_var(1, 2 * int(self.r))
        if self.s != INF:
            p = p + psi_var(1, 2 * (int(self.s) + 1), -1)
        return ((0,), tuple(sorted(p)))

    def diagonal(self) -> "Diagonal":
        if self.is_unit:
            raise ValueError("unit class has no diagonal")
        return Diagonal(self.r, self.s + 2)

    def __str__(self) -> str:
        def fmt(x):
            if x == INF:
                return "+inf"
            if x == -INF:
                return "-inf"
            return str(int(x))

        return f"[{fmt(self.r)},{fmt(self.s)}]"


@dataclass(frozen=True, order=True)
class Diagonal:
    """Diagonal (a, b), a < b, of the ∞-gon with vertices ℤ∪{±∞}."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")

    @property
    def is_edge(self) -> bool:
        """Boundary edges of the ∞-gon carry the unit class."""
        return self.b == self.a + 1 or (self.a, self.b) == (-INF, INF)

    def segment(self) -> Segment:
        return Segment(self.a, self.b - 2)

    def crosses(self, other: "Diagonal") -> bool:
        """True iff the two diagonals intersect in their interiors."""
        a, b, c, d = self.a, self.b, other.a, other.b
        return a < c < b < d or c < a < d < b


def compatible(s1: Segment, s2: Segment) -> bool:
    """True iff the product of the two classes is again a single class.

    Equivalently, the union of the two segments is not an interval
    properly containing both — and equivalently the associated diagonals
    do not cross in their interiors.
    """
    if s1.is_unit or s2.is_unit:
        return True
    for a, b in ((s1, s2), (s2, s1)):
        if a.r < b.r and a.s < b.s and b.r <= a.s + 1:
            return False
    return True


# ---------------------------------------------------------------------------
# q-characters of segment classes
# ---------------------------------------------------------------------------


def _one(d: int) -> KSeries:
    return KSeries.one(_A1, Fraction(-2 * d))


def _monomial(key: Key, d: int) -> KSeries:
    return _one(d).mul_monomial(key)


def _neg_half_series(s: int, d: int) -> KSeries:
    """Class of [-∞, s]: Ψ_{q^{2(s+1)}}^{-1}(1 + A^{-1}(1 + ...)), depth d."""
    top = 2 * (s + 1)
    cutoff = Fraction(-2 * d)
    ser = KSeries.one(_A1, cutoff)
    for k in reversed(range(d)):
        inner = ser.mul_monomial(key_inv(a_monomial(_A1, 1, top - 2 * k)))
        ser = KSeries.one(_A1, cutoff) + inner.clamped(cutoff)
    return ser.mul_monomial(((0,), psi_var(1, top, -1)))


def _finite_series(r: int, s: int, d: int) -> KSeries:
    """Class of finite [r, s] as the exact closed sum over weight levels."""
    alpha2 = simple_root(_A1, 1).coords2
    top = s + 1
    terms: dict[Key, int] = {}
    for t in range(r, top + 1):
        psi = psi_mul(
            psi_mul(psi_var(1, 2 * (top + 1)), psi_var(1, 2 * (t + 1), -1)),
            psi_mul(psi_var(1, 2 * t, -1), psi_var(1, 2 * r)),
        )
        key = key_mul(
            bracket(_A1, tuple((t - top) * c for c in alpha2)), ((0,), psi)
        )
        terms[key] = terms.get(key, 0) + 1
    cutoff = Fraction(-2 * max(d, top - r + 1))
    return KSeries(_A1, terms, cutoff)


def segment_qchar(seg: Segment, d: int = 6) -> KSeries:
    """Truncated series of the class labelled by ``seg`` (depth ``d``)."""
    if seg.is_unit or (seg.r, seg.s) == (-INF, INF):
        return _one(d)
    if seg.s == INF:
        return _monomial(seg.ell_weight(), d)
    if seg.r == -INF:
        return _neg_half_series(int(seg.s), d)
    return _finite_series(int(seg.r), int(seg.s), d)


# ---------------------------------------------------------------------------
# Ptolemy exchange relations
# ---------------------------------------------------------------------------


def ptolemy_check(r, s, rp, sp, d: int = 6) -> dict:
    """Certify [r,s][r',s'] = [r,s'][r',s] + [2(r'-s-2)ϖ][r,r'-2][s+2,s'].

    Preconditions: r < r', s < s', r' ≤ s+1, with r' and s finite (r may
    be -∞ and s' may be +∞).  Both sides are expanded to depth ``d`` and
    compared exactly above the common cutoff; at d < 1 both sides are
    empty, so a depth below 1 raises ``ValueError``.
    """
    if d < 1:
        raise ValueError(f"depth must be at least 1, got {d}")
    if not (r < rp and s < sp and rp <= s + 1):
        raise ValueError(f"need r<r', s<s', r'<=s+1; got {(r, s, rp, sp)}")
    if rp in (INF, -INF) or s in (INF, -INF):
        raise ValueError("r' and s must be finite")
    lhs = segment_qchar(Segment(r, s), d) * segment_qchar(Segment(rp, sp), d)
    rhs = segment_qchar(Segment(r, sp), d) * segment_qchar(Segment(rp, s), d)
    varpi2 = fundamental_weight(_A1, 1).coords2
    m = int(rp - s - 2)
    corr = segment_qchar(Segment(r, rp - 2), d) * segment_qchar(
        Segment(s + 2, sp), d
    )
    rhs = rhs + corr.mul_monomial(bracket(_A1, tuple(2 * m * c for c in varpi2)))
    ok = lhs.matches(rhs)
    return {
        "relation": "ptolemy",
        "segments": [str(Segment(r, s)), str(Segment(rp, sp))],
        "depth": d,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# cluster variables of the ∞-gon model
# ---------------------------------------------------------------------------


def x_plus(v: int, d: int = 6) -> KSeries:
    """Variable of the diagonal (v, +∞): [-vϖ]·Ψ_{q^{2v}}."""
    varpi2 = fundamental_weight(_A1, 1).coords2
    key = key_mul(
        bracket(_A1, tuple(-v * c for c in varpi2)), ((0,), psi_var(1, 2 * v))
    )
    return _monomial(key, d)


def x_minus(v: int, d: int = 6) -> KSeries:
    """Variable of the diagonal (-∞, v+1): [vϖ]·(class of [-∞, v-1])."""
    varpi2 = fundamental_weight(_A1, 1).coords2
    return segment_qchar(Segment(-INF, v - 1), d).mul_monomial(
        bracket(_A1, tuple(v * c for c in varpi2))
    )


def x_finite(r: int, s: int, d: int = 6) -> KSeries:
    """Variable of the diagonal (r, s+1), r < s: [(s-r)ϖ]·[r, s-1]."""
    if not r < s:
        raise ValueError(f"need r < s, got ({r}, {s})")
    varpi2 = fundamental_weight(_A1, 1).coords2
    return segment_qchar(Segment(r, s - 1), d).mul_monomial(
        bracket(_A1, tuple((s - r) * c for c in varpi2))
    )


def diagonal_variable(diag: Diagonal, d: int = 6) -> KSeries:
    """Series of the cluster variable attached to a diagonal (edges → 1)."""
    if diag.is_edge:
        return _one(d)
    if diag.b == INF:
        return x_plus(int(diag.a), d)
    if diag.a == -INF:
        return x_minus(int(diag.b) - 1, d)
    return x_finite(int(diag.a), int(diag.b) - 1, d)


def exchange_relations_at(r: int, d: int = 6, span: int = 3) -> list[dict]:
    """Certify the exchange relations of the seed whose fan switches at r.

    Away from the switch the relations are three-term flips

        x⁺_v·x_{v-1,v} = x⁺_{v+1} + x⁺_{v-1}          (v > r),
        x⁻_v·x_{v,v+1} = x⁻_{v+1} + x⁻_{v-1}          (v < r-1),

    while the two relations at the switch pair the half-infinite
    diagonals through the quadrilaterals (-∞, r, r+1, +∞) and
    (-∞, r-1, r, +∞), whose fourth side is the unit edge (-∞, +∞):

        x⁺_r·x⁻_r     = x⁺_{r+1}·x⁻_{r-1} + 1,
        x⁻_{r-1}·x⁺_{r-1} = x⁺_r·x⁻_{r-2} + 1.

    Each is verified in KSeries at depth d; ``span`` controls how many
    instances of the two translation-invariant families are checked.
    """
    certs = []

    def cert(name, v, lhs, rhs):
        certs.append(
            {"relation": name, "at": v, "depth": d, "ok": lhs.matches(rhs)}
        )

    one = _one(d)
    for v in range(r + 1, r + 1 + span):
        cert(
            "flip-upper", v,
            x_plus(v, d) * x_finite(v - 1, v, d),
            x_plus(v + 1, d) + x_plus(v - 1, d),
        )
    cert(
        "flip-switch-red", r,
        x_plus(r, d) * x_minus(r, d),
        x_plus(r + 1, d) * x_minus(r - 1, d) + one,
    )
    cert(
        "flip-switch-green", r - 1,
        x_minus(r - 1, d) * x_plus(r - 1, d),
        x_plus(r, d) * x_minus(r - 2, d) + one,
    )
    for v in range(r - 1 - span, r - 1):
        cert(
            "flip-lower", v,
            x_minus(v, d) * x_finite(v, v + 1, d),
            x_minus(v + 1, d) + x_minus(v - 1, d),
        )
    return certs


def quadrilateral_check(a, b, c, e, d: int = 6) -> dict:
    """Ptolemy relation for the quadrilateral a < b < c < e in variables.

    (a,c)(b,e) = (a,e)(b,c) + (a,b)(c,e), each diagonal/edge replaced by
    its cluster-variable series.
    """
    if not a < b < c < e:
        raise ValueError("need a < b < c < e")
    var = lambda x, y: diagonal_variable(Diagonal(x, y), d)
    lhs = var(a, c) * var(b, e)
    rhs = var(a, e) * var(b, c) + var(a, b) * var(c, e)
    return {
        "relation": "quadrilateral",
        "vertices": [a, b, c, e],
        "depth": d,
        "ok": lhs.matches(rhs),
    }


# ---------------------------------------------------------------------------
# unique factorization into compatible segments
# ---------------------------------------------------------------------------


def factorize(key: Key) -> tuple[tuple[Segment, ...], tuple[int, ...]]:
    """Factor a Laurent monomial in the Ψ variables into segments.

    Returns the unique multiset of pairwise-compatible segments whose
    top monomials multiply to the Ψ part of ``key``, together with the
    invertible bracket part of ``key`` (carried separately).  Positive
    factors Ψ_{q^{2r}} open a segment; each inverse factor closes the
    innermost open segment below it, or starts a half-infinite one.
    """
    lam2, psi = key
    events: list[tuple[int, int]] = []
    for (i, h), e in psi:
        if i != 1 or h % 2:
            raise ValueError(f"not a rank-one even-height monomial: {(i, h)}")
        events.append((h // 2, e))
    segments: list[Segment] = []
    stack: list[int] = []
    for h, e in sorted(events):
        if e > 0:
            stack.extend([h] * e)
        else:
            for _ in range(-e):
                if stack:
                    segments.append(Segment(stack.pop(), h - 1))
                else:
                    segments.append(Segment(-INF, h - 1))
    segments.extend(Segment(p, INF) for p in stack)
    return tuple(sorted(segments)), tuple(lam2)


def parse_monomial(text: str) -> Key:
    """Parse "2:1 -4:-1 ..." pairs "height:exponent" into a Ψ monomial key."""
    psi = ()
    for tok in text.split():
        h, _, e = tok.partition(":")
        psi = psi_mul(psi, psi_var(1, 2 * int(h), int(e or "1")))
    return ((0,), psi)
