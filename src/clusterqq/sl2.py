"""Complete rank-one model: segments, the infinity-gon, Ptolemy exchange.

In rank one every prime class of the truncated series ring is labelled by
a *segment* ``[r, s]`` with ``r ∈ ℤ∪{-∞}``, ``s ∈ ℤ∪{+∞}``:

* ``[r, +∞]`` — the monomial class ``Ψ_{q^{2r}}``;
* ``[-∞, s]`` — the negative-prefundamental class with top
  ``Ψ_{q^{2(s+1)}}^{-1}`` (an infinite sum, kept above the cutoff);
* ``[r, s]`` finite — the finite-dimensional class with top
  ``Ψ_{q^{2r}}Ψ_{q^{2(s+1)}}^{-1}`` (an exact sum of s - r + 2 terms).

Both sums are one sum: the top monomial times the partial products of
the chain 1 + A^{-1}(1 + A^{-1}(...)), whose k-th term lies k simple
roots below the top (:func:`segment_qchar`).  A Ptolemy grid asks for
the same few classes many times, so each (segment, depth) class is
built once and memoized.

A :class:`Segment` is a ``tuple`` (r, s), validated when it is made, so
hashing it, comparing it and sorting segments cost no Python call; its
top monomial (``ell_weight``) is memoized too.

Segments correspond to diagonals ``(r, s+2)`` of an ∞-gon with vertex set
``ℤ∪{±∞}``; two classes are compatible (their product is again such a
class) exactly when the diagonals do not cross in their interior.  The
exchange relations of the cluster structure are Ptolemy relations in the
quadrilateral spanned by two crossing diagonals: :func:`_ptolemy` checks
one, which :func:`ptolemy_check` names by its crossing segments and
:func:`exchange_relations_at` by a seed.  Every Laurent monomial in the
``Ψ`` variables factors uniquely into pairwise-compatible segments.
Everything here is certified by direct multiplication in
:class:`~clusterqq.qseries.KSeries`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from .qseries import FIELD_BITS, KSeries, Key, bracket, key_one, psi_mul, psi_var
from .rootsys import RootSystem, fundamental_weight, simple_root

INF = math.inf

_A1 = RootSystem.from_name("A1")
# the one doubled coordinate of α and of ϖ
(_ALPHA2,) = simple_root(_A1, 1).coords2
(_VARPI2,) = fundamental_weight(_A1, 1).coords2


# how str(Segment) prints an infinite end; a finite one prints as an int
_ENDS = {INF: "+inf", -INF: "-inf"}


class Segment(tuple):
    """Prime-class label [r, s]; r > s denotes the unit class.

    The pair (r, s) itself, validated once when it is made: hashing,
    equality and ordering are those of the tuple.  Two plain ints make
    a valid pair, so they are taken at once; every other pair, bools
    included, is validated endpoint by endpoint, and an endpoint that is
    neither an int nor ±∞ raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, r: float, s: float) -> "Segment":
        if type(r) is int and type(s) is int:
            return tuple.__new__(cls, (r, s))
        for x in (r, s):
            if not (isinstance(x, int) or x in (INF, -INF)):
                raise ValueError(f"bad segment endpoint {x!r}")
        if (r == INF or s == -INF) and not r > s:
            raise ValueError(f"bad segment [{r}, {s}]")
        return tuple.__new__(cls, (r, s))

    r = property(itemgetter(0))
    s = property(itemgetter(1))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Segment(r={self[0]!r}, s={self[1]!r})"

    @property
    def is_unit(self) -> bool:
        return self[0] > self[1]

    @lru_cache(maxsize=1 << 12)
    def ell_weight(self) -> Key:
        """Top monomial of the class (the unit key for [-∞,+∞] or r>s)."""
        r, s = self
        p = ()
        if r > s or (r == -INF and s == INF):
            return key_one(1)
        if r != -INF:
            p = psi_var(1, 2 * int(r))
        if s != INF:
            p = p + psi_var(1, 2 * (int(s) + 1), -1)
        return ((0,), tuple(sorted(p)))

    def __str__(self) -> str:
        r, s = self
        return f"[{_ENDS.get(r) or int(r)},{_ENDS.get(s) or int(s)}]"


def compatible(s1: Segment, s2: Segment) -> bool:
    """True iff the product of the two classes is again a single class.

    Equivalently, the union of the two segments is not an interval
    properly containing both — and equivalently the associated diagonals
    do not cross in their interiors.
    """
    r1, e1 = s1
    r2, e2 = s2
    if r1 > e1 or r2 > e2:
        return True
    if r1 < r2:
        return not (e1 < e2 and r2 <= e1 + 1)
    return not (r2 < r1 and e2 < e1 and r1 <= e2 + 1)


# ---------------------------------------------------------------------------
# q-characters of segment classes
# ---------------------------------------------------------------------------


def _check_depth(d: int) -> None:
    # below depth 1 the unit keeps no term, so nothing could be compared
    if d < 1:
        raise ValueError(f"depth must be at least 1, got {d}")


@lru_cache(maxsize=1 << 12)
def segment_qchar(seg: Segment, d: int = 6) -> KSeries:
    """Truncated series of the class labelled by ``seg`` (depth ``d``).

    With M the top monomial ``seg.ell_weight()``, the class is the sum of
    its first L terms, the k-th being (t = s + 1 - k)

        M·[-kα]·Ψ_{q^{2(s+2)}}Ψ_{q^{2(s+1)}}Ψ_{q^{2(t+1)}}^{-1}Ψ_{q^{2t}}^{-1},

    the k-th partial product of the chain 1 + A^{-1}(1 + A^{-1}(...)).
    L is s - r + 2 for finite [r, s], where the chain stops; d for
    [-∞, s], whose remaining terms lie at or below the cutoff; and 1 for
    the unit and for [r, +∞].  The cutoff is -2·max(d, L).  A depth below
    1 raises ``ValueError``.

    Classes are memoized (a bounded ``lru_cache``), so every call with
    the same (segment, depth) returns the same object.  Sharing it is
    safe because no :class:`KSeries` is changed in place: every series
    operation builds a new series.  Callers go through the module
    attribute, so a replaced ``segment_qchar`` is seen everywhere.
    """
    _check_depth(d)
    (lam,), psi = seg.ell_weight()
    if seg.is_unit or seg.s == INF:
        length = 1
    elif seg.r == -INF:
        length = d
    else:
        length = int(seg.s - seg.r) + 2
    terms = {((lam,), psi): 1}
    if length > 1:
        s = int(seg.s)
        head = psi_mul(psi, psi_var(1, 2 * (s + 2)) + psi_var(1, 2 * (s + 1)))
        for k in range(1, length):
            t = s + 1 - k
            down = psi_var(1, 2 * t, -1) + psi_var(1, 2 * (t + 1), -1)
            terms[(lam - k * _ALPHA2,), psi_mul(head, down)] = 1
    return KSeries(_A1, terms, -2 * max(d, length))


# ---------------------------------------------------------------------------
# Ptolemy exchange relations
# ---------------------------------------------------------------------------


def _ptolemy(a, b, c, e, d: int) -> bool:
    """The Ptolemy relation of the quadrilateral a < b < c < e at depth d.

    With (x, y) the class of the segment [x, y-2], a unit for an edge
    (x, x+1) and for (-∞, +∞), it reads

        (a,c)(b,e) = (a,e)(b,c) + [2(b-c)ϖ]·(a,b)(c,e),

    compared exactly above the common cutoff.  b and c are finite; a may
    be -∞ and e may be +∞.
    """
    def cls(x, y):
        return segment_qchar(Segment(x, y - 2), d)

    lhs = cls(a, c) * cls(b, e)
    rhs = cls(a, e) * cls(b, c)
    corr = cls(a, b) * cls(c, e)
    rhs = rhs + corr.mul_monomial(bracket((2 * (b - c) * _VARPI2,)))
    return lhs.matches(rhs)


def ptolemy_check(r, s, rp, sp, d: int = 6) -> dict:
    """Certify [r,s][r',s'] = [r,s'][r',s] + [2(r'-s-2)ϖ][r,r'-2][s+2,s'].

    The Ptolemy relation of the quadrilateral (r, r', s+2, s'+2).
    Preconditions: r < r', s < s', r' ≤ s+1, with r' and s finite (r may
    be -∞ and s' may be +∞).  Both sides are expanded to depth ``d`` and
    compared exactly above the common cutoff; at d < 1 both sides are
    empty, so a depth below 1 raises ``ValueError``.
    """
    _check_depth(d)
    if not (r < rp and s < sp and rp <= s + 1):
        raise ValueError(f"need r<r', s<s', r'<=s+1; got {(r, s, rp, sp)}")
    if rp in (INF, -INF) or s in (INF, -INF):
        raise ValueError("r' and s must be finite")
    return {
        "relation": "ptolemy",
        "segments": [str(Segment(r, s)), str(Segment(rp, sp))],
        "depth": d,
        "ok": _ptolemy(r, rp, s + 2, sp + 2, d),
    }


def exchange_relations_at(r: int, d: int = 6, span: int = 3) -> list[dict]:
    """Certify the exchange relations of the seed whose fan switches at r.

    Each is the Ptolemy relation (:func:`_ptolemy`) of one quadrilateral:
    the flips (v-1, v, v+1, +∞) for v > r and (-∞, v, v+1, v+2) for
    v < r-1, and at the switch (-∞, r, r+1, +∞) and (-∞, r-1, r, +∞),
    whose fourth side is the unit edge (-∞, +∞).  In the cluster
    variable [((b-1)-a)ϖ]·(a, b) of each diagonal (an infinite end
    counting as 0) the brackets cancel to the relation's one bracket.
    Each is verified at depth d ≥ 1; ``span`` controls how many
    instances of the two translation-invariant families are checked.
    """
    _check_depth(d)
    quads = [("flip-upper", v, (v - 1, v, v + 1, INF))
             for v in range(r + 1, r + 1 + span)]
    quads += [("flip-switch-red", r, (-INF, r, r + 1, INF)),
              ("flip-switch-green", r - 1, (-INF, r - 1, r, INF))]
    quads += [("flip-lower", v, (-INF, v, v + 1, v + 2))
              for v in range(r - 1 - span, r - 1)]
    return [
        {"relation": name, "at": v, "depth": d, "ok": _ptolemy(*quad, d)}
        for name, v, quad in quads
    ]


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
    """Parse "2:1 -4:-1 ..." pairs "height:exponent" into a Ψ monomial key.

    An exponent that would not fit a field of a packed series key, at
    least 2^(FIELD_BITS-2) in absolute value, raises ``OverflowError``
    before :func:`factorize` would build that many segments.
    """
    psi = ()
    for tok in text.split():
        h, _, e = tok.partition(":")
        try:
            h, e = int(h), int(e or "1")
        except ValueError:
            raise ValueError(f"bad token {tok!r}: expected r:e") from None
        psi = psi_mul(psi, psi_var(1, 2 * h, e))
    for (_, h), e in psi:
        if abs(e) >= 1 << (FIELD_BITS - 2):
            raise OverflowError(
                f"exponent {e} at r = {h // 2} does not fit a {FIELD_BITS}-bit key"
            )
    return ((0,), psi)
