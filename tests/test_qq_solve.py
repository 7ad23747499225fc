"""The upward QQ solve against the descending ratio-series solve.

The oracle below is the earlier form of ``QEvaluator._solve``: it builds
a Q-variable as a nested sum of ratio series, descending over spectral
shifts, with two inverses per level, one of them of a neighbour product.
``clusterqq.qseries`` solves the QQ relation upward, one level per step,
from the same certified lower values; both must give the same terms and
the same cutoff on every input here.  The label records are checked
against the per-call derivation they replaced.  An evaluator solves a
label once and serves its other spectral parameters by the shift τ; the
evaluator that solves and certifies at every parameter
(``oracles.EveryREvaluator``) must hold the same values at every key.
The last class checks that an evaluator solves a label once, inverts
only memoized values, each at most once, and derives a label once.
"""

import hashlib
import random
from functools import lru_cache
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq import qseries
from clusterqq.qseries import KSeries, QEvaluator, bracket, psi_var
from clusterqq.rootsys import (
    RootSystem,
    fundamental_weight,
    is_reduced,
    longest_element,
    simple_root,
    weyl_from_word,
)

from oracles import EveryREvaluator, decoded, qq_battery, rs, weight_of


# ---------------------------------------------------------------------------
# oracle: the descending ratio-series solve
# ---------------------------------------------------------------------------


def oracle_solve(ev, word, i, r):
    cutoff = -2 * ev.depth
    if not word:
        return KSeries.monomial(ev.rs, ((0,) * ev.rs.n, psi_var(i, r)), cutoff)
    w_prime = word[:-1]
    alpha2 = weyl_from_word(ev.rs, w_prime).apply(simple_root(ev.rs, i)).coords2
    assert all(c >= 0 for c in ev.rs.root_coords2(alpha2))
    den, w = ev.rs.height_functional
    h = sum(map(mul, w, alpha2))
    br = bracket(tuple(-a for a in alpha2))

    def qp(j, b):
        return ev.q_raw(w_prime, j, b)

    def neighbor_product(b):
        out = KSeries.one(ev.rs, cutoff)
        for j in ev.rs.neighbors(i):
            out = (out * qp(j, b)).clamped(cutoff)
        return out

    levels = (2 * ev.depth * den) // h + 1
    series = KSeries.one(ev.rs, cutoff)
    for k in range(levels - 1, 0, -1):
        b = r - 2 * k
        ratio = (
            qp(i, b - 2).inverse()
            * qp(i, b + 2)
            * neighbor_product(b - 1)
            * neighbor_product(b + 1).inverse()
        ).mul_monomial(br).clamped(cutoff)
        series = KSeries.one(ev.rs, cutoff) + (ratio * series).clamped(cutoff)
    return (
        qp(i, r - 2).inverse() * neighbor_product(r - 1) * series
    ).clamped(cutoff)


def memo_digest(ev):
    """sha256 of every memoized raw value, decoded and sorted by key."""
    rows = sorted((key, decoded(value)) for key, value in ev._memo.items())
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@lru_cache(maxsize=None)
def evaluator(name, depth):
    """One evaluator per type and depth, so examples share its memo."""
    return QEvaluator(rs(name), depth=depth)


# ---------------------------------------------------------------------------
# one solve at a time, on shared certified lower values
# ---------------------------------------------------------------------------


@st.composite
def ascents(draw):
    name = draw(st.sampled_from(["A1", "A2", "A3", "A4", "D4"]))
    depth = draw(st.integers(2, 4))
    w0 = longest_element(rs(name)).word
    t = draw(st.integers(0, len(w0) - 1))
    return name, depth, w0[: t + 1], w0[t], draw(st.integers(-4, 2))


class TestSolveAgainstRatioForm:
    @given(ascents())
    @settings(max_examples=60, deadline=None)
    def test_terms_and_cutoff_agree(self, data):
        name, depth, word, i, r = data
        ev = evaluator(name, depth)
        assert decoded(ev._solve(word, i, r)) == decoded(
            oracle_solve(ev, word, i, r)
        ), data

    def test_d4_depth_four_sample(self):
        ev = evaluator("D4", 4)
        w0 = longest_element(ev.rs).word
        for t in (0, 3, 5):
            word = w0[: t + 1]
            assert decoded(ev._solve(word, w0[t], 0)) == decoded(
                oracle_solve(ev, word, w0[t], 0)
            ), t

    def test_seeded_e6_sample(self):
        ev = QEvaluator(rs("E6"), depth=2)
        w0 = longest_element(ev.rs).word
        rng = random.Random(20261018)
        for _ in range(6):
            t = rng.randrange(len(w0))
            r = rng.randint(-2, 0)
            word = w0[: t + 1]
            assert decoded(ev._solve(word, w0[t], r)) == decoded(
                oracle_solve(ev, word, w0[t], r)
            ), (t, r)

    def test_d4_battery_memo_digest(self):
        # every value the D4 depth-3 battery solves at some parameter,
        # recorded with the ratio-series solve at every parameter
        oracle = EveryREvaluator(rs("D4"), depth=3)
        qq_battery(oracle, range(-2, 1))
        assert len(oracle._memo) == D4_BATTERY_MEMO_SIZE
        assert memo_digest(oracle) == D4_BATTERY_MEMO_SHA256
        # the shifted evaluator holds the same value at each of those keys
        ev = QEvaluator(rs("D4"), depth=3)
        qq_battery(ev, range(-2, 1))
        assert same_values(oracle, ev) == D4_BATTERY_MEMO_SIZE


D4_BATTERY_MEMO_SIZE = 597
D4_BATTERY_MEMO_SHA256 = (
    "150cbf95c78eecd467cb2f0790a59a6c7801b4b76ed83d39492a68840f156a66"
)


def same_values(oracle, ev):
    """Assert that ``ev`` returns the oracle's value at every key of the
    oracle's memo, each key reached by a word the oracle labelled; the
    number of keys."""
    words = {lam2: (w, i) for (_, i), (w, lam2, _) in oracle._labels.items()}
    for (lam2, r), value in oracle._memo.items():
        w, i = words[lam2]
        assert decoded(ev.q_raw(w, i, r)) == decoded(value), (w, i, r)
    return len(oracle._memo)


# ---------------------------------------------------------------------------
# one solve per label, against a solve at every parameter
# ---------------------------------------------------------------------------


class TestShiftAgainstEveryR:
    @pytest.mark.parametrize(
        "name,depth,r_values",
        [
            ("A1", 4, range(-4, 3)),
            ("A2", 3, range(-2, 2)),
            ("A3", 3, range(-2, 1)),
            ("A4", 3, range(-2, 1)),
            ("D4", 2, range(-1, 2)),
            ("E6", 2, [0]),
        ],
    )
    def test_battery_values_agree_key_by_key(self, name, depth, r_values):
        oracle = EveryREvaluator(rs(name), depth=depth)
        ev = QEvaluator(rs(name), depth=depth)
        assert qq_battery(oracle, r_values) == qq_battery(ev, r_values)
        # the shifted evaluator solved less, and holds no value the
        # oracle lacks
        assert len(ev._memo) < len(oracle._memo)
        assert ev._memo.keys() <= oracle._memo.keys()
        assert same_values(oracle, ev) == len(oracle._memo)

    def test_every_memo_value_is_tau_of_its_base(self):
        ev = QEvaluator(rs("A3"), depth=3)
        qq_battery(ev, range(-2, 1))
        for lam2, (r0, base) in ev._bases.items():
            assert ev._memo[lam2, r0] is base
            for (lam, r), value in ev._memo.items():
                if lam == lam2:
                    assert decoded(value) == decoded(base.tau(r - r0))


# ---------------------------------------------------------------------------
# label records against the per-call derivation
# ---------------------------------------------------------------------------


def oracle_strip(rs, word, i):
    word = tuple(word)
    if not is_reduced(rs, word):
        raise ValueError(f"word {word} is not reduced")
    while word and word[-1] != i:
        word = word[:-1]
    return word


def oracle_weight(rs, word, i):
    return weyl_from_word(rs, word).apply(fundamental_weight(rs, i)).coords2


def oracle_ascent(rs, word, i):
    w_prime = word[:-1]
    alpha2 = weyl_from_word(rs, w_prime).apply(simple_root(rs, i)).coords2
    if any(c < 0 for c in rs.root_coords2(alpha2)):
        raise ValueError(f"{word} is not an ascent at {i}")
    h = sum(map(mul, rs.height_functional[1], alpha2))
    return w_prime, h, bracket(tuple(-a for a in alpha2))


@st.composite
def labels(draw):
    name = draw(st.sampled_from(["A1", "A2", "A3", "A4", "D4"]))
    n = rs(name).n
    word = tuple(draw(st.lists(st.integers(1, n), max_size=8)))
    return name, word, draw(st.integers(1, n))


class TestLabelRecords:
    @given(labels())
    @settings(max_examples=200, deadline=None)
    def test_record_matches_the_per_call_derivation(self, data):
        name, word, i = data
        ev = QEvaluator(rs(name), depth=2)
        try:
            w = oracle_strip(ev.rs, word, i)
        except ValueError:
            with pytest.raises(ValueError):
                ev._label(word, i)
            assert not ev._labels
            return
        ascent = oracle_ascent(ev.rs, w, i) if w else None
        expected = (w, oracle_weight(ev.rs, word, i), ascent)
        assert ev._label(word, i) == expected
        assert weight_of(ev, word, i) == oracle_weight(ev.rs, w, i)
        # one record, shared by the word and its stripped form
        assert ev._labels[word, i] is ev._labels[w, i]
        assert set(ev._labels) == {(word, i), (w, i)}

    def test_non_reduced_word_is_refused(self):
        ev = QEvaluator(rs("A2"), depth=2)
        with pytest.raises(ValueError):
            ev.q_raw((1, 1), 1, 0)
        with pytest.raises(ValueError):
            weight_of(ev, (1, 2, 2), 1)


# ---------------------------------------------------------------------------
# compute once
# ---------------------------------------------------------------------------


class TestComputeOnce:
    @pytest.mark.parametrize("name,t", [("A3", 3), ("A3", 5), ("D4", 4), ("D4", 11)])
    def test_each_memoized_value_inverted_once(self, monkeypatch, name, t):
        ev = QEvaluator(rs(name), depth=3)
        w0 = longest_element(ev.rs).word
        word, i = w0[: t + 1], w0[t]
        alpha2 = weyl_from_word(ev.rs, word[:-1]).apply(simple_root(ev.rs, i)).coords2
        den, w = ev.rs.height_functional
        assert (2 * ev.depth * den) // sum(map(mul, w, alpha2)) > 0  # 2+ levels
        inverted = []
        real = KSeries.inverse
        monkeypatch.setattr(
            KSeries, "inverse", lambda s: inverted.append(s) or real(s)
        )
        ev.q_raw(word, i, 0)  # solves and certifies every lower value
        assert inverted
        memo = {id(v) for v in ev._memo.values()}
        assert all(id(s) in memo for s in inverted)  # never a product
        assert len({id(s) for s in inverted}) == len(inverted)  # never twice
        assert ev._inverses.keys() <= ev._memo.keys()
        before = len(inverted)
        ev._solve(word, i, 0)
        assert len(inverted) == before

    @pytest.mark.parametrize(
        "name,depth,r_values",
        [("A3", 3, range(-2, 1)), ("D4", 3, range(-2, 1)), ("E6", 2, [0, 2])],
    )
    def test_one_solve_per_label(self, monkeypatch, name, depth, r_values):
        # q_raw solves each w(ϖ_i) once, at its base parameter, and
        # _certify solves it once more, one q²-step lower
        solves = []
        real = QEvaluator._solve

        def solve(self, word, i, r):
            solves.append((weight_of(self, word, i), r))
            return real(self, word, i, r)

        monkeypatch.setattr(QEvaluator, "_solve", solve)
        ev = QEvaluator(rs(name), depth=depth)
        qq_battery(ev, r_values)
        ascent = {lam2: a for _, lam2, a in ev._labels.values()}
        expected = []
        for lam2, (r0, _) in ev._bases.items():
            expected.append((lam2, r0))
            if ascent[lam2]:
                expected.append((lam2, r0 - 2))
        assert sorted(solves) == sorted(expected)
        assert len(ev._memo) > len(ev._bases)  # the rest came by τ
        # a second battery at the same parameters solves nothing
        qq_battery(ev, r_values)
        assert len(solves) == len(expected)

    @pytest.mark.parametrize("name", ["A3", "D4"])
    def test_ascent_check_once_per_word_and_node(self, monkeypatch, name):
        checked = []
        solved = set()
        real_coords, real_solve = RootSystem.root_coords2, QEvaluator._solve

        def root_coords2(self, coords2):
            checked.append(coords2)
            return real_coords(self, coords2)

        def solve(self, word, i, r):
            if word:
                solved.add((word, i))
            return real_solve(self, word, i, r)

        monkeypatch.setattr(RootSystem, "root_coords2", root_coords2)
        monkeypatch.setattr(QEvaluator, "_solve", solve)
        qq_battery(QEvaluator(rs(name), depth=3), range(-2, 1))
        assert solved and len(checked) == len(solved)
        # a second evaluator derives its ascents again
        qq_battery(QEvaluator(rs(name), depth=3), range(-2, 1))
        assert len(checked) == 2 * len(solved)

    @pytest.mark.parametrize("name", ["A3", "D4"])
    def test_weyl_elements_once_per_label(self, monkeypatch, name):
        # a label's weight and ascent come from at most two Weyl elements;
        # every later call, memo hits included, reads the record
        calls = []
        real = qseries.weyl_from_word

        def weyl(rs_, word):
            calls.append(word)
            return real(rs_, word)

        monkeypatch.setattr(qseries, "weyl_from_word", weyl)
        ev = QEvaluator(rs(name), depth=3)
        qq_battery(ev, range(-2, 1))
        assert ev._labels and len(calls) <= 2 * len(ev._labels)
        before = len(calls)
        qq_battery(ev, range(-2, 1))
        assert len(calls) == before
