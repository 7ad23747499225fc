"""End-to-end acceptance battery.

Each test reproduces one headline guarantee of the library, with the
documented time budget enforced, using only frozen reference values and
independent cross-checks.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from clusterqq import gvector, qseries, wronskian
from clusterqq.gvector import (
    blocks_gvectors,
    block_matrix,
    braid_gvectors,
    f_labels,
    knit_gvectors,
    stable_block,
    sweep_gvectors,
)
from clusterqq.qseries import (
    KSeries,
    QEvaluator,
    key_mul,
    psi_var,
    qq_check,
    qqstar_check,
)
from clusterqq.quiver import build_coxeter_quiver, mutate_quiver
from clusterqq.rootsys import (
    coxeter_data,
    fundamental_weight,
    is_reduced,
    longest_element,
    weyl_from_word,
)
from clusterqq.seed import (
    SignError,
    cvector_sign,
    green_sweep,
    initial_seed,
    mutate_seed,
)
from clusterqq import sl2
from clusterqq.sl2 import (
    Segment,
    compatible,
    exchange_relations_at,
    factorize,
    ptolemy_check,
)
from clusterqq.wronskian import (
    _carroll_minors,
    bruhat_check,
    check_wronskian,
)

from oracles import (
    A3_SEED_LABELS,
    A3_STABILIZED,
    a2_expected,
    a_monomial,
    build_seed_quiver,
    cli,
    combo,
    desnanot_jacobi_check,
    e,
    json_lines,
    key_inv,
    qq_battery,
    relabeled,
    rs,
    same_arrows,
    slice_matrix,
    theta,
    to_fractions,
    weight_of,
)


WORDS = {
    "A1": (1,),
    "A2": (1, 2),
    "A3": (1, 2, 3),
    "D4": (1, 3, 4, 2),
}


def window(name, depth):
    return build_coxeter_quiver(coxeter_data(rs(name), WORDS[name]), depth_below=depth)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded"


def reduced_words(r, w):
    """All reduced words of the Weyl element w, lexicographically."""
    if w.length == 0:
        yield ()
        return
    for i in range(1, r.n + 1):
        # l(s_i w) < l(w) iff some reduced word of w starts with i
        prefix_removed = weyl_from_word(r, (i,) + w.word)
        if prefix_removed.length == w.length - 1:
            for tail in reduced_words(r, prefix_removed):
                yield (i,) + tail


# ---------------------------------------------------------------------------
# 1. reflection matrices and block tables (rank two)
# ---------------------------------------------------------------------------


class TestBlockTables:
    def test_rank_two_tables_verbatim(self):
        budget = Budget(1.0)
        d = coxeter_data(rs("A2"), (1, 2))
        t1 = ((-1, 0), (1, 1))
        t2 = ((1, 1), (0, -1))
        assert slice_matrix(d, -1) == t1
        assert slice_matrix(d, -2) == t2
        assert slice_matrix(d, -3) == t1
        for m in (0, 1, -4, -5):
            assert slice_matrix(d, m) == ((1, 0), (0, 1))

        t12 = ((-1, -1), (1, 0))
        t23 = ((0, 1), (-1, -1))
        t123 = ((0, -1), (-1, 0))
        assert stable_block(d, -2) == t12
        assert block_matrix(d, 2, -3) == t23
        assert stable_block(d, -3) == t123

        # sweep-by-sweep block tables: only the listed blocks are nontrivial
        ident = ((1, 0), (0, 1))
        tables = {
            1: {-1: t1, -2: t2, -3: t1},
            2: {-1: t1, -2: t12, -3: t23, -4: t1},
            3: {-1: t1, -2: t12, -3: t123, -4: t23, -5: t1},
        }
        for k, table in tables.items():
            for m in range(-8, 3):
                assert block_matrix(d, k, m) == table.get(m, ident), (k, m)
        # the stabilized limit
        assert stable_block(d, -1) == t1
        for m in range(-3, -9, -1):
            assert stable_block(d, m) == t123
        budget.check()


# ---------------------------------------------------------------------------
# 2. stabilized g-vectors: frozen values and three-way agreement
# ---------------------------------------------------------------------------


class TestStabilizedGVectors:
    def test_frozen_values_and_three_way_agreement(self):
        budget = Budget(10.0)

        # rank one: minus-unit below the band, unit above
        cw1 = window("A1", 20)
        knit1 = knit_gvectors(cw1.quiver)
        for v in cw1.quiver.vertices:
            expect = {v: 1} if v[1] >= 0 else {v: -1}
            assert knit1[v] == expect, v

        # rank two: the closed-form panel
        cw2 = window("A2", 12)
        knit2 = knit_gvectors(cw2.quiver)
        for v in cw2.quiver.vertices:
            assert knit2[v] == a2_expected(v), v

        # rank three: the worked panel, verbatim
        cw3 = window("A3", 12)
        knit3 = knit_gvectors(cw3.quiver)
        for v, terms in A3_STABILIZED.items():
            assert knit3[v] == e(*terms), v

        # three-way agreement over 30-slice windows
        for name in ("A1", "A2", "A3", "D4"):
            cw = window(name, 60)
            assert len(list(cw.slice_range())) >= 30
            knit = knit_gvectors(cw.quiver)
            blocks = blocks_gvectors(cw)
            braid = braid_gvectors(cw)
            assert set(knit) == set(blocks)
            for v in knit:
                assert knit[v] == blocks[v], (name, v)
            assert braid
            for v, g in braid.items():
                assert knit[v] == g, (name, v)
        budget.check()


# ---------------------------------------------------------------------------
# 3. sweep convergence with sign-coherence
# ---------------------------------------------------------------------------


class TestSweepConvergence:
    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "D4"])
    def test_twenty_sweeps_reach_the_limit(self, name):
        budget = Budget(30.0)
        # the green band descends one slice per sweep: leave room for 20
        cw = window(name, 50)
        seed = initial_seed(cw, stabilized=False)
        tables = sweep_gvectors(cw, 20)
        for k in range(1, 21):
            # green rows of the tracked G-matrix must be sign-coherent
            # before each sweep (this is what makes the sweep a row
            # operation)
            for l in seed.ref.freeze().greens():
                signs = {g.get(l, 0) for g in seed.g.values()}
                signs.discard(0)
                assert all(x > 0 for x in signs) or all(
                    x < 0 for x in signs
                ), (k, l)
            green_sweep(seed)
            expected = tables[k]
            for v, g in seed.g.items():
                assert g == expected[v], (k, v)
        # all slices that stabilize within 20 sweeps agree with the limit
        limit = blocks_gvectors(cw)
        for v, g in seed.g.items():
            if cw.slice_index(v) >= -19:
                assert g == limit[v], v
        budget.check()

    def test_forty_rank_one_sweeps_from_the_cli(self):
        # the reference tag names each sweep once, so it grows linearly
        budget = Budget(2.0)
        args = ["seed", "sweep", "--type", "A1", "--sweeps", "40", "--json"]
        result = cli(args)
        assert len(result.stdout.splitlines()) == 40
        budget.check()


# ---------------------------------------------------------------------------
# 4. braid relations of the reflection operators
# ---------------------------------------------------------------------------


class TestBraidRelations:
    @pytest.mark.parametrize("name", ["A3", "D4"])
    def test_rank_two_subpairs_on_window_basis(self, name):
        r = rs(name)
        edges = set(r.edges()) | {(j, i) for i, j in r.edges()}
        basis = [
            {(i, h): 1}
            for i in range(1, r.n + 1)
            for h in range(-12, 3)
        ]
        for i, j in itertools.combinations(range(1, r.n + 1), 2):
            adjacent = (i, j) in edges
            for g in basis:
                if adjacent:
                    lhs = theta(r, i, theta(r, j, theta(r, i, g)))
                    rhs = theta(r, j, theta(r, i, theta(r, j, g)))
                else:
                    lhs = theta(r, i, theta(r, j, g))
                    rhs = theta(r, j, theta(r, i, g))
                assert lhs == rhs, (i, j, g)


# ---------------------------------------------------------------------------
# 5. two-term relation battery
# ---------------------------------------------------------------------------


class TestTwoTermBattery:
    def test_all_prefixes_over_a_ten_slice_window(self):
        budget = Budget(120.0)
        r_values = range(-6, 4)
        for name in ("A1", "A2", "A3"):
            r = rs(name)
            ev = QEvaluator(r, depth=4)
            words = sorted(reduced_words(r, longest_element(r)))[:3]
            assert len(words) == min(3, len(words)) and words
            for word in words:
                for t in range(len(word)):
                    for rr in r_values:
                        assert qq_check(ev, word[:t], word[t], rr), (
                            name, word, t, rr,
                        )
        budget.check()

    def test_rank_one_right_side_is_one(self):
        r = rs("A1")
        ev = QEvaluator(r, depth=5)
        for rr in (-4, 0, 2):
            lhs = ev.q_bar((1,), 1, rr) * ev.q_bar((), 1, rr - 2) - ev.q_bar(
                (1,), 1, rr - 2
            ) * ev.q_bar((), 1, rr)
            assert lhs.matches(KSeries.one(r, Fraction(-10)))

    def test_worked_deep_instance(self):
        ev = QEvaluator(rs("A3"), depth=4)
        assert qq_check(ev, (1, 2, 3, 1), 2, -1)

    def test_d4_longest_word_prefixes(self):
        budget = Budget(20.0)
        assert qq_battery(QEvaluator(rs("D4"), depth=3), range(-2, 1)) == 36
        budget.check()

    def test_a4_longest_word_prefixes(self):
        budget = Budget(6.0)
        assert qq_battery(QEvaluator(rs("A4"), depth=3), range(-2, 1)) == 30
        budget.check()

    def test_e6_smoke(self):
        budget = Budget(25.0)
        assert qq_battery(QEvaluator(rs("E6"), depth=2), [0]) == 36
        budget.check()


class TestETypeBatteries:
    """QQ at every prefix of w₀ and its next letter, and QQ* at every
    triple ascent of every prefix, in E6–E8: one solve per label makes
    them cheap enough for tier-1."""

    @pytest.mark.parametrize(
        "name,depth,count,seconds",
        [("E7", 2, 63, 2.0), ("E7", 3, 63, 3.0), ("E8", 2, 120, 4.0),
         ("E8", 3, 120, 6.0)],
    )
    def test_qq_longest_word_prefixes(self, name, depth, count, seconds):
        budget = Budget(seconds)
        assert qq_battery(QEvaluator(rs(name), depth=depth), [0]) == count
        budget.check()

    @pytest.mark.parametrize(
        "name,count,seconds", [("E6", 52, 2.0), ("E7", 100, 4.0), ("E8", 188, 12.0)]
    )
    def test_qqstar_longest_word_prefixes(self, name, count, seconds):
        budget = Budget(seconds)
        r = rs(name)
        word = longest_element(r).word
        prefixes = [word[:t] for t in range(len(word) + 1)]
        assert qqstar_battery(r, 3, prefixes, [0]) == count
        budget.check()

    @pytest.mark.parametrize(
        "name,depth,count,seconds", [("E6", 2, 83, 2.0), ("E7", 3, 156, 4.0)]
    )
    def test_qq_every_ascent_of_longest_word_prefixes(
        self, name, depth, count, seconds
    ):
        budget = Budget(seconds)
        assert qq_ascent_battery(QEvaluator(rs(name), depth=depth)) == count
        budget.check()


class TestDATypeBatteries:
    """The same two batteries in D5–D8 and A5–A8: QQ at every prefix of
    w₀ (one certificate per positive root) and QQ* at every triple
    ascent, each edge in both orders, on a fresh evaluator."""

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize(
        "name,count",
        [("D5", 20), ("D6", 30), ("D7", 42), ("D8", 56),
         ("A5", 15), ("A6", 21), ("A7", 28), ("A8", 36)],
    )
    def test_qq_longest_word_prefixes(self, name, count, depth):
        budget = Budget(2.0)
        r = rs(name)
        assert count == r.num_positive_roots
        assert qq_battery(QEvaluator(r, depth=depth), [0]) == count
        budget.check()

    @pytest.mark.parametrize(
        "name,count",
        [("D5", 24), ("D6", 44), ("D7", 74), ("D8", 116),
         ("A5", 28), ("A6", 50), ("A7", 82), ("A8", 126)],
    )
    def test_qqstar_longest_word_prefixes(self, name, count):
        budget = Budget(2.0)
        r = rs(name)
        word = longest_element(r).word
        prefixes = [word[:t] for t in range(len(word) + 1)]
        assert qqstar_battery(r, 3, prefixes, [0]) == count
        budget.check()


def qq_ascent_battery(ev):
    """qq_check at r = 0 for every ascent i of every prefix w of w_0
    (every i with w s_i reduced, not only the next letter); the count."""
    word = longest_element(ev.rs).word
    count = 0
    for t in range(len(word) + 1):
        prefix = word[:t]
        for i in range(1, ev.rs.n + 1):
            if is_reduced(ev.rs, prefix + (i,)):
                assert qq_check(ev, prefix, i, 0), (prefix, i)
                count += 1
    return count


def qqstar_battery(r, depth, words, r_values):
    """qqstar_check at every triple ascent of the words; the count."""
    ev = QEvaluator(r, depth=depth)
    count = 0
    for word in words:
        for i, j in r.edges():
            for a, b in ((i, j), (j, i)):
                if is_reduced(r, word + (a, b, a)):
                    for rr in r_values:
                        assert qqstar_check(ev, word, a, b, rr), (word, a, b, rr)
                        count += 1
    return count


# ---------------------------------------------------------------------------
# 6. three-term relation instances with the explicit series
# ---------------------------------------------------------------------------


class TestThreeTermInstances:
    def test_rank_two_instance(self):
        ev = QEvaluator(rs("A2"), depth=4)
        assert qqstar_check(ev, (), 1, 2, -2)
        assert qqstar_check(ev, (), 2, 1, -1)

    def test_rank_three_instance_with_explicit_series(self):
        A3 = rs("A3")
        ev = QEvaluator(A3, depth=4)
        # the mutation at the degree-three vertex: new variable given in
        # closed form as a two-term series
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
        cut = Fraction(-8)
        x = KSeries.monomial(A3, top, cut) + KSeries.monomial(
            A3, key_mul(top, key_inv(a_monomial(A3, 2, 1))), cut
        )
        lhs = x * ev.q_bar((), 2, 1)
        rhs = ev.q_bar((), 1, 0) * ev.q_bar((), 2, 3) * ev.q_bar(
            (), 3, 0
        ) + ev.q_bar((), 1, 2) * ev.q_bar((), 2, -1) * ev.q_bar((), 3, 2)
        assert lhs.matches(rhs)
        assert len(x.terms) == 2  # matched term-for-term: top and one step

    def test_a4_empty_word(self):
        budget = Budget(3.0)
        assert qqstar_battery(rs("A4"), 3, [()], range(-2, 1)) == 18
        budget.check()

    def test_d4_longest_word_prefixes(self):
        budget = Budget(2.0)
        r = rs("D4")
        word = longest_element(r).word
        prefixes = [word[:t] for t in range(len(word) + 1)]
        assert qqstar_battery(r, 3, prefixes, [0]) == 12
        budget.check()


# ---------------------------------------------------------------------------
# 7. the embedding of initial seeds, and a mutation sequence in series
# ---------------------------------------------------------------------------


class TestEmbedding:
    def test_rank_three_label_table(self):
        cw = window("A3", 10)
        ev = QEvaluator(rs("A3"), depth=2)
        labels = f_labels(cw, knit_gvectors(cw.quiver))
        for v, (xword, xi, xr) in A3_SEED_LABELS.items():
            word, i, r = labels[v]
            assert (i, r) == (xi, xr), v
            assert weight_of(ev, word, i) == weight_of(ev, xword, xi), v

    def test_rank_two_mutation_sequence_in_series(self):
        # the three-step mutation sequence executed on series values: each
        # transported value is produced by the exchange relation (binomial
        # over the old value) and must land exactly on the predicted
        # renormalized variable
        cw = window("A2", 8)
        ev = QEvaluator(rs("A2"), depth=3)
        values = {
            v: ev.q_bar(*label)
            for v, label in f_labels(cw, knit_gvectors(cw.quiver)).items()
        }
        assert values.keys() == cw.quiver.vertices
        seed = initial_seed(cw)
        seed.values = dict(values)

        predictions = [
            ((1, -2), ev.q_bar((), 1, -2)),
            ((1, -4), ev.q_bar((2,), 2, -1)),
            ((2, -3), ev.q_bar((2,), 2, -3)),
        ]
        for v, predicted in predictions:
            old = seed.values[v]
            mutate_seed(seed, v)
            new = seed.values[v]
            assert new.matches(predicted), v
            # the exchange relation itself, re-checked multiplicatively
            lhs = old * predicted
            rhs = None
            q = seed.quiver
            for w, m in sorted(q.out[v].items()):  # arrows flipped by now
                for _ in range(m):
                    rhs = seed.values[w] if rhs is None else rhs * seed.values[w]
            other = None
            for w, m in sorted(q.inn[v].items()):
                for _ in range(m):
                    other = seed.values[w] if other is None else other * seed.values[w]
            assert rhs is not None and other is not None
            assert lhs.matches(rhs + other), v


# ---------------------------------------------------------------------------
# 8. word independence of the series
# ---------------------------------------------------------------------------


class TestWordIndependence:
    def test_two_longest_words_in_rank_three(self):
        A3 = rs("A3")
        w0 = longest_element(A3)
        w1 = (1, 2, 1, 3, 2, 1)
        w2 = (3, 2, 3, 1, 2, 3)
        assert weyl_from_word(A3, w1) == w0 == weyl_from_word(A3, w2)
        ev1 = QEvaluator(A3, depth=3)
        ev2 = QEvaluator(A3, depth=3)
        for i in (1, 2, 3):
            a = ev1.q_bar(w1, i, -1)
            b = ev2.q_bar(w2, i, -1)
            assert a.matches(b), i


# ---------------------------------------------------------------------------
# 9. rank-one suite: quadrilateral grid and factorization round-trips
# ---------------------------------------------------------------------------


class TestRankOneSuite:
    def test_quadrilateral_grid_and_factorizations(self):
        budget = Budget(60.0)
        count = 0
        for r in range(-5, 6):
            for rp in range(r + 1, 6):
                for s in range(rp - 1, 6):
                    for sp in range(s + 1, 6):
                        cert = ptolemy_check(r, s, rp, sp, 6)
                        assert cert["ok"], (r, s, rp, sp)
                        count += 1
        assert count > 500

        rng = random.Random(20260823)
        for _ in range(200):
            psi = ()
            for h in rng.sample(range(-6, 7), rng.randint(1, 6)):
                e = rng.randint(-5, 5)
                if e:
                    psi = key_mul(
                        ((0,), psi), ((0,), psi_var(1, 2 * h, e))
                    )[1]
            key = ((0,), psi)
            segments, _ = factorize(key)
            for a, b in itertools.combinations(segments, 2):
                assert compatible(a, b)
            rebuilt = ()
            for seg in segments:
                rebuilt = key_mul(((0,), rebuilt), seg.ell_weight())[1]
            assert rebuilt == psi

        # the worked two-positive/two-negative example
        psi = ()
        for h, e in ((2, 1), (4, 1), (-3, -1), (-5, -1)):
            psi = key_mul(((0,), psi), ((0,), psi_var(1, 2 * h, e)))[1]
        segments, _ = factorize(((0,), psi))
        assert segments == (
            Segment(-float("inf"), -6),
            Segment(-float("inf"), -4),
            Segment(2, float("inf")),
            Segment(4, float("inf")),
        )
        budget.check()


# ---------------------------------------------------------------------------
# 10. shift-equivariant minor systems
# ---------------------------------------------------------------------------


class TestMinorSystems:
    def test_three_types_and_negative_control(self):
        budget = Budget(120.0)
        for name in ("A1", "A2", "A3"):
            cert = check_wronskian(rs(name), range(-4, 5), depth=4)
            assert cert["ok"], name
        control = check_wronskian(rs("A2"), [0], depth=4, system_word=(2, 1))
        assert not control["ok"]
        failed = {
            (e["i"], e["k"], e["l"])
            for e in control["equations"]
            if not e["ok"]
        }
        assert (1, 1, 0) in failed
        budget.check()

    def test_a4_system(self):
        budget = Budget(8.0)
        cert = check_wronskian(rs("A4"), [0], depth=4)
        assert cert["ok"] and cert["type"] == "A4"
        assert len(cert["equations"]) == 40
        budget.check()


# ---------------------------------------------------------------------------
# 11. exact rational cell points
# ---------------------------------------------------------------------------


class TestRationalCellPoints:
    def test_hundred_points_each_size(self):
        budget = Budget(10.0)
        c3 = bruhat_check(2, trials=100, seed=101)
        assert c3["ok"] and c3["trials"] == 100
        c4 = bruhat_check(3, trials=100, seed=102)
        assert c4["ok"] and c4["trials"] == 100
        budget.check()

    def test_hundred_points_at_the_largest_rank(self):
        budget = Budget(6.0)
        cert = bruhat_check(wronskian.MAX_RANK, trials=100, seed=7)
        assert cert["ok"] and cert["trials"] == 100
        budget.check()


# ---------------------------------------------------------------------------
# 12. quiver laws as randomized property tests
# ---------------------------------------------------------------------------


class TestQuiverLaws:
    def test_thousand_randomized_cases(self):
        rng = random.Random(12)
        windows = {
            name: build_coxeter_quiver(coxeter_data(rs(name), WORDS[name])).quiver
            for name in ("A2", "A3", "D4")
        }
        cases = 0

        # involutivity
        for _ in range(400):
            q = windows[rng.choice(sorted(windows))]
            interior = sorted(
                v
                for v in q.vertices
                if q.rmin + q.margin < v[1] < q.rmax - q.margin
            )
            v = rng.choice(interior)
            assert same_arrows(mutate_quiver(mutate_quiver(q, v), v), q)
            cases += 1

        # commutativity of mutations at green vertices
        for _ in range(400):
            q = windows[rng.choice(sorted(windows))]
            greens = [v for v in q.greens() if v[1] > q.rmin + q.margin]
            v, w = rng.choice(greens), rng.choice(greens)
            vw = mutate_quiver(mutate_quiver(q, v), w)
            wv = mutate_quiver(mutate_quiver(q, w), v)
            assert same_arrows(vw, wv)
            cases += 1

        # shift equivariance of the inserted pattern
        for _ in range(200):
            s = rng.randint(-4, 4)
            base = build_seed_quiver(
                rs("A2"), (1, 2), (0, -3), rmin=-14, rmax=6
            )
            shifted = build_seed_quiver(
                rs("A2"),
                (1, 2),
                (2 * s, -3 + 2 * s),
                rmin=-14 + 2 * s,
                rmax=6 + 2 * s,
            )
            moved = relabeled(
                base, {v: (v[0], v[1] + 2 * s) for v in base.vertices}
            )
            assert moved.vertices == shifted.vertices
            assert moved.arrows == shifted.arrows
            assert moved.colors == shifted.colors
            cases += 1

        assert cases == 1000


# ---------------------------------------------------------------------------
# 13. failing twins: each series certificate run on one perturbed input
# ---------------------------------------------------------------------------


class ShiftedEvaluator(QEvaluator):
    """An evaluator whose renormalized variable at one (word, i) is
    replaced by its q²-shift."""

    def __init__(self, rs, depth, word, i):
        super().__init__(rs, depth)
        self.shifted = (tuple(word), i)

    def q_bar(self, word, i, r):
        if (tuple(word), i) == self.shifted:
            r += 2
        return super().q_bar(word, i, r)


def swap_segment(monkeypatch, old, new):
    """Make sl2 use the class of ``new`` wherever it asks for ``old``."""
    real = sl2.segment_qchar
    monkeypatch.setattr(
        sl2, "segment_qchar",
        lambda seg, d=6: real(new if seg == old else seg, d),
    )


class TestFailingTwins:
    @pytest.mark.parametrize("shifted", [((1, 2, 3), 3), ((1, 2), 3), ((1, 2), 2)])
    def test_qq_with_a_shifted_variable(self, shifted):
        A3 = rs("A3")
        assert qq_check(QEvaluator(A3, depth=3), (1, 2), 3, 0)
        assert not qq_check(ShiftedEvaluator(A3, 3, *shifted), (1, 2), 3, 0)

    @pytest.mark.parametrize("r", [2, -2])
    def test_qq_with_a_misshifted_tau(self, monkeypatch, r):
        # at r = ±2 the check meets values memoized by the check at 0 and
        # values served by τ from the bases solved there; a τ that shifts
        # two steps too far must not pass.  (Where every value of a check
        # comes by τ, the error is the same on all of them, the check is
        # the relation at r + 2 and holds; the values are still wrong.)
        A3 = rs("A3")
        ev = QEvaluator(A3, depth=3)
        assert qq_check(ev, (1, 2), 3, 0)
        bases = dict(ev._bases)
        real = KSeries.tau
        monkeypatch.setattr(KSeries, "tau", lambda s, t: real(s, t + 2))
        assert not qq_check(ev, (1, 2), 3, r)
        assert ev._bases == bases  # nothing was solved at r
        wrong = ev.q_raw((1, 2, 3), 3, r + 1)
        monkeypatch.undo()
        fresh = QEvaluator(A3, depth=3)
        assert qq_check(fresh, (1, 2), 3, r)
        assert not wrong.matches(fresh.q_raw((1, 2, 3), 3, r + 1))

    @pytest.mark.parametrize("shifted", [((1,), 1), ((2, 1), 1), ((), 2)])
    def test_qqstar_with_a_shifted_variable(self, shifted):
        A3 = rs("A3")
        assert qqstar_check(QEvaluator(A3, depth=3), (), 1, 2, -2)
        assert not qqstar_check(ShiftedEvaluator(A3, 3, *shifted), (), 1, 2, -2)

    def test_qq_verify_on_a_shifted_variable(self, monkeypatch):
        # the CLI loads the evaluator when it runs, so the patch reaches it
        args = ["qq", "verify", "--type", "A3", "--depth", "3", "--window",
                "0..0", "--json"]
        cli(args)
        monkeypatch.setattr(
            qseries, "QEvaluator",
            lambda r, depth: ShiftedEvaluator(r, depth, (1, 2), 2),
        )
        result = cli(args, 1)
        assert '"ok": false' in result.stdout
        certs = json_lines(result.stdout)
        failed = [(c["word"], c["i"]) for c in certs if not c["ok"]]
        assert failed == [([1], 2), ([1, 2], 1)]

    def test_qqstar_verify_on_a_shifted_variable(self, monkeypatch):
        args = ["qqstar", "verify", "--type", "A3", "--depth", "3", "--json"]
        cli(args)
        monkeypatch.setattr(
            qseries, "QEvaluator",
            lambda r, depth: ShiftedEvaluator(r, depth, (1,), 1),
        )
        result = cli(args, 1)
        assert '"ok": false' in result.stdout
        certs = json_lines(result.stdout)
        failed = [(c["i"], c["j"]) for c in certs if not c["ok"]]
        assert failed == [(1, 2), (2, 1)]

    def test_ptolemy_with_a_neighbouring_segment(self, monkeypatch):
        assert ptolemy_check(0, 2, 1, 4, 6)["ok"]
        swap_segment(monkeypatch, Segment(1, 4), Segment(1, 5))
        assert not ptolemy_check(0, 2, 1, 4, 6)["ok"]

    def test_exchange_with_a_neighbouring_segment(self, monkeypatch):
        assert all(c["ok"] for c in exchange_relations_at(0, 6, 3))
        swap_segment(monkeypatch, Segment(-3, -3), Segment(-3, -2))
        failed = [
            (c["relation"], c["at"])
            for c in exchange_relations_at(0, 6, 3)
            if not c["ok"]
        ]
        assert failed == [("flip-lower", -3)]

    def test_gvec_compare_with_one_block_coordinate_changed(self, monkeypatch):
        args = ["gvec", "compare", "--type", "A3", "--json"]
        cli(args)
        real = gvector.blocks_gvectors
        v = (2, -3)

        def blocks(cw):
            out = real(cw)
            out[v] = combo((1, out[v]), (1, {(1, 0): 1}))
            return out

        monkeypatch.setattr(gvector, "blocks_gvectors", blocks)
        (cert,) = json_lines(cli(args, 1).stdout)
        assert not cert["ok"] and cert["mismatches"] == [list(v)]

    def test_gvec_compare_with_one_braid_coordinate_changed(self, monkeypatch):
        args = ["gvec", "compare", "--type", "A3", "--json"]
        cli(args)
        real = gvector.braid_gvectors
        v = (1, -6)

        def braid(cw):
            out = real(cw)
            out[v] = combo((1, out[v]), (1, {(3, -4): 1}))
            return out

        monkeypatch.setattr(gvector, "braid_gvectors", braid)
        (cert,) = json_lines(cli(args, 1).stdout)
        assert not cert["ok"] and cert["mismatches"] == [list(v)]

    def test_seed_sweep_with_one_sweep_coordinate_changed(self, monkeypatch):
        args = ["seed", "sweep", "--type", "A3", "--sweeps", "3", "--json"]
        cli(args)
        real = gvector.sweep_gvectors
        v = (1, -4)

        def sweep(cw, sweeps):
            out = real(cw, sweeps)
            # a new dict: the tables share theirs
            out[2][v] = combo((1, out[2][v]), (1, {(3, -2): 1}))
            return out

        monkeypatch.setattr(gvector, "sweep_gvectors", sweep)
        certs = json_lines(cli(args, 1).stdout)
        assert [c["mismatches"] for c in certs] == [[], [list(v)], []]

    def test_seed_sweep_with_one_sweep_coefficient_doubled(self, monkeypatch):
        # the doubled vector keeps its support: only a comparison of the
        # coefficients tells it from the transported one
        args = ["seed", "sweep", "--type", "A3", "--sweeps", "3", "--json"]
        cli(args)
        real = gvector.sweep_gvectors
        v = (1, -4)

        def sweep(cw, sweeps):
            out = real(cw, sweeps)
            out[2][v] = combo((2, out[2][v]))
            return out

        monkeypatch.setattr(gvector, "sweep_gvectors", sweep)
        certs = json_lines(cli(args, 1).stdout)
        assert [c["mismatches"] for c in certs] == [[], [list(v)], []]

    def test_f_eval_with_one_knit_gvector_changed(self, monkeypatch):
        args = ["f-eval", "--type", "A3", "--json"]
        cli(args)
        real = gvector.knit_gvectors
        v = (2, -3)

        def knit(q):
            out = real(q)
            # no shift of a braid column doubles it
            out[v] = combo((2, out[v]))
            return out

        monkeypatch.setattr(gvector, "knit_gvectors", knit)
        certs = json_lines(cli(args, 1).stdout)
        failed = [c for c in certs if not c["ok"]]
        assert failed == [
            {
                "relation": "f-label",
                "vertex": list(v),
                "note": f"braid expression does not match g-vector at {v}",
                "ok": False,
            }
        ]

    def test_wronskian_with_a_determinant_off_one(self, monkeypatch):
        A2 = rs("A2")
        assert check_wronskian(A2, [0], depth=4)["ok"]
        real = wronskian.SeriesMatrix.det
        monkeypatch.setattr(
            wronskian.SeriesMatrix, "det", lambda m: real(m) + real(m)
        )
        cert = check_wronskian(A2, [0], depth=4)
        assert not cert["ok"]
        # the shift equations and minor identifications still hold: it is
        # the det = 1 entry alone that fails
        assert all(e["ok"] for e in cert["equations"])
        assert all(x["ok"] for x in cert["minor_identifications"])
        assert [d["ok"] for d in cert["determinants"]] == [False]

    def test_sl2_factor_with_crossing_segments(self, monkeypatch):
        monomial = "0:1 1:1 2:-1 3:-1"
        args = ["sl2", "factor", monomial, "--json"]
        result = cli(args)
        (cert,) = json_lines(result.stdout)
        assert cert["segments"] == ["[0,2]", "[1,1]"]
        # [0,1][1,2] has the same top monomial as [0,2][1,1], but crosses
        crossing = (Segment(0, 1), Segment(1, 2))
        key = sl2.parse_monomial(monomial)
        assert key_mul(*(s.ell_weight() for s in crossing))[1] == key[1]
        assert not compatible(*crossing)
        monkeypatch.setattr(sl2, "factorize", lambda key: (crossing, key[0]))
        (cert,) = json_lines(cli(args, 1).stdout)
        assert cert["segments"] == ["[0,1]", "[1,2]"]
        assert not cert["pairwise_compatible"] and not cert["ok"]

    def test_cvector_sign_of_a_mixed_vector_that_starts_positive(
        self, monkeypatch
    ):
        seed = initial_seed(window("A2", 8))
        v = (1, -2)
        assert cvector_sign(seed, v) == -1
        mixed = {(1, -4): 1, (2, -3): -1}
        assert mixed[min(mixed)] > 0
        monkeypatch.setattr("clusterqq.seed.cvector", lambda seed, k: mixed)
        with pytest.raises(SignError, match="not sign-coherent"):
            cvector_sign(seed, v)

    def test_bruhat_with_one_entry_of_m_changed(self, monkeypatch):
        assert bruhat_check(3, trials=10, seed=5)["ok"]
        real = wronskian._random_scaled_sl
        points = []

        def sample(size, rng):
            m, d = real(size, rng)
            m[-1][0] += 1  # det moves by the east corner minor, never 0
            points.append((m, d))
            return m, d

        monkeypatch.setattr(wronskian, "_random_scaled_sl", sample)
        cert = bruhat_check(3, trials=10, seed=5)
        assert not any(x["ok"] for x in cert["results"])
        # the point left SL(4) while Desnanot-Jacobi still holds: it is
        # the det = 1 half of the certificate that fails
        for m, d in points:
            assert desnanot_jacobi_check(to_fractions(m, d))
            assert _carroll_minors(m, {})[3] != d**4
