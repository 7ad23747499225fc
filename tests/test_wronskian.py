"""Quantum Wronskian matrices and exact rational minor identities."""

import hashlib
import itertools
import json
import math
import random
import types
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq import rootsys, wronskian
from clusterqq.qseries import QEvaluator
from clusterqq.rootsys import (
    RootSystem,
    fundamental_weight,
    is_reduced,
    weyl_from_word,
)
from clusterqq.wronskian import (
    block_labels,
    bruhat_check,
    build_wronskian,
    check_wronskian,
    rational_minor,
    weight_word,
)
from oracles import (
    cli,
    desnanot_jacobi_check,
    sign_flipped,
    sl3_cluster_values,
    sl3_reconstruct,
    to_fractions,
    weight_of,
)

# Oracles: the Leibniz determinant and the Fraction arithmetic that the
# Laplace and integer-scaled routines replaced, kept as the reference
# they must agree with exactly.


def _oracle_sign(perm) -> int:
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def leibniz(rows):
    """Leibniz determinant over any commutative ring: the module's routine
    before the Laplace one.  Each term multiplies its factors left to
    right; the first term enters with its sign and every later one is
    added or subtracted.  The empty matrix has determinant 1."""
    acc = None
    for perm in itertools.permutations(range(len(rows))):
        sign = _oracle_sign(perm)
        factors = (row[p] for row, p in zip(rows, perm))
        term = next(factors, 1)
        for f in factors:
            term = term * f
        if acc is None:
            acc = term if sign > 0 else -term
        else:
            acc = acc + term if sign > 0 else acc - term
    return acc


def oracle_minor(mat, rows, cols) -> Fraction:
    return leibniz([[Fraction(mat[rk][c]) for c in cols] for rk in rows])


def oracle_random_sl_matrix(size, rng):
    mat = [
        [Fraction(1 if a == b else 0) for b in range(size)]
        for a in range(size)
    ]
    for _ in range(3 * size * size):
        a = rng.randrange(size)
        b = rng.randrange(size)
        if a == b:
            continue
        t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for col in range(size):
            mat[a][col] += t * mat[b][col]
    return tuple(tuple(row) for row in mat)


def oracle_random_scaled_sl(size, rng):
    """The module's integer draw before the one-row write: each step
    ``row_a ← q·row_a + p·row_b`` multiplies every other row and ``D``
    by ``q``; at the end ``M`` and ``D`` are divided by their gcd."""
    m = [[int(a == b) for b in range(size)] for a in range(size)]
    d = 1
    for _ in range(3 * size * size):
        a = rng.randrange(size)
        b = rng.randrange(size)
        if a == b:
            continue
        p = rng.randint(-3, 3)
        q = rng.randint(1, 3)
        row_a = [q * x + p * y for x, y in zip(m[a], m[b])]
        if q != 1:
            m = [[q * x for x in row] for row in m]
            d *= q
        m[a] = row_a
    g = math.gcd(d, *(x for row in m for x in row))
    return [[x // g for x in row] for row in m], d // g


def oracle_steps(size, rng):
    """The (a, b, p, q) of each step with a != b, drawn as the oracles
    draw them."""
    steps = []
    for _ in range(3 * size * size):
        a = rng.randrange(size)
        b = rng.randrange(size)
        if a != b:
            steps.append((a, b, rng.randint(-3, 3), rng.randint(1, 3)))
    return steps


# Rational-point helpers of the tests, over the module's integer routines.


def random_sl_matrix(size, rng):
    """A random SL(size) matrix: product of elementary transvections."""
    return to_fractions(*wronskian._random_scaled_sl(size, rng))


def in_open_cell(mat) -> bool:
    """Both families of corner minors are nonzero."""
    m, _ = wronskian._clear_denominators(mat)
    return wronskian._corner_minors(m, {}) is not None


A1 = RootSystem.from_name("A1")
A2 = RootSystem.from_name("A2")
A3 = RootSystem.from_name("A3")


class TestWeightWords:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, data):
        rs = RootSystem.from_name(data.draw(st.sampled_from(["A2", "A3", "D4"])))
        word = data.draw(
            st.lists(st.integers(1, rs.n), min_size=0, max_size=6)
        )
        i = data.draw(st.integers(1, rs.n))
        lam2 = weyl_from_word(rs, word).apply(fundamental_weight(rs, i)).coords2
        back, idx = weight_word(rs, lam2)
        assert idx == i
        assert is_reduced(rs, back)
        assert (
            weyl_from_word(rs, back).apply(fundamental_weight(rs, i)).coords2
            == lam2
        )

    def test_rejects_non_orbit_weight(self):
        with pytest.raises(ValueError):
            weight_word(A2, (2, 2))


@pytest.fixture(scope="module")
def ev_a2():
    return QEvaluator(A2, depth=4)


@pytest.fixture(scope="module")
def m_a2(ev_a2):
    return build_wronskian(ev_a2, 0)


class TestSeriesMatrix:
    def test_rank_one_two_by_two_determinant_is_one(self):
        m = build_wronskian(QEvaluator(A1, depth=5), 0)
        assert m.size == 2
        det = m.det()
        key, coeff = det.top()
        assert (key, coeff) == (((0,), ()), 1)
        assert len(det.terms) == 1

    def test_first_column_entries_are_monomials(self, m_a2):
        for k in range(3):
            series = m_a2.entries[k][0]
            assert len(series.terms) == 1

    def test_entry_tops_follow_the_orbit(self, m_a2, ev_a2):
        # entry (k, l) is the q-variable of the l-th orbit weight at
        # height r + 2k
        assert m_a2.entries[1][1].matches(ev_a2.q_bar((1,), 1, 2))
        assert m_a2.entries[2][2].matches(ev_a2.q_bar((2, 1), 1, 4))

    def test_leading_principal_minor_is_second_q_variable(self, m_a2, ev_a2):
        assert m_a2.minor((0, 1), (0, 1)).matches(ev_a2.q_bar((), 2, 1))

    def test_trailing_column_minor_is_reflected_q_variable(self, m_a2, ev_a2):
        assert m_a2.minor((0, 1), (1, 2)).matches(ev_a2.q_bar((1, 2), 2, 1))

    def test_lewis_carroll_comparison(self, m_a2, ev_a2):
        # the 2x2 matrix of complementary minors has determinant equal to
        # the central entry, forcing det = 1
        top = m_a2.minor((0, 1), (0, 1))
        topr = m_a2.minor((0, 1), (1, 2))
        bot = m_a2.minor((1, 2), (0, 1))
        botr = m_a2.minor((1, 2), (1, 2))
        lhs = top * botr - topr * bot
        assert lhs.matches(ev_a2.q_bar((1,), 1, 2))

    def test_rank_two_determinant_is_one(self, m_a2):
        det = m_a2.det()
        assert det.top() == (((0, 0), ()), 1)
        assert len(det.terms) == 1

    def test_all_block_minors_match_q_variables(self, m_a2, ev_a2):
        labels = block_labels(A2)
        for i in (1, 2):
            for k in range(4 - i):
                for l in range(4 - i):
                    word = labels[i - 1][l][1]
                    assert m_a2.block_minor(i, k, l).matches(
                        ev_a2.q_bar(word, i, 2 * k + i - 1)
                    ), (i, k, l)

    def test_rejects_non_type_a(self):
        with pytest.raises(ValueError):
            build_wronskian(QEvaluator(RootSystem.from_name("D4"), depth=3), 0)

    @pytest.mark.parametrize(
        "rows, cols",
        [((0,), (2,)), ((0, 1), (1, 2)), ((1, 2), (0, 2)), ((0, 1, 2),) * 2],
    )
    def test_minor_runs_the_same_operations(self, m_a2, rows, cols):
        got = m_a2.minor(rows, cols)
        want = leibniz([[m_a2.entries[rk][c] for c in cols] for rk in rows])
        assert got.terms == want.terms
        assert got.cut == want.cut


class TestBlockLabels:
    """The one block ↔ label table of the standard Wronskian matrix."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_words_are_reduced_and_give_back_their_weights(self, n):
        rs = RootSystem.from_name(f"A{n}")
        ev = QEvaluator(rs, depth=1)
        labels = block_labels(rs)
        assert len(labels) == n
        for i, node in enumerate(labels, 1):
            assert len(node) == n + 2 - i
            weights = [lam2 for lam2, _ in node]
            assert len(set(weights)) == len(weights)
            # so a dict lookup gives the index list.index gives
            at = {lam2: l for l, lam2 in enumerate(weights)}
            assert all(at[lam2] == weights.index(lam2) for lam2 in weights)
            assert weights[0] == fundamental_weight(rs, i).coords2
            for lam2, word in node:
                assert is_reduced(rs, word)
                assert weight_of(ev, word, i) == lam2
                assert weight_word(rs, lam2) == (word, i)

    def test_one_table_per_root_system(self):
        a8 = RootSystem.from_name("A8")
        assert block_labels(a8) is block_labels(a8)
        assert sum(map(len, block_labels(a8))) == 44
        assert type(block_labels(a8)) is tuple
        assert all(type(node) is tuple for node in block_labels(a8))

    @pytest.mark.parametrize("name, r", [("A1", -3), ("A2", 0), ("A3", 2)])
    def test_build_reads_node_one(self, name, r):
        rs = RootSystem.from_name(name)
        ev = QEvaluator(rs, depth=3)
        m = build_wronskian(ev, r)
        node = block_labels(rs)[0]
        assert m.size == len(node) == rs.n + 1
        for k, row in enumerate(m.entries):
            for (_, word), entry in zip(node, row, strict=True):
                assert entry.matches(ev.q_bar(word, 1, r + 2 * k))

    def test_rejects_non_type_a(self):
        with pytest.raises(ValueError, match="^Wronskian matrices require type A$"):
            block_labels(RootSystem.from_name("D4"))

    def test_failing_twin_swapped_words(self, monkeypatch):
        assert check_wronskian(A3, [0], depth=3)["ok"]
        real = block_labels(A3)
        (w0, a), (w1, b) = real[1][:2]
        swapped = (real[0], ((w0, b), (w1, a)) + real[1][2:], real[2])
        monkeypatch.setattr(wronskian, "block_labels", lambda rs: swapped)
        cert = check_wronskian(A3, [0], depth=3)
        assert not cert["ok"]
        failed = {
            (x["i"], x["k"], x["l"])
            for x in cert["minor_identifications"]
            if not x["ok"]
        }
        assert failed and {i for i, _, _ in failed} == {2}
        assert {l for _, _, l in failed} == {0, 1}
        # the weights, and so the shift system, are untouched
        assert all(e["ok"] for e in cert["equations"])


class SeriesWorkReached(Exception):
    """Not a ValueError, so no precondition test can mistake it for one."""


def refuse_series_work(*args):
    raise SeriesWorkReached


class TestWronskianProperty:
    def test_rank_one(self):
        cert = check_wronskian(A1, [0, 2], depth=5)
        assert cert["ok"]

    def test_rank_two_several_bases(self):
        cert = check_wronskian(A2, [-2, 0], depth=4)
        assert cert["ok"]
        assert all(e["ok"] for e in cert["equations"])
        assert all(d["ok"] for d in cert["determinants"])
        assert cert["minor_identifications"]

    def test_rank_three(self):
        cert = check_wronskian(A3, [0], depth=3)
        assert cert["ok"]

    @pytest.mark.parametrize(
        "rs, r_values, word",
        [
            (RootSystem.from_name("D4"), [0], None),
            (A2, [], None),
            (A2, [0], (5,)),
            (A2, [0], (0, 1)),
            (A2, [0], (1,)),  # its orbits never reach the lowest weights
            (A2, [0], ()),  # nor do those of the empty word
        ],
    )
    def test_preconditions_raise_before_series_work(
        self, monkeypatch, rs, r_values, word
    ):
        # a TruncationError is a ValueError: series work that fails must not
        # pass for a precondition, so reaching it raises something else
        monkeypatch.setattr(wronskian, "build_wronskian", refuse_series_work)
        with pytest.raises(ValueError):
            check_wronskian(rs, r_values, depth=2, system_word=word)

    def test_bases_are_read_one_at_a_time(self, monkeypatch):
        # an empty iterator compares nothing, so it is refused like []; a
        # trillion bases are not listed before the first build
        monkeypatch.setattr(wronskian, "build_wronskian", refuse_series_work)
        with pytest.raises(ValueError, match="^need at least one base r$"):
            check_wronskian(A2, iter(()), depth=2)

        class Stop(Exception):
            pass

        def deadline():
            raise Stop

        with pytest.raises(Stop):
            check_wronskian(A2, range(0, 2 * 10**12, 2), depth=2, deadline=deadline)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_raises_before_series_work(self, monkeypatch, depth):
        monkeypatch.setattr(wronskian, "build_wronskian", refuse_series_work)
        with pytest.raises(ValueError, match="depth must be at least 1"):
            check_wronskian(A2, [0], depth=depth)

    def test_each_base_matrix_built_once(self, monkeypatch):
        # base r + 2 of one pass is base r of the next
        bases = []
        real = wronskian.build_wronskian

        def counting(ev, r, **kwargs):
            bases.append(r)
            return real(ev, r, **kwargs)

        monkeypatch.setattr(wronskian, "build_wronskian", counting)
        assert check_wronskian(A3, range(-4, 5), depth=4)["ok"]
        assert sorted(bases) == list(range(-4, 7))

    def test_passes_hold_at_most_three_matrices(self, monkeypatch):
        # once the pass at r is done no later pass of an ascending range
        # reads a base <= r, so those matrices and their memos are dropped
        built = []
        real = wronskian.build_wronskian

        def tracked(ev, r, **kwargs):
            m = real(ev, r, **kwargs)
            built.append(weakref.ref(m))
            return m

        def deadline():
            assert sum(ref() is not None for ref in built) <= 3

        monkeypatch.setattr(wronskian, "build_wronskian", tracked)
        assert check_wronskian(A2, range(8), depth=2, deadline=deadline)["ok"]
        assert len(built) == 10

    def test_failing_twin_doubled_entry(self, monkeypatch):
        # doubling Q̲ at word (1), node 1, doubles column 1 of every
        # matrix: det and the node-2 minors over it fail.  Each shift
        # equation of the standard word compares one block of the same
        # Q-variables at two bases, so all of them still pass.
        class Doubled(QEvaluator):
            def q_bar(self, word, i, r):
                s = super().q_bar(word, i, r)
                return s + s if (tuple(word), i) == ((1,), 1) else s

        monkeypatch.setattr(wronskian, "QEvaluator", Doubled)
        cert = check_wronskian(A2, [0, 2], depth=3)
        assert not cert["ok"]
        assert [d["ok"] for d in cert["determinants"]] == [False, False]
        failed = {
            (x["r"], x["i"], x["k"], x["l"])
            for x in cert["minor_identifications"]
            if not x["ok"]
        }
        assert len(cert["minor_identifications"]) == 26
        assert failed == {
            (r, 2, k, l) for r in (0, 2) for k in (0, 1) for l in (0, 1)
        }
        assert len(cert["equations"]) == 16
        assert all(e["ok"] for e in cert["equations"])

    def test_reversed_coxeter_is_not_a_wronskian(self):
        cert = check_wronskian(A2, [0], depth=4, system_word=(2, 1))
        assert not cert["ok"]
        failed = {
            (e["i"], e["k"], e["l"]) for e in cert["equations"] if not e["ok"]
        }
        assert (1, 1, 0) in failed
        # determinant and standard minors are untouched by the bad system
        assert all(d["ok"] for d in cert["determinants"])


class TestRationalMinors:
    def test_identity_matrix_outside_open_cell(self):
        ident = tuple(
            tuple(Fraction(1 if a == b else 0) for b in range(3))
            for a in range(3)
        )
        assert rational_minor(ident, (1,), (0,)) == 0
        assert not in_open_cell(ident)

    def test_random_matrices_have_det_one(self):
        import random

        rng = random.Random(7)
        for _ in range(10):
            mat = random_sl_matrix(4, rng)
            assert rational_minor(mat, range(4), range(4)) == 1

    def test_sl3_exchange_identity(self):
        import random

        rng = random.Random(11)
        found = 0
        while found < 10:
            g = random_sl_matrix(3, rng)
            if not in_open_cell(g):
                continue
            found += 1
            lhs = rational_minor(g, (0, 1), (0, 1)) * rational_minor(
                g, (1, 2), (1, 2)
            )
            rhs = rational_minor(g, (1, 2), (0, 1)) * rational_minor(
                g, (0, 1), (1, 2)
            ) + rational_minor(g, (1,), (1,))
            assert lhs == rhs

    def test_desnanot_jacobi_any_size(self):
        import random

        rng = random.Random(13)
        for size in (3, 4, 5):
            for _ in range(5):
                assert desnanot_jacobi_check(random_sl_matrix(size, rng))

    def test_sl3_reconstruction_roundtrip(self):
        import random

        rng = random.Random(17)
        found = 0
        while found < 10:
            g = random_sl_matrix(3, rng)
            if not in_open_cell(g):
                continue
            vals = sl3_cluster_values(g)
            if any(v == 0 for v in vals.values()):
                continue
            found += 1
            assert sl3_reconstruct(vals) == g

    def test_reconstruction_is_the_exchange_identity(self):
        """On 3 x 3 rational matrices with nonzero cluster minors, SL(3)
        points or not, the rebuilt matrix is the matrix exactly when
        ``N·S - W·E == inner``: the reconstruction checks nothing that
        the exchange identity does not."""
        rng = random.Random(20)
        outcomes = {True: 0, False: 0}
        for t in itertools.count():
            if sum(outcomes.values()) == 2000:
                break
            if t % 3 == 2:  # any rational matrix
                mat = [
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in "abc"]
                    for _ in "abc"
                ]
            else:  # an SL(3) point, or one with one entry moved
                mat = [list(row) for row in random_sl_matrix(3, rng)]
                if t % 3 == 1:
                    mat[rng.randrange(3)][rng.randrange(3)] += rng.randint(-2, 2)
            vals = sl3_cluster_values(mat)
            if 0 in vals.values():
                continue
            north, inner = vals["d12_12"], vals["d22"]
            west, east = vals["d23_12"], vals["d12_23"]
            south = rational_minor(mat, (1, 2), (1, 2))
            exchange = north * south - west * east == inner
            rebuilt = sl3_reconstruct(vals) == tuple(map(tuple, mat))
            assert rebuilt == exchange, mat
            outcomes[exchange] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_bruhat_certificates(self):
        cert = bruhat_check(2, trials=15, seed=1)
        assert cert["ok"]
        cert3 = bruhat_check(3, trials=8, seed=2)
        assert cert3["ok"]

    def test_bruhat_deterministic(self):
        a = bruhat_check(2, trials=5, seed=9)
        b = bruhat_check(2, trials=5, seed=9)
        assert a == b

    def test_bruhat_rejects_empty_runs(self):
        for trials in (0, -2):
            with pytest.raises(ValueError):
                bruhat_check(3, trials=trials)


class TestSizeBound:
    """Ranks above MAX_RANK, the documented input range of both minor
    checks, are refused before any series, sampling or minor work."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def no_minors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise self.Reached

        for name in ("_minor", "build_wronskian", "_random_scaled_sl"):
            monkeypatch.setattr(wronskian, name, refuse)

    def test_bound(self):
        assert wronskian.MAX_RANK == 8

    @pytest.mark.parametrize("n", [9, 10, 40])
    def test_bruhat_refuses_large_rank(self, no_minors, n):
        with pytest.raises(ValueError):
            bruhat_check(n, trials=1)

    @pytest.mark.parametrize("n", [9, 10, 40])
    def test_wronskian_refuses_large_rank(self, no_minors, n):
        with pytest.raises(ValueError):
            check_wronskian(RootSystem.from_name(f"A{n}"), [0], depth=2)

    def test_largest_rank_passes_the_guard(self, no_minors):
        n = wronskian.MAX_RANK
        with pytest.raises(self.Reached):
            bruhat_check(n, trials=1)
        with pytest.raises(self.Reached):
            check_wronskian(RootSystem.from_name(f"A{n}"), [0], depth=2)


class TestIntegerScale:
    """The integer-scaled routines against the Fraction oracles."""

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_random_sl_matrix_matches_oracle(self, size):
        for seed in range(60):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_sl_matrix(size, rng) == oracle_random_sl_matrix(
                    size, ref
                )
            # same draws in the same order: rejection counts stay put
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("size", range(3, 10))
    def test_scaled_draw_matches_rescaling_oracle(self, size):
        # (M, D) with gcd 1 is canonical, so equal matrices are equal pairs
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert wronskian._random_scaled_sl(
                    size, rng
                ) == oracle_random_scaled_sl(size, ref)
                assert rng.getstate() == ref.getstate()

    class GetrandbitsOnly(random.Random):
        """A generator whose every draw but ``getrandbits`` raises."""

        def _refuse(self, *args, **kwargs):
            raise AssertionError("the draw must read getrandbits only")

        randrange = randint = random = choice = _refuse

    @pytest.mark.parametrize("size", [2, 3, 4, 9])
    def test_draw_reads_getrandbits_only(self, size):
        for seed in range(10):
            rng, ref = self.GetrandbitsOnly(seed), random.Random(seed)
            for _ in range(3):
                assert wronskian._random_scaled_sl(
                    size, rng
                ) == oracle_random_scaled_sl(size, ref)
                assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n, trials, seed", [(2, 30, 101), (3, 50, 11)])
    def test_bruhat_check_reads_getrandbits_only(self, monkeypatch, n, trials, seed):
        expected = bruhat_check(n, trials, seed)
        monkeypatch.setattr(
            wronskian, "random", types.SimpleNamespace(Random=self.GetrandbitsOnly)
        )
        assert bruhat_check(n, trials, seed) == expected

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_zero_steps_match_the_oracle(self, size):
        # the draw skips a p = 0 step once q is drawn, where the oracle
        # still scales every row and D by q > 1
        rng, ref = random.Random(2024), random.Random(2024)
        steps = oracle_steps(size, random.Random(2024))
        assert any(p == 0 and q > 1 for _, _, p, q in steps)
        assert any(p != 0 for _, _, p, _ in steps)
        assert wronskian._random_scaled_sl(size, rng) == oracle_random_scaled_sl(
            size, ref
        )
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("entries", ["int", "fraction", "mixed"])
    def test_rational_minor_matches_oracle_on_every_subset(self, entries):
        rng = random.Random(f"minors:{entries}")

        def entry():
            num = rng.randint(-9, 9)
            if entries == "int" or (entries == "mixed" and rng.random() < 0.5):
                return num
            return Fraction(num, rng.randint(1, 12))

        for _ in range(8):
            mat = [[entry() for _ in range(4)] for _ in range(4)]
            for k in range(5):
                for rows in itertools.combinations(range(4), k):
                    for cols in itertools.combinations(range(4), k):
                        got = rational_minor(mat, rows, cols)
                        assert type(got) is Fraction
                        assert got == oracle_minor(mat, rows, cols)

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_full_minors_of_random_points(self, size):
        rng = random.Random(size)
        for _ in range(10):
            mat = random_sl_matrix(size, rng)
            for rows in itertools.combinations(range(size), size - 1):
                for cols in itertools.combinations(range(size), size - 1):
                    assert rational_minor(mat, rows, cols) == oracle_minor(
                        mat, rows, cols
                    )

    def test_rejects_ragged_minor(self):
        with pytest.raises(ValueError):
            rational_minor([[1, 2], [3, 4]], (0, 1), (0,))


def subsets(size):
    """Every nonempty square (rows, cols) pair of a size x size matrix."""
    for k in range(1, size + 1):
        for rows in itertools.combinations(range(size), k):
            for cols in itertools.combinations(range(size), k):
                yield rows, cols


def series_mismatches(m) -> tuple[int, list]:
    """The number of nonempty minors of ``m`` compared with the Leibniz
    oracle, and those whose cut or terms differ from it."""
    compared, bad = 0, []
    for rows, cols in subsets(m.size):
        got = m.minor(rows, cols)
        want = leibniz([[m.entries[rk][c] for c in cols] for rk in rows])
        compared += 1
        if (got.cut, got._t) != (want.cut, want._t):
            bad.append((rows, cols))
    return compared, bad


def square_minor_case(draw, entry):
    """A square matrix of up to 7 x 7 ``entry`` draws and a row and a
    column selection of one size, in any order."""
    size = draw(st.integers(0, 7))
    mat = [[draw(entry) for _ in range(size)] for _ in range(size)]
    k = draw(st.integers(0, size))
    pick = st.lists(
        st.integers(0, max(size - 1, 0)), min_size=k, max_size=k, unique=True
    )
    return mat, draw(pick), draw(pick)


FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


class TestLaplaceMinor:
    """The memoized Laplace routine against the Leibniz oracle: the same
    cutoff and the same terms on every Wronskian minor, and the same
    value on integer and rational matrices."""

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4"])
    def test_every_wronskian_minor_matches_leibniz(self, name, depth):
        rs = RootSystem.from_name(name)
        ev = QEvaluator(rs, depth=depth)
        compared = 0
        for r in range(-4, 5):
            n, bad = series_mismatches(build_wronskian(ev, r))
            assert bad == [], (r, bad)
            compared += n
        # all nonempty minors of an (n+1) x (n+1) matrix at nine bases
        size = rs.n + 1
        assert compared == 9 * sum(
            math.comb(size, k) ** 2 for k in range(1, size + 1)
        )

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_integer_minors_match_leibniz(self, data):
        mat, rows, cols = square_minor_case(data.draw, st.integers(-9, 9))
        want = leibniz([[mat[rk][c] for c in cols] for rk in rows])
        assert wronskian._int_minor(mat, rows, cols, {}) == want

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_rational_minors_match_leibniz(self, data):
        mat, rows, cols = square_minor_case(data.draw, FRACTIONS)
        got = rational_minor(mat, rows, cols)
        assert type(got) is Fraction and got == oracle_minor(mat, rows, cols)

    def test_empty_and_single_entry(self):
        assert wronskian._minor([], (), (), {}) == 1
        assert wronskian._minor([[5, 6], [7, 8]], (1,), (0,), {}) == 7

    def test_memo_holds_each_sub_minor_once(self):
        m = build_wronskian(QEvaluator(A3, depth=2), 0)
        assert m.det() is m.det()
        # expanding along the first row: the minors on the row suffixes
        # {k..3} and every column set of that size, 2 x 2 and larger
        assert sorted(len(rows) for rows, _ in m._memo) == sorted(
            size for size in range(2, 5) for _ in range(math.comb(4, size))
        )

    @staticmethod
    def flip_minor(monkeypatch):
        # patched where it is called and where its recursion resolves
        flipped = sign_flipped(rootsys._minor)
        monkeypatch.setattr(wronskian, "_minor", flipped)
        monkeypatch.setattr(rootsys, "_minor", flipped)

    def test_failing_twin_series(self, monkeypatch):
        ev = QEvaluator(A2, depth=3)
        assert series_mismatches(build_wronskian(ev, 0))[1] == []
        self.flip_minor(monkeypatch)
        _, bad = series_mismatches(build_wronskian(ev, 0))
        assert ((0, 1), (0, 1)) in bad

    def test_failing_twin_integer_and_rational(self, monkeypatch):
        mat = [[2, 3, 1], [1, 4, 2], [5, 1, 3]]
        rows = cols = (0, 1, 2)
        assert wronskian._int_minor(mat, rows, cols, {}) == leibniz(mat)
        assert rational_minor(mat, rows, cols) == leibniz(mat)
        self.flip_minor(monkeypatch)
        assert wronskian._int_minor(mat, rows, cols, {}) != leibniz(mat)
        assert rational_minor(mat, rows, cols) != leibniz(mat)


class TestBruhatCertificates:
    # sha256 of json.dumps(bruhat_check(n, trials, seed), sort_keys=True),
    # recorded from the Fraction implementation
    @pytest.mark.parametrize(
        "n, trials, seed, sha256",
        [
            (2, 100, 101,
             "459f85a161338530f97b18c9d801edaecec5207fead40fabf31b56f5e02c7958"),
            (3, 300, 11,
             "e0dccec29d7abe8eadd791a49cbc4e181fbb81192539379ea99c7641348b51e2"),
            (4, 30, 5,
             "3938b165016d1f6ee0d3d54be34772223c4a3ee812e54d9b7c40acf3052509d0"),
            # recorded from the draw that rescaled every row per step
            (2, 100, 7,
             "3ed22cecb10f0acce6314947243b072aca9c4e79e39f8093920d97d7a957f2fc"),
            (3, 100, 7,
             "2012e68994d0443d9dc8a908aee513af1aa9729814e7cd3df4e939cee9d9d042"),
            (5, 100, 7,
             "d835d3830f8a1690e9db8f8edf9889fcb5999447d3606b85b3ece7bc40179c28"),
            (8, 100, 7,
             "f1fd18bc1a0c24a170f9bb9a940403aaa98f2e343289d9984910e964bf931cdb"),
        ],
    )
    def test_pinned(self, n, trials, seed, sha256):
        cert = bruhat_check(n, trials, seed)
        assert cert["ok"]
        digest = hashlib.sha256(json.dumps(cert, sort_keys=True).encode())
        assert digest.hexdigest() == sha256

    def test_n2_command_stdout(self):
        # the n = 2 sampling rule decides which points are drawn: leaving
        # out any one of its four minors changes the rejections and points
        result = cli("bruhat verify --n 2 --trials 200 --seed 3 --json")
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "714e472fecea87185313ac6636624a99ce65af400d026345477f2c8899453bc5"
        )

    @pytest.mark.parametrize("seed", [0, 4, 11])
    def test_each_minor_once(self, monkeypatch, seed):
        """Per sample: the 2n corner minors, then north, south, inner and
        det, all on one memo; a rejected draw stops within its 2n corner
        minors, and no two draws share a memo."""
        calls = []
        int_minor = wronskian._int_minor

        def counting(m, rows, cols, memo):
            calls.append((len(rows), memo))
            return int_minor(m, rows, cols, memo)

        monkeypatch.setattr(wronskian, "_int_minor", counting)
        n, trials = 3, 50
        cert = bruhat_check(n, trials, seed)
        assert cert["ok"]
        assert calls
        assert len(calls) <= (2 * n + 4) * trials + 2 * n * cert["rejected"]
        # consecutive calls on one memo object are one draw; ``calls``
        # keeps every memo alive, so distinct draws have distinct ids
        draws = [
            [k for k, _ in group]
            for _, group in itertools.groupby(calls, key=lambda c: id(c[1]))
        ]
        assert all(memo is not None for _, memo in calls)
        assert len(draws) == trials + cert["rejected"]
        assert len({id(memo) for _, memo in calls}) == len(draws)
        accepted = [d for d in draws if len(d) == 2 * n + 4]
        assert len(accepted) == trials
        assert all(len(d) <= 2 * n for d in draws if len(d) != 2 * n + 4)

    @pytest.mark.parametrize("n, trials, seed", [(2, 30, 5), (3, 30, 5)])
    def test_failing_twin_desnanot_jacobi(self, monkeypatch, n, trials, seed):
        # det off by one leaves the exchange identity true: only the
        # Desnanot-Jacobi half of the certificate can fail
        assert bruhat_check(n, trials, seed)["ok"]
        real = wronskian._carroll_minors

        def det_plus_one(m, memo):
            north, south, inner, det = real(m, memo)
            return north, south, inner, det + 1

        monkeypatch.setattr(wronskian, "_carroll_minors", det_plus_one)
        cert = bruhat_check(n, trials, seed)
        assert not any(x["ok"] for x in cert["results"])


class TestDeadline:
    """The optional deadline check runs inside the long loops and changes
    nothing about the certificate."""

    class Stop(Exception):
        pass

    def counter(self, stop_at=None):
        calls = []

        def deadline():
            calls.append(1)
            if len(calls) == stop_at:
                raise self.Stop

        return calls, deadline

    def test_wronskian_checks_before_every_comparison(self):
        calls, deadline = self.counter()
        cert = check_wronskian(A2, [-2, 0], depth=4, deadline=deadline)
        assert cert == check_wronskian(A2, [-2, 0], depth=4)
        compared = (
            len(cert["equations"])
            + len(cert["determinants"])
            + len(cert["minor_identifications"])
        )
        # and before each of the three builds (r = -2, 0, 2) and each of
        # their 3 x 3 entries
        assert len(calls) == compared + 3 * (1 + 3 * 3)

    def test_build_checks_before_every_entry(self, monkeypatch):
        solved = []
        q_bar = QEvaluator.q_bar

        def counting(self, *args):
            solved.append(args)
            return q_bar(self, *args)

        monkeypatch.setattr(QEvaluator, "q_bar", counting)
        calls, deadline = self.counter()
        m = build_wronskian(QEvaluator(A2, depth=4), 0, deadline=deadline)
        plain = build_wronskian(QEvaluator(A2, depth=4), 0)
        assert all(
            a.matches(b)
            for row, ref in zip(m.entries, plain.entries)
            for a, b in zip(row, ref)
        )
        assert len(calls) == 9
        solved.clear()
        calls, deadline = self.counter(stop_at=4)
        with pytest.raises(self.Stop):
            build_wronskian(QEvaluator(A2, depth=4), 0, deadline=deadline)
        assert len(solved) == 3

    def test_bruhat_checks_before_every_draw(self):
        calls, deadline = self.counter()
        cert = bruhat_check(3, 50, 4, deadline=deadline)
        assert cert == bruhat_check(3, 50, 4)
        assert len(calls) == cert["trials"] + cert["rejected"]

    @pytest.mark.parametrize(
        "run",
        [
            lambda d: check_wronskian(A2, [-2, 0], depth=4, deadline=d),
            lambda d: bruhat_check(3, 50, 4, deadline=d),
        ],
    )
    def test_a_raising_deadline_abandons_the_run(self, run):
        calls, deadline = self.counter(stop_at=3)
        with pytest.raises(self.Stop):
            run(deadline)
        assert len(calls) == 3
