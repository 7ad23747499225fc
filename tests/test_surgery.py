"""Quiver surgery and the Coxeter window against the rebuild-every-step
implementations.

The oracles below are the ``_make``-based surgeries that re-filter and
re-sort the whole quiver after every step.  The working-form surgeries of
``clusterqq.quiver`` and ``clusterqq.seed`` must give equal quivers,
g-vectors and tags, and the same exceptions, on every input here, and the
closed-form Coxeter window must be the quiver that the insertion surgery
of ``oracles.insert_reflection`` builds, or raise what it raises.
``_make`` itself must emit the sorted filtered arrows and name the first
loop or 2-cycle.  Mutation walks are also checked against
Fomin–Zelevinsky matrix mutation (``oracles.matrix_mutate``).  The last
class checks that a run of surgeries freezes once, that knitting
computes each g-vector once and that ``seed mutate`` computes each
c-vector once.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from clusterqq import gvector
from clusterqq import quiver as quiver_mod
from clusterqq import seed as seed_mod
from clusterqq.gvector import knit_gvectors
from clusterqq.quiver import (
    GREEN,
    RED,
    MarginError,
    _make,
    basic_quiver,
    build_coxeter_quiver,
    mutate_quiver,
)
from clusterqq.rootsys import coxeter_data
from clusterqq.seed import green_sweep, initial_seed
from oracles import (
    bipartition_class,
    cli,
    exchange_matrix,
    grouped,
    insert_reflection,
    matrix_mutate,
    mutate_reference,
    recolor_from_arrows,
    reds,
    rs,
)


# ---------------------------------------------------------------------------
# oracles: one whole-quiver rebuild per surgery
# ---------------------------------------------------------------------------


def oracle_mutate_quiver(q, v):
    if v not in q.vertices:
        raise ValueError(f"vertex {v} not in window")
    if v in q.frozen:
        raise ValueError(f"vertex {v} is frozen")
    r = v[1]
    if not (q.rmin + q.margin < r < q.rmax - q.margin):
        raise MarginError(f"mutation at {v} violates the window margin")

    arrows = dict(q.arrows)
    ins = [(a, m) for (a, b), m in arrows.items() if b == v]
    outs = [(b, m) for (a, b), m in arrows.items() if a == v]
    for a, ma in ins:
        for b, mb in outs:
            arrows[(a, b)] = arrows.get((a, b), 0) + ma * mb
    for a, m in ins:
        del arrows[(a, v)]
        arrows[(v, a)] = arrows.get((v, a), 0) + m
    for b, m in outs:
        del arrows[(v, b)]
        arrows[(b, v)] = arrows.get((b, v), 0) + m
    # cancellation over the whole quiver
    for (a, b) in list(arrows):
        if (b, a) in arrows and (a, b) in arrows and a < b:
            k = min(arrows[(a, b)], arrows[(b, a)])
            arrows[(a, b)] -= k
            arrows[(b, a)] -= k
    return _make(q, vertices=q.vertices, out=grouped(arrows))


def oracle_recolor(q):
    colors = {}
    for (a, b), m in q.arrows:
        if a[0] == b[0] and a[1] == b[1] + 2:
            colors[a] = RED
            colors[b] = GREEN
    return _make(q, vertices=q.vertices, out=q.out, colors=colors)


def oracle_mutate_reference(seed, l):
    ref = seed.ref_quiver
    if l not in ref.vertices:
        raise ValueError(f"vertex {l} not in reference window")
    out_arrows = ref.arrows_out(l)
    in_arrows = [(a, m) for (a, b), m in ref.arrows if b == l]
    new_g = {}
    for x, gvec in seed.g:
        comp = dict(gvec)
        gl = comp.get(l, 0)
        if gl == 0:
            new_g[x] = gvec
            continue
        arrows = out_arrows if gl >= 0 else in_arrows
        comp[l] = -gl
        for v, m in arrows:
            comp[v] = comp.get(v, 0) + m * gl
        new_g[x] = {v: c for v, c in comp.items() if c}
    return replace(
        seed,
        ref_quiver=oracle_mutate_quiver(ref, l),
        g=tuple(sorted(new_g.items())),
        ref_tag=seed.ref_tag + f"*mu{l}",
    )


def oracle_green_sweep(seed):
    tag = seed.ref_tag
    greens = seed.ref_quiver.greens()
    if not greens:
        raise ValueError("reference quiver has no green vertices")
    for l in greens:
        seed = oracle_mutate_reference(seed, l)
    ref = oracle_recolor(seed.ref_quiver)
    return replace(seed, ref_quiver=ref, ref_tag=tag + "+sweep")


def oracle_coxeter_quiver(root_system, datum, depth_below=8, margin=2):
    """The Coxeter quiver (without its core), one rebuild per insertion,
    restricted to its window: at margin 0 a green can fall below it."""
    n = root_system.n
    band_bottom = min(
        -datum.l_of(i) - 4 * (datum.m_of(i) - 1) - 2 for i in range(1, n + 1)
    )
    q = basic_quiver(
        root_system, band_bottom - depth_below, 2,
        parity=datum.parity(), margin=margin,
    )
    points = sorted(
        ((i, -datum.l_of(i) - 2 * k) for i in range(1, n + 1)
         for k in range(datum.m_of(i))),
        key=lambda v: (-v[1], v[0]),
    )
    count = dict.fromkeys(range(1, n + 1), 0)
    for i, r0 in points:
        q = insert_reflection(q, (i, r0 - 2 * count[i]))
        count[i] += 1
    return _make(
        q, vertices={v for v in q.vertices if v[1] >= q.rmin}, out=q.out
    )


def outcome(fn, *args):
    """The result of fn(*args), or its exception's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


def coxeter_words():
    for name in ("A1", "A2", "A3", "A4", "A5", "D4"):
        n = rs(name).n
        for word in itertools.permutations(range(1, n + 1)):
            yield name, word
    for name in ("E6", "E7", "E8"):
        rng = random.Random(name)
        for _ in range(2):
            word = list(range(1, rs(name).n + 1))
            rng.shuffle(word)
            yield name, tuple(word)


# Every word is built at depths 8 and 2, margin 2.  The whole grid of
# depths and margins is run on every k-th word of the A and D types (k as
# below), and one word of each E type is also built at depth -1, margin 0,
# where the lowest red's green falls below the window.  The rebuilds of the
# other words would add seconds and reach no new case.
GRID = tuple(itertools.product((-3, -1, 0, 1, 2, 8), (0, 2, 5)))
OLD = ((8, 2), (2, 2))
GRID_EVERY = {"A1": 1, "A2": 1, "A3": 1, "A4": 3, "D4": 3, "A5": 10}


def window_cases(name, index):
    if name in GRID_EVERY:
        return GRID if index % GRID_EVERY[name] == 0 else OLD
    return OLD + ((-1, 0),) if index == 0 else OLD


def kind(result):
    """What an outcome is: a quiver (with a red whose green fell below the
    window, or not), or the last word of an error message."""
    if isinstance(result, tuple):
        return result[1].split()[-1]
    dropped = len(reds(result)) > len(result.greens())
    return "green dropped" if dropped else "quiver"


class TestBuildAgainstOracle:
    def test_every_coxeter_word(self):
        words = list(coxeter_words())
        assert len(words) == 1 + 2 + 6 + 24 + 120 + 24 + 6
        # at depth 2 the lowest insertions sit 4 above the window bottom, so
        # the column they move down is the part that drops out of the window;
        # below that the margin, the window bottom and the green of the
        # lowest red are reached
        kinds, seen = Counter(), Counter()
        for name, word in words:
            datum = coxeter_data(rs(name), word)
            for depth, margin in window_cases(name, seen[name]):
                got = outcome(
                    lambda: build_coxeter_quiver(datum, depth, margin).quiver
                )
                expected = outcome(
                    oracle_coxeter_quiver, rs(name), datum, depth, margin
                )
                assert got == expected, (name, word, depth, margin)
                kinds[kind(expected)] += 1
            seen[name] += 1
        assert set(kinds) == {"quiver", "green dropped", "window", "bottom"}, kinds


# ---------------------------------------------------------------------------
# mutation sequences
# ---------------------------------------------------------------------------

WORDS = {
    "A3": (1, 2, 3),
    "D4": (1, 3, 4, 2),
    "E6": (6, 5, 4, 2, 3, 1),
}


@lru_cache(maxsize=None)
def window(name):
    return build_coxeter_quiver(coxeter_data(rs(name), WORDS[name]))


class TestMutationAgainstOracle:
    @given(st.sampled_from(sorted(WORDS)), st.data())
    @settings(max_examples=30, deadline=None)
    def test_quiver_sequences(self, name, data):
        q = oracle = window(name).quiver
        interior = sorted(
            v for v in q.vertices if q.rmin + q.margin < v[1] < q.rmax - q.margin
        )
        for v in data.draw(st.lists(st.sampled_from(interior), min_size=1, max_size=8)):
            q, oracle = mutate_quiver(q, v), oracle_mutate_quiver(oracle, v)
            assert q == oracle

    @given(st.sampled_from(sorted(WORDS)), st.booleans(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_reference_sequences(self, name, stabilized, data):
        """Any vertex, margin violations included: equal seeds or equal errors."""
        seed = initial_seed(window(name), stabilized=stabilized)
        everything = sorted(seed.ref_quiver.vertices)
        steps = st.lists(st.sampled_from(everything), min_size=1, max_size=6)
        for l in data.draw(steps):
            got = outcome(mutate_reference, seed, l)
            expected = outcome(oracle_mutate_reference, seed, l)
            if isinstance(expected, tuple):
                assert got == expected
                break
            assert got == expected
            seed = got

    @pytest.mark.parametrize("name", ["A2", "A3", "D4", "E6"])
    def test_walks_against_matrix_mutation(self, name):
        """40 seeded steps on the mutable interior of the default window:
        after each, ``mutate_quiver`` and one working quiver mutated in
        place all along give the oracle's exchange matrix."""
        q = build_coxeter_quiver(
            coxeter_data(rs(name), tuple(range(1, rs(name).n + 1)))
        ).quiver
        interior = sorted(
            v for v in q.vertices
            if v not in q.frozen and q.rmin + q.margin < v[1] < q.rmax - q.margin
        )
        work = quiver_mod._WorkingQuiver(q)
        b = exchange_matrix(q)
        rng = random.Random(f"walk {name}")
        cancelled = 0
        for _ in range(40):
            v = rng.choice(interior)
            ins = [a for (a, c), x in b.items() if c == v and x > 0]
            outs = [c for (a, c), x in b.items() if a == v and x > 0]
            # some path a -> v -> c faces an arrow c -> a: a 2-cycle to cancel
            cancelled += any(b.get((a, c), 0) < 0 for a in ins for c in outs)
            expected = matrix_mutate(b, v)
            q = mutate_quiver(q, v)
            work.mutate(v)
            assert exchange_matrix(q) == expected
            assert exchange_matrix(work.freeze()) == expected
            pairs = {(a, c): m for a, row in work.out.items() for c, m in row.items()}
            assert pairs == {
                (a, c): m for c, row in work.inn.items() for a, m in row.items()
            }
            b = expected
        assert cancelled

    def test_error_paths(self):
        cw = window("A3")
        q = cw.quiver
        frozen = sorted(cw.gamma.frozen)
        top = max(q.vertices, key=lambda v: v[1])
        cases = [(cw.gamma, v) for v in frozen] + [(q, top), (q, (1, 1)), (q, (9, 0))]
        for quiver, v in cases:
            expected = outcome(oracle_mutate_quiver, quiver, v)
            assert isinstance(expected, tuple), v
            assert outcome(mutate_quiver, quiver, v) == expected
        # on the reference: a frozen l, a margin violation, a missing l
        seed = replace(initial_seed(cw, stabilized=False), ref_quiver=cw.gamma)
        for l in (frozen[0], top, (9, 0)):
            expected = outcome(oracle_mutate_reference, seed, l)
            assert isinstance(expected, tuple), l
            assert outcome(mutate_reference, seed, l) == expected


# ---------------------------------------------------------------------------
# green sweeps
# ---------------------------------------------------------------------------


def sweep_seeds(name, sweeps, stabilized):
    cw = build_coxeter_quiver(
        coxeter_data(rs(name), WORDS.get(name, (1, 2))), depth_below=10 + 2 * sweeps
    )
    seed = initial_seed(cw, stabilized=stabilized)
    if stabilized:
        # the stabilized reference has no greens; carry the stabilized
        # g-vectors over the Coxeter reference, so long vectors move
        seed = replace(seed, ref_quiver=cw.quiver)
    return seed


class TestSweepAgainstOracle:
    @pytest.mark.parametrize("stabilized", [False, True])
    @pytest.mark.parametrize(
        "name, sweeps", [("A2", 6), ("A3", 6), ("D4", 6), ("E6", 3)]
    )
    def test_sweeps(self, name, sweeps, stabilized):
        seed = oracle = sweep_seeds(name, sweeps, stabilized)
        for m in range(1, sweeps + 1):
            seed, oracle = green_sweep(seed), oracle_green_sweep(oracle)
            assert seed == oracle, m

    def test_stabilized_reference_has_no_greens(self):
        seed = initial_seed(window("A3"))
        expected = outcome(oracle_green_sweep, seed)
        assert expected == (ValueError, "reference quiver has no green vertices")
        assert outcome(green_sweep, seed) == expected

    def test_sweep_errors(self):
        # a frozen green in the core, and a green on the window margin
        cw = window("A3")
        frozen_ref = replace(initial_seed(cw, stabilized=False), ref_quiver=cw.gamma)
        shallow = initial_seed(
            build_coxeter_quiver(coxeter_data(rs("A3"), WORDS["A3"]), depth_below=2),
            stabilized=False,
        )
        for seed, kind in ((frozen_ref, ValueError), (shallow, MarginError)):
            expected = outcome(oracle_green_sweep, seed)
            assert isinstance(expected, tuple) and expected[0] is kind
            assert outcome(green_sweep, seed) == expected

    def test_recolor(self):
        q = mutate_quiver(window("D4").quiver, window("D4").quiver.greens()[0])
        assert recolor_from_arrows(q) == oracle_recolor(q)


# ---------------------------------------------------------------------------
# the frozen form
# ---------------------------------------------------------------------------


def random_arrows(seed):
    """Vertices and a flat arrow map over a pool that reaches outside them,
    with multiplicities down to -1; no loop, and no pair both ways."""
    rng = random.Random(seed)
    pool = [(i, r) for i in range(1, 5) for r in range(-8, 7)]
    vertices = set(rng.sample(pool, 30))
    arrows = {}
    for _ in range(rng.randint(0, 90)):
        a, b = rng.sample(pool, 2)
        arrows[(a, b)] = rng.choice([0, -1]) if (b, a) in arrows else rng.choice(
            [-1, 0, 1, 1, 2, 3]
        )
    return rng, vertices, arrows


def kept(vertices, arrows):
    return {
        (a, b): m
        for (a, b), m in arrows.items()
        if m > 0 and a in vertices and b in vertices
    }


class TestMakeAndFreeze:
    @pytest.mark.parametrize("seed", range(30))
    def test_adjacency_order_is_sorted_order(self, seed):
        a3 = rs("A3")
        base = basic_quiver(a3, -6, 4, bipartition_class(a3))
        _, vertices, arrows = random_arrows(seed)
        expected = tuple(sorted(kept(vertices, arrows).items()))
        assert _make(base, vertices=vertices, out=grouped(arrows)).arrows == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_first_loop_or_2_cycle_is_named(self, seed):
        a3 = rs("A3")
        base = basic_quiver(a3, -6, 4, bipartition_class(a3))
        rng, vertices, arrows = random_arrows(seed)
        inside = sorted(vertices)
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(inside, 2)
            if rng.random() < 0.5:
                arrows[(a, a)] = 1
            else:
                arrows[(a, b)], arrows[(b, a)] = 1, rng.randint(1, 2)
        filtered = kept(vertices, arrows)
        a, b = next((a, b) for a, b in sorted(filtered) if a == b or (b, a) in filtered)
        message = f"loop at {a}" if a == b else f"2-cycle between {a} and {b}"
        with pytest.raises(ValueError) as exc:
            _make(base, vertices=vertices, out=grouped(arrows))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "arrow, message",
        [
            (((2, -9), (2, -9)), "loop at (2, -9)"),
            # against the vertical up-arrow (2, -11) -> (2, -9)
            (((2, -9), (2, -11)), "2-cycle between (2, -11) and (2, -9)"),
        ],
    )
    def test_freeze_refuses_a_loop_or_a_2_cycle(self, arrow, message):
        work = quiver_mod._WorkingQuiver(window("A3").quiver)
        assert work.freeze() == window("A3").quiver
        work._set(*arrow, 1)
        with pytest.raises(ValueError) as exc:
            work.freeze()
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# compute once
# ---------------------------------------------------------------------------


@pytest.fixture()
def freezes(monkeypatch):
    """Counts the frozen quivers built (every one goes through _make)."""
    calls = []
    real = quiver_mod._make

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(quiver_mod, "_make", counting)
    return calls


class TestComputeOnce:
    def test_build_freezes_once(self, freezes):
        cw = build_coxeter_quiver(coxeter_data(rs("D4"), WORDS["D4"]))
        assert len(reds(cw.quiver)) == 12
        # only the window is frozen, with no basic quiver before it; the
        # core waits for its first use and is then built once
        assert len(freezes) == 1
        assert cw.gamma is cw.gamma
        assert len(freezes) == 2

    def test_knit_computes_each_gvector_once(self, monkeypatch):
        q = build_coxeter_quiver(
            coxeter_data(rs("E8"), tuple(range(1, 9))), depth_below=8
        ).quiver
        shifts = []
        real = gvector.shifted

        def counting(g, s):
            shifts.append(s)
            return real(g, s)

        monkeypatch.setattr(gvector, "shifted", counting)

        class Reads(dict):
            """The adjacency map, counting its lookups."""

            def get(self, key, default=None):
                reads[key] += 1
                return super().get(key, default)

        reads = Counter()
        q.__dict__["out"] = Reads(q.out)
        g = knit_gvectors(q)
        assert set(g) == q.vertices
        # a vertex with one above it reads that one through one shift:
        # its own value, or a green's sum of m * g(w) - shift(above) in
        # one dict; a top vertex is a unit vector, and no vertex shares
        # its dict with another
        below = [v for v in q.vertices if (v[0], v[1] + 2) in q.vertices]
        assert shifts == [-1] * len(below)
        assert len({id(x) for x in g.values()}) == len(q.vertices)
        # one scan, not one per round: a green reads its own arrows twice,
        # and a red's are read for itself and for the green under it
        assert max(reads.values()) <= 2
        assert sum(reads.values()) < 2 * len(q.vertices)

    def test_green_sweep_freezes_once(self, freezes):
        seed = initial_seed(window("E6"), stabilized=False)
        assert len(seed.ref_quiver.greens()) == 36
        del freezes[:]
        green_sweep(seed)
        assert len(freezes) == 1

    def test_green_sweep_builds_no_gvec(self):
        work = initial_seed(window("E6"), stabilized=False).thaw()
        held = dict(work.g)
        green_sweep(work)
        # the 36 greens moved their holders' g-vector dicts in place
        assert sum(len(comp) > 1 for comp in work.g.values()) == 36
        assert all(work.g[v] is comp for v, comp in held.items())
        frozen = work.freeze()
        # one new dict per vertex, equal to the working one
        assert dict(frozen.g) == work.g
        ids = {id(comp) for comp in work.g.values()} | {id(g) for _, g in frozen.g}
        assert len(ids) == 2 * len(work.g)

    def test_seed_mutate_computes_each_cvector_once(self, monkeypatch):
        calls = []
        real = seed_mod.cvector

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(seed_mod, "cvector", counting)
        vertices = ["1,-2", "2,-3", "1,-4", "3,-4"]
        args = ["seed", "mutate", "--type", "A3", "--json"]
        for v in vertices:
            args += ["--vertex", v]
        cli(args)
        assert calls == [tuple(map(int, v.split(","))) for v in vertices]

    def test_seed_sweep_thaws_the_reference_once(self, monkeypatch):
        thawed = []
        real = quiver_mod._WorkingQuiver.__init__

        def counting(self, q):
            thawed.append(q)
            real(self, q)

        monkeypatch.setattr(quiver_mod._WorkingQuiver, "__init__", counting)
        args = ["seed", "sweep", "--type", "D4", "--sweeps", "5", "--json"]
        result = cli(args)
        assert len(result.stdout.splitlines()) == 5
        # the window build thaws nothing; all five sweeps share one thaw of
        # the reference, the window's own quiver
        assert len(thawed) == 1
        assert thawed[0].greens()

    def test_seed_mutate_freezes_once(self, freezes):
        args = ["seed", "mutate", "--type", "E6", "--json"]
        for i, top, count in ((1, -2, 8), (2, -3, 6), (3, -3, 7)):
            for k in range(count):
                args += ["--vertex", f"{i},{top - 4 * k}"]
        result = cli(args)
        assert len(result.stdout.splitlines()) == 21
        # the window, the stabilized reference, and the one freeze of the
        # seed quiver after all 21 mutations
        assert len(freezes) == 3
