"""Diagram automorphisms: every layer commutes with them.

A permutation σ of the Dynkin nodes that keeps the Cartan matrix relabels
everything built from it.  The Coxeter window of the word σ(c) is σ of the
window of c, arrows and colours; its knitted, braid and block g-vectors,
its f-labels, its green-sweep tables and the c-vectors of its initial
seed are σ of those of c; and the Q-variable at (σw, σi, r) is σ of the
one at (w, i, r), with σ permuting the bracket coordinates and the Ψ
nodes.  A node-indexing slip that keeps each type self-consistent passes
the pinned outputs of one labelling, but not these checks.

Nodes are numbered as in ``rootsys``: A_n is the chain, D_n the chain
1..n-1 with n on n-2, E6 the chain 1-3-4-5-6 with 2 on 4.
"""

import itertools

import pytest

from clusterqq import gvector
from clusterqq.qseries import KSeries, QEvaluator
from clusterqq.quiver import build_coxeter_quiver
from clusterqq.rootsys import coxeter_data, longest_element, weyl_from_word
from clusterqq.seed import cvector, initial_seed
from oracles import rs


def perm(*cycles):
    """The node permutation of ``cycles``, as a dict (identity elsewhere)."""
    sigma = {}
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
    return sigma


def act(sigma: dict, i: int) -> int:
    return sigma.get(i, i)


# (type, name, σ): the diagram automorphisms checked, in code numbering
AUTOMORPHISMS = [
    ("A3", "reversal", perm((1, 3))),
    ("A5", "reversal", perm((1, 5), (2, 4))),
    ("D4", "spinors", perm((3, 4))),
    ("D4", "triality", perm((1, 3, 4))),
    ("D5", "spinors", perm((4, 5))),
    ("E6", "reversal", perm((1, 6), (3, 5))),
]
IDS = [f"{name}-{what}" for name, what, _ in AUTOMORPHISMS]

# A3's 1 <-> 2 moves an end node to the middle: no automorphism
NOT_AN_AUTOMORPHISM = ("A3", perm((1, 2)))


def keeps_cartan(r, sigma) -> bool:
    return all(
        r.cartan[act(sigma, i) - 1][act(sigma, j) - 1] == r.cartan[i - 1][j - 1]
        for i in range(1, r.n + 1)
        for j in range(1, r.n + 1)
    )


def coxeter_datums(r):
    """Every Coxeter element of ``r``, once each, with a word for it."""
    seen = {}
    for word in itertools.permutations(range(1, r.n + 1)):
        seen.setdefault(coxeter_data(r, word), word)
    return list(seen.values())


def vertex(sigma, v):
    return (act(sigma, v[0]), v[1])


def window_image(sigma, q):
    """(vertices, arrows, colours) of σ applied to the quiver ``q``."""
    return (
        {vertex(sigma, v) for v in q.vertices},
        {(vertex(sigma, a), vertex(sigma, b), m) for (a, b), m in q.arrows},
        {(vertex(sigma, v), c) for v, c in q.colors},
    )


def window_parts(q):
    return window_image({}, q)


def gvec_image(sigma, table):
    return {
        vertex(sigma, v): {vertex(sigma, u): c for u, c in g.items()}
        for v, g in table.items()
    }


def series_image(sigma, s):
    """σ of a series: its terms with permuted brackets and Ψ nodes, and
    its cutoff."""

    def key(k):
        lam2, psi = k
        out = [0] * len(lam2)
        for j, x in enumerate(lam2, 1):
            out[act(sigma, j) - 1] = x
        return tuple(out), tuple(sorted(((act(sigma, i), h), e) for (i, h), e in psi))

    return {key(k): c for k, c in s.terms.items()}, s.cutoff2


def windows(r, word, sigma, depth_below=4):
    """The Coxeter windows of ``word`` and of its image σ(word)."""
    image = tuple(act(sigma, i) for i in word)
    return tuple(
        build_coxeter_quiver(coxeter_data(r, w), depth_below=depth_below)
        for w in (word, image)
    )


GVECTOR_METHODS = {
    "knit": lambda cw: gvector.knit_gvectors(cw.quiver),
    "braid": gvector.braid_gvectors,
    "blocks": gvector.blocks_gvectors,
}


class TestWindows:
    @pytest.mark.parametrize("name, what, sigma", AUTOMORPHISMS, ids=IDS)
    def test_sigma_is_an_automorphism(self, name, what, sigma):
        assert keeps_cartan(rs(name), sigma)

    def test_the_negative_control_is_none(self):
        name, sigma = NOT_AN_AUTOMORPHISM
        assert not keeps_cartan(rs(name), sigma)

    @pytest.mark.parametrize(
        "name, count", [("A3", 4), ("A5", 16), ("D4", 8), ("D5", 16), ("E6", 32)]
    )
    def test_every_coxeter_element_once(self, name, count):
        # 2^(edges): one Coxeter element per orientation of the Dynkin tree
        assert len(coxeter_datums(rs(name))) == count

    @pytest.mark.parametrize("name, what, sigma", AUTOMORPHISMS, ids=IDS)
    def test_window_commutes(self, name, what, sigma):
        r = rs(name)
        for word in coxeter_datums(r):
            cw, image = windows(r, word, sigma)
            assert window_parts(image.quiver) == window_image(sigma, cw.quiver), word

    def test_window_of_the_negative_control_differs(self):
        name, sigma = NOT_AN_AUTOMORPHISM
        r = rs(name)
        for word in coxeter_datums(r):
            cw, image = windows(r, word, sigma)
            assert window_parts(image.quiver) != window_image(sigma, cw.quiver), word


class TestGVectors:
    @pytest.mark.parametrize("method", sorted(GVECTOR_METHODS))
    @pytest.mark.parametrize("name, what, sigma", AUTOMORPHISMS, ids=IDS)
    def test_gvectors_commute(self, name, what, sigma, method):
        r = rs(name)
        build = GVECTOR_METHODS[method]
        for word in coxeter_datums(r):
            cw, image = windows(r, word, sigma)
            assert gvec_image({}, build(image)) == gvec_image(sigma, build(cw)), word


def cvector_image(sigma, seed, v):
    """σ of the c-vector of ``seed`` at v, or the type of the error it
    raises there."""
    try:
        c = cvector(seed, v)
    except ValueError as exc:
        return type(exc)
    return {vertex(sigma, u): x for u, x in c.items()}


def tables_image(sigma, cw):
    """σ of the ``f_labels`` of ``cw``, of its green-sweep tables and of
    the c-vectors of its initial stabilized seed.  A label is read as
    (Weyl element of its word, node, exponent): the letters of one slice
    commute and come out in node order, so the words themselves differ."""
    r, seed = cw.datum.rs, initial_seed(cw)
    labels = gvector.f_labels(cw, gvector.knit_gvectors(cw.quiver))
    return {
        "labels": {
            vertex(sigma, v): (
                weyl_from_word(r, tuple(act(sigma, j) for j in w)), act(sigma, i), h
            )
            for v, (w, i, h) in labels.items()
        },
        "sweeps": [gvec_image(sigma, t) for t in gvector.sweep_gvectors(cw, 3)],
        "cvectors": {
            vertex(sigma, v): cvector_image(sigma, seed, v) for v in cw.quiver.vertices
        },
    }


# window vertices summed over every Coxeter element, so none is skipped
WINDOW_VERTICES = dict(zip(IDS, [94, 848, 306, 306, 968, 3198]))


class TestWindowTables:
    @pytest.mark.parametrize("name, what, sigma", AUTOMORPHISMS, ids=IDS)
    def test_tables_commute(self, name, what, sigma):
        r = rs(name)
        vertices = 0
        for word in coxeter_datums(r):
            cw, image = windows(r, word, sigma)
            assert tables_image({}, image) == tables_image(sigma, cw), word
            vertices += len(cw.quiver.vertices)
        assert vertices == WINDOW_VERTICES[f"{name}-{what}"]

    def test_negative_control_fails(self):
        # every window differs in every table, and 82 of the 94 c-vector
        # outcomes differ
        name, sigma = NOT_AN_AUTOMORPHISM
        r = rs(name)
        same = []
        for word in coxeter_datums(r):
            cw, image = windows(r, word, sigma)
            got, want = tables_image({}, image), tables_image(sigma, cw)
            assert all(got[t] != want[t] for t in want), word
            cvectors = got["cvectors"]
            same += [cvectors.get(v) == c for v, c in want["cvectors"].items()]
        assert (len(same), same.count(False)) == (94, 82)


def q_bar_mismatches(name, sigma, same, depth=3, length=4):
    """(compared, failed) over the prefixes w of w0 of length <= ``length``,
    every node i and r in -1, 0, 1: is ``same(σ Q̲(w, i, r), Q̲(σw, σi, r))``?"""
    r = rs(name)
    ev = QEvaluator(r, depth=depth)
    w0 = longest_element(r).word
    compared, failed = 0, []
    for t in range(length + 1):
        w = w0[:t]
        image = tuple(act(sigma, j) for j in w)
        for i in range(1, r.n + 1):
            for h in (-1, 0, 1):
                compared += 1
                terms, cutoff2 = series_image(sigma, ev.q_bar(w, i, h))
                got = ev.q_bar(image, act(sigma, i), h)
                if not same(KSeries(r, terms, cutoff2), got):
                    failed.append((w, i, h))
    return compared, failed


def identical(a, b) -> bool:
    return series_image({}, a) == series_image({}, b)


class TestQVariables:
    @pytest.mark.parametrize(
        "name, sigma, compared",
        [
            ("A3", perm((1, 3)), 45),
            ("D4", perm((1, 3, 4)), 60),
            ("E6", perm((1, 6), (3, 5)), 90),
        ],
        ids=["A3-reversal", "D4-triality", "E6-reversal"],
    )
    def test_q_bar_commutes(self, name, sigma, compared):
        # term for term, cutoff included
        assert q_bar_mismatches(name, sigma, identical) == (compared, [])

    def test_negative_control_fails(self):
        # 24 of 45 differ even above the common cutoff; 6 more differ in
        # their cutoff only, since the renormalizing bracket moves it
        compared, failed = q_bar_mismatches(*NOT_AN_AUTOMORPHISM, KSeries.matches)
        assert (compared, len(failed)) == (45, 24)
        compared, failed = q_bar_mismatches(*NOT_AN_AUTOMORPHISM, identical)
        assert (compared, len(failed)) == (45, 30)
