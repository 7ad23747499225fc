"""Window and depth stability: a finite window's answer is the infinite
quiver's only if a larger window gives the same one.

Each Coxeter window is built at two depths below the band, and every
window-dependent table must agree on the vertices the two share: the
knitted and braid g-vectors, the Q-variable labels, and the g-vectors a
green sweep reaches by mutation.  Q-variables are compared the same way
across truncation depths.  ``cvector`` is left out: it has window-edge
vertices where the default window answers and no larger window agrees.
"""

import random

import pytest

from clusterqq.gvector import braid_gvectors, f_labels, knit_gvectors
from clusterqq.qseries import QEvaluator
from clusterqq.quiver import build_coxeter_quiver
from clusterqq.rootsys import RootSystem, coxeter_data, longest_element
from clusterqq.seed import green_sweep, initial_seed

TYPES = ["A1", "A2", "A3", "A4", "D4", "D5", "E6"]
DEPTHS = (8, 12)
SWEEPS = 3


def shuffled_datum(name):
    r = RootSystem.from_name(name)
    word = list(range(1, r.n + 1))
    random.Random(name).shuffle(word)
    return coxeter_data(r, word)


def windows(name, extra=0):
    """The window of the shuffled word at each depth below, plus ``extra``."""
    datum = shuffled_datum(name)
    return [build_coxeter_quiver(datum, depth_below=d + extra) for d in DEPTHS]


def assert_agree_on_common(small: dict, big: dict):
    common = small.keys() & big.keys()
    assert common
    assert [v for v in sorted(common) if small[v] != big[v]] == []


@pytest.mark.parametrize("name", TYPES)
class TestWindowStability:
    def test_knit_gvectors(self, name):
        small, big = windows(name)
        assert small.quiver.vertices < big.quiver.vertices
        assert_agree_on_common(knit_gvectors(small.quiver), knit_gvectors(big.quiver))

    def test_braid_gvectors(self, name):
        small, big = windows(name)
        assert_agree_on_common(braid_gvectors(small), braid_gvectors(big))

    def test_f_labels(self, name):
        small, big = windows(name)
        labels = [f_labels(cw, knit_gvectors(cw.quiver)) for cw in (small, big)]
        assert labels[0].keys() == small.quiver.vertices
        assert {v: labels[1].get(v) for v in labels[0]} == labels[0]

    def test_green_sweep_gvectors(self, name):
        # as in ``seed sweep``, the window grows by two per sweep
        seeds = [
            initial_seed(cw, stabilized=False)
            for cw in windows(name, extra=2 * SWEEPS)
        ]
        for _ in range(SWEEPS):
            for seed in seeds:
                green_sweep(seed)
            assert_agree_on_common(seeds[0].g, seeds[1].g)


@pytest.mark.parametrize("name, depth", [("A2", 2), ("A3", 2), ("D4", 2), ("A3", 3)])
def test_q_bar_is_stable_in_the_depth(name, depth):
    r = RootSystem.from_name(name)
    shallow, deep = QEvaluator(r, depth=depth), QEvaluator(r, depth=depth + 1)
    w0 = longest_element(r).word
    for t in range(len(w0) + 1):
        for i in range(1, r.n + 1):
            for s in range(-1, 3):
                label = (w0[:t], i, s)
                assert shallow.q_bar(*label).matches(deep.q_bar(*label)), label
