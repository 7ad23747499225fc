"""Spans and counts recorded around the package's public functions.

The tracer wraps functions from the outside: nothing in ``src/`` knows
about it.  A wrapper replaces the original wherever the program looks it
up — on its class for methods, and for module-level functions in every
``clusterqq`` module that holds a reference, because ``from .x import f``
copies the name into the importing module.  :meth:`Tracer.restore` puts
every original back, so untraced passes time the unmodified program.

Spans are kept in memory as parallel arrays (name, start, end, parent)
and written out after the pass.  A span's self time is its duration minus
the durations of its child spans; the program is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

# metric name -> (module, attribute path); each becomes a timed span
SPANS = {
    "rootsys.weyl_from_word": ("clusterqq.rootsys", "weyl_from_word"),
    "quiver.build_coxeter_quiver": ("clusterqq.quiver", "build_coxeter_quiver"),
    "quiver.mutate_quiver": ("clusterqq.quiver", "mutate_quiver"),
    "gvector.knit_gvectors": ("clusterqq.gvector", "knit_gvectors"),
    "gvector.braid_gvectors": ("clusterqq.gvector", "braid_gvectors"),
    "gvector.blocks_gvectors": ("clusterqq.gvector", "blocks_gvectors"),
    "gvector.sweep_gvectors": ("clusterqq.gvector", "sweep_gvectors"),
    "seed.green_sweep": ("clusterqq.seed", "green_sweep"),
    "seed.mutate_seed": ("clusterqq.seed", "mutate_seed"),
    "seed.cvector": ("clusterqq.seed", "cvector"),
    "qseries.KSeries.mul": ("clusterqq.qseries", "KSeries.__mul__"),
    "qseries.KSeries.inverse": ("clusterqq.qseries", "KSeries.inverse"),
    "qseries.KSeries.matches": ("clusterqq.qseries", "KSeries.matches"),
    "qseries.QEvaluator.q_raw": ("clusterqq.qseries", "QEvaluator.q_raw"),
    "qseries.QEvaluator.q_bar": ("clusterqq.qseries", "QEvaluator.q_bar"),
    "qseries.qq_check": ("clusterqq.qseries", "qq_check"),
    "qseries.qqstar_check": ("clusterqq.qseries", "qqstar_check"),
    "wronskian.check_wronskian": ("clusterqq.wronskian", "check_wronskian"),
    "wronskian.build_wronskian": ("clusterqq.wronskian", "build_wronskian"),
    "wronskian.SeriesMatrix.minor": ("clusterqq.wronskian", "SeriesMatrix.minor"),
    "wronskian.SeriesMatrix.det": ("clusterqq.wronskian", "SeriesMatrix.det"),
    "wronskian.rational_minor": ("clusterqq.wronskian", "rational_minor"),
    "wronskian.bruhat_check": ("clusterqq.wronskian", "bruhat_check"),
    "sl2.ptolemy_check": ("clusterqq.sl2", "ptolemy_check"),
    "sl2.segment_qchar": ("clusterqq.sl2", "segment_qchar"),
    "sl2.exchange_relations_at": ("clusterqq.sl2", "exchange_relations_at"),
    "sl2.factorize": ("clusterqq.sl2", "factorize"),
    "cli.main": ("clusterqq.cli", "main"),
}

# metric name -> (module, attribute path); counted, not timed
COUNTS = {
    "rootsys.root_coords2": ("clusterqq.rootsys", "RootSystem.root_coords2"),
}

LAYERS = ("rootsys", "quiver", "gvector", "seed", "qseries", "wronskian",
          "sl2", "cli")

PASS_SPAN = "bench.pass"


def resolve(module: str, path: str):
    """(owner, attribute, original) for ``module`` and a dotted ``path``."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if outer else getattr(owner, attr)
    return owner, attr, original


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    child = [0.0] * len(starts)
    for k, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[k] - starts[k]
    return [ends[k] - starts[k] - child[k] for k in range(len(starts))]


class Tracer:
    """Installs wrappers, records spans and counts, and restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.max_terms = 0
        self._saved: list = []
        self._weights: dict = {}
        self._evaluators: dict = {}
        self._keys: set = set()

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def span(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers for the counts that need a look at arguments or results --

    def _terms(self, series) -> None:
        if len(series.terms) > self.max_terms:
            self.max_terms = len(series.terms)

    def _mul(self, args, result) -> None:
        a, b = args
        self.counts["qseries.KSeries.mul.term_pairs"] += len(a.terms) * len(b.terms)
        self.counts["qseries.KSeries.mul.terms_kept"] += len(result.terms)
        self._terms(result)

    def _matches(self, args, result) -> None:
        a, b = args
        if a.is_zero() and b.is_zero():
            self.counts["qseries.KSeries.matches.vacuous"] += 1

    def _q_raw(self, args, result) -> None:
        ev, word, i, r = args
        word = tuple(word)
        # the memo key is the weight w(ϖ_i); computed with the original,
        # unwrapped functions so the counts stay those of the program
        weight = self._weights.get((ev.rs, word, i))
        if weight is None:
            rootsys = sys.modules["clusterqq.rootsys"]
            weight = self._original_weyl(ev.rs, word).apply(
                rootsys.fundamental_weight(ev.rs, i)
            ).coords2
            self._weights[(ev.rs, word, i)] = weight
        # holding each evaluator keeps its id unique for the whole pass
        self._evaluators.setdefault(id(ev), ev)
        self._keys.add((id(ev), weight, r))
        self._terms(result)

    def _bruhat(self, args, result) -> None:
        self.counts["wronskian.bruhat.trials"] += result["trials"]
        self.counts["wronskian.bruhat.draws"] += result["trials"] + result["rejected"]

    # -- install / restore ---------------------------------------------------

    def _replace(self, module: str, path: str, make) -> None:
        owner, attr, original = resolve(module, path)
        wrapper = make(original)
        if "." in path:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if name != "clusterqq" and not name.startswith("clusterqq."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        observers = {
            "qseries.KSeries.mul": self._mul,
            "qseries.KSeries.inverse": lambda args, res: self._terms(res),
            "qseries.KSeries.matches": self._matches,
            "qseries.QEvaluator.q_raw": self._q_raw,
            "wronskian.bruhat_check": self._bruhat,
        }
        self._original_weyl = resolve(*SPANS["rootsys.weyl_from_word"])[2]
        for name, (module, path) in SPANS.items():
            self._replace(
                module, path,
                lambda fn, name=name: self.span(name, fn, observers.get(name)),
            )
        for name, (module, path) in COUNTS.items():
            self._replace(module, path, lambda fn, name=name: self.counter(name, fn))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-span calls and self time, per-layer self time, counts."""
        selfs = self_times(self.start, self.end, self.parent)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for k, nid in enumerate(self.name):
            calls[self.names[nid]] += 1
            self_s[self.names[nid]] += selfs[k]
        out: dict = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTS:
            out[f"{name}.calls"] = self.counts[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer
            )
        out["bench.self_s"] = self_s[PASS_SPAN]
        pairs = self.counts["qseries.KSeries.mul.term_pairs"]
        kept = self.counts["qseries.KSeries.mul.terms_kept"]
        out["qseries.KSeries.mul.term_pairs"] = pairs
        out["qseries.KSeries.mul.terms_kept"] = kept
        out["qseries.KSeries.mul.keep_ratio"] = kept / pairs if pairs else 0.0
        out["qseries.KSeries.matches.vacuous"] = self.counts[
            "qseries.KSeries.matches.vacuous"
        ]
        out["qseries.max_terms"] = self.max_terms
        q_calls = calls["qseries.QEvaluator.q_raw"]
        out["qseries.QEvaluator.q_raw.distinct"] = len(self._keys)
        out["qseries.QEvaluator.memo_hit_ratio"] = (
            1 - len(self._keys) / q_calls if q_calls else 0.0
        )
        draws = self.counts["wronskian.bruhat.draws"]
        out["wronskian.bruhat.accept_ratio"] = (
            self.counts["wronskian.bruhat.trials"] / draws if draws else 0.0
        )
        out["trace.spans"] = len(self.start)
        return out

    def write(self, stream, pass_id: int) -> None:
        """One tab-separated line per span: pass, name, start, end, parent."""
        for k, nid in enumerate(self.name):
            stream.write(
                f"{pass_id}\t{self.names[nid]}\t{self.start[k]:.9f}\t"
                f"{self.end[k]:.9f}\t{self.parent[k]}\n"
            )
