"""Command-line interface: exit codes, JSON certificates, determinism."""

import hashlib
import importlib.metadata
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from operator import add
from pathlib import Path

import pytest

import clusterqq
from clusterqq.cli import Reporter
from clusterqq.gvector import blocks_gvectors, braid_gvectors, knit_gvectors
from clusterqq.qseries import FIELD_BITS, QEvaluator, bracket, omega_lam2
from clusterqq.quiver import MAX_WINDOW_VERTICES, quiver_to_json
from clusterqq.rootsys import RootSystem, coxeter_data
from oracles import cli, default_window, json_lines


class TestUsage:
    def test_no_arguments_shows_usage(self):
        result = cli([], 2)
        assert "Usage" in result.output

    def test_unknown_type_is_usage_error(self):
        cli("qq verify --type Z9", 2)

    def test_bad_window_is_usage_error(self):
        cli("qq verify --type A1 --window oops", 2)

    def test_bad_coxeter_word_is_usage_error(self):
        cli("gvec compare --type A2 --coxeter 1,1", 2)

    def test_ptolemy_precondition_is_usage_error(self):
        cli("sl2 ptolemy 3 1 1 2", 2)

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_ptolemy_depth_below_one_is_usage_error(self, depth):
        # at depth <= 0 both sides keep no terms: a vacuous pass
        args = ["sl2", "ptolemy", "-inf", "0", "1", "+inf", "--depth", depth]
        result = cli([*args, "--json"], 2)
        assert '"ok"' not in result.output

    @pytest.mark.parametrize("monomial", ["", "   ", "2:0", "1:1 1:-1"])
    def test_unit_monomial_is_usage_error(self, monomial):
        # the unit factors into no segments: a vacuous pass
        result = cli(["sl2", "factor", monomial, "--json"], 2)
        assert "certificates passed" not in result.output
        assert '"relation"' not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            # too shallow a window: MarginError while building it
            ["gvec", "compare", "--type", "E6", "--depth-below", "0"],
            ["gvec", "knit", "--type", "D4", "--depth-below", "-3"],
            # no such vertex: ValueError, not in the window
            ["seed", "mutate", "--type", "E6", "--vertex", "1,-40"],
            ["seed", "mutate", "--type", "E6", "--vertex", "9,0"],
            # an empty run would certify nothing
            ["seed", "sweep", "--type", "D4", "--sweeps", "0"],
            ["seed", "sweep", "--type", "D4", "--sweeps", "-1"],
            # no room below the green band: MarginError on the last sweep
            ["seed", "sweep", "--type", "A2", "--depth-below", "0", "--sweeps", "4"],
            ["seed", "sweep", "--type", "E6", "--depth-below", "-2"],
            ["quiver", "build", "--type", "A2", "--margin", "-3"],
        ],
    )
    def test_window_precondition_is_usage_error(self, args):
        result = cli(args, 2)
        assert "Traceback" not in result.output
        assert "certificates passed" not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["wronskian", "check", "--type", "D4"],
            ["wronskian", "check", "--type", "A2", "--system-word", "5"],
            ["wronskian", "check", "--type", "A2", "--system-word", "x"],
            ["wronskian", "check", "--type", "A2", "--depth", "0"],
            # empty runs would certify nothing
            ["wronskian", "check", "--type", "A2", "--r", "3..1"],
            ["bruhat", "verify", "--n", "3", "--trials", "0"],
            ["bruhat", "verify", "--n", "3", "--trials", "-2"],
            ["bruhat", "verify", "--n", "1"],
            # above MAX_RANK, the documented input range: refused before
            # any series or minor work
            ["bruhat", "verify", "--n", "9"],
            ["bruhat", "verify", "--n", "10"],
            ["wronskian", "check", "--type", "A9"],
            ["wronskian", "check", "--type", "A10", "--r", "0..0"],
        ],
    )
    def test_minor_precondition_is_usage_error(self, args):
        result = cli([*args, "--json"], 2)
        assert "Traceback" not in result.output
        assert "certificates passed" not in result.output
        assert '"relation"' not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            # an empty window would certify nothing
            ["qq", "verify", "--type", "A1", "--window", "3..1"],
            # depth 0 leaves no term above the cutoff
            ["qq", "verify", "--type", "A1", "--depth", "0"],
            ["qqstar", "verify", "--type", "A3", "--depth", "0"],
            ["qvar", "eval", "--type", "A2", "--i", "1", "--r", "0", "--depth", "0"],
            # letters and nodes outside 1..n, a word that is not a word
            ["qvar", "eval", "--type", "A2", "--word", "9", "--i", "1", "--r", "0"],
            ["qvar", "eval", "--type", "A2", "--word", "x", "--i", "1", "--r", "0"],
            ["qvar", "eval", "--type", "A2", "--i", "3", "--r", "0"],
            # the shift system needs a Coxeter word: each node once
            ["wronskian", "check", "--type", "A2", "--system-word", "1,2,1"],
            # a spectral exponent too large for a packed key field
            ["qvar", "eval", "--type", "A2", "--word", "1", "--i", "1",
             "--r", "2000000000"],
            ["qqstar", "verify", "--type", "A2", "--depth", "1",
             "--r", "1000000000"],
            # the empty word lists no node, so it is no Coxeter word either
            ["wronskian", "check", "--type", "A2", "--system-word", ""],
        ],
    )
    def test_series_precondition_is_usage_error(self, args):
        result = cli(args, 2)
        assert "Traceback" not in result.output
        assert "certificates passed" not in result.output
        assert '"relation"' not in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["seed", "mutate", "--type", "A2", "--vertex", "x"], "bad vertex"),
            (["sl2", "ptolemy", "foo", "0", "1", "2"], "bad segment end"),
            (["qqstar", "verify", "--type", "A1"], "needs rank >= 2"),
            (
                ["qvar", "eval", "--type", "A2", "--word", "1,1", "--i", "1",
                 "--r", "0"],
                "is not reduced",
            ),
        ],
    )
    def test_usage_error_names_its_cause(self, args, message):
        result = cli(args, 2)
        assert message in result.output
        assert "Traceback" not in result.output

    def test_seed_mutate_parses_every_vertex_before_mutating(self):
        # a malformed vertex after a good one: nothing is mutated or printed
        args = ["seed", "mutate", "--type", "A2", "--vertex", "2,-1",
                "--vertex", "x", "--json"]
        result = cli(args, 2)
        assert result.stdout == ""
        assert result.output.endswith("\n\nError: bad vertex 'x': expected i,r\n")


class TestBudget:
    def test_exceeded_budget_exits_three(self):
        cli("qq verify --type A2 --depth 3 --budget 0", 3)

    @pytest.mark.parametrize(
        "args",
        [
            ["wronskian", "check", "--type", "A3", "--r", "0..2"],
            ["bruhat", "verify", "--n", "4", "--trials", "2000"],
        ],
    )
    def test_single_certificate_command_stops_inside_its_run(self, args):
        # each emits one certificate at the very end; the budget is checked
        # inside the run, so nothing partial reaches stdout
        result = cli(args + ["--json", "--budget", "0"], 3)
        assert result.stdout == ""
        assert "time budget exceeded" in result.stderr

    def test_wronskian_budget_holds_while_the_matrices_are_built(self, monkeypatch):
        # the budget is checked before each build and each entry, so a
        # spent budget stops the run before its first Q-variable
        calls = []
        q_bar = QEvaluator.q_bar

        def counting(self, *args):
            calls.append(args)
            return q_bar(self, *args)

        monkeypatch.setattr(QEvaluator, "q_bar", counting)
        result = cli("wronskian check --type A3 --r 0..0 --budget 0", 3)
        assert "time budget exceeded" in result.stderr
        assert calls == []

    def test_huge_r_range_stops_within_its_budget(self):
        # the range is read lazily: a trillion bases cost nothing before
        # the first budget check, where a list of them would not fit
        from clusterqq import wronskian  # imported before the measurement

        assert wronskian.check_wronskian
        tracemalloc.start()
        try:
            result = cli(
                "wronskian check --type A2 --r 0..1000000000000 --budget 0 --json", 3
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stdout == ""
        assert "time budget exceeded" in result.stderr
        assert peak < 4 << 20  # a list of one million bases alone is 8 MB

    @pytest.mark.parametrize("budget", ["nan", "-1", "-0.5"])
    def test_nan_or_negative_budget_is_a_usage_error(self, budget):
        result = cli(["qq", "verify", "--type", "A2", "--budget", budget, "--json"], 2)
        assert result.stdout == ""
        assert f"bad budget {float(budget)}: need a number >= 0" in result.stderr

    def test_infinite_budget_never_fires(self):
        cli("bruhat verify --n 2 --trials 1 --budget inf")


# one short run of each of the 10 certifying commands
CERTIFYING = [
    ["seed", "sweep", "--type", "A2", "--sweeps", "1"],
    ["seed", "mutate", "--type", "A2", "--vertex", "1,-2"],
    ["gvec", "compare", "--type", "A2"],
    ["qq", "verify", "--type", "A1", "--depth", "1", "--window", "0..0"],
    ["qqstar", "verify", "--type", "A2", "--depth", "1"],
    ["f-eval", "--type", "A2"],
    ["sl2", "factor", "1:1"],
    ["sl2", "ptolemy", "-inf", "0", "1", "+inf"],
    ["wronskian", "check", "--type", "A2", "--r", "0..0"],
    ["bruhat", "verify", "--n", "2", "--trials", "1"],
]


class TestEveryCertifyingCommand:
    @pytest.mark.parametrize("args", CERTIFYING, ids=" ".join)
    def test_zero_budget_exits_three(self, args):
        result = cli(args + ["--json", "--budget", "0"], 3)
        assert "time budget exceeded" in result.stderr
        assert "certificates passed" not in result.output

    @pytest.mark.parametrize("args", CERTIFYING, ids=" ".join)
    def test_help_lists_json_and_budget(self, args):
        command = args[:1] if args[0] == "f-eval" else args[:2]
        result = cli(command + ["--help"])
        assert "--json" in result.output
        assert "--budget" in result.output


class TestReporter:
    @pytest.mark.parametrize("cert", [{"relation": "x"}, {"ok": True}])
    def test_certificate_without_ok_or_relation_raises(self, cert):
        rep = Reporter(as_json=True, budget=None)
        with pytest.raises(KeyError):
            rep.emit(cert)
        assert rep.total == 0


class TestMonomialTokens:
    @pytest.mark.parametrize("token", ["1:x", "y:2", "1.5"])
    def test_bad_token_is_named_usage_error(self, token):
        result = cli(["sl2", "factor", f"2:1 {token}", "--json"], 2)
        assert f"bad token {token!r}: expected r:e" in result.output
        assert "invalid literal" not in result.output

    # an exponent whose key field would not fit is refused before the
    # factorization builds one segment per unit of it; two tokens at one
    # height add up first
    BIG = 1 << (FIELD_BITS - 2)

    @pytest.mark.parametrize(
        "monomial, exponent",
        [
            (f"1:{BIG}", BIG),
            (f"1:{-BIG}", -BIG),
            (f"1:{BIG // 2} 1:{BIG // 2}", BIG),
        ],
    )
    def test_exponent_too_large_is_out_of_range(self, monomial, exponent):
        result = cli(["sl2", "factor", monomial, "--json"], 2)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert result.stdout == ""
        assert result.output == (
            f"Error: out of range: exponent {exponent} at r = 1 "
            f"does not fit a {FIELD_BITS}-bit key\n"
        )


class TestQuiverCommands:
    def test_build_roundtrips_through_json(self):
        result = cli("quiver build --type A2 --coxeter 1,2")
        q = default_window("A2", (1, 2)).quiver
        assert (1, 0) in q.vertices
        assert result.output == quiver_to_json(q) + "\n"

    def test_mutate_changes_arrows(self):
        base = cli("quiver build --type A2")
        mutated = cli("quiver mutate --type A2 --vertex 1,-2")
        assert mutated.output != base.output


class TestCertificates:
    def test_qq_verify_passes_with_json_lines(self):
        result = cli("qq verify --type A1 --depth 5 --window -3..1 --json")
        certs = json_lines(result.stdout)
        assert len(certs) == 5
        assert all(c["ok"] and c["relation"] == "qq" for c in certs)

    def test_qqstar_verify_passes(self):
        result = cli("qqstar verify --type A2 --depth 4 --json")
        assert all(c["ok"] for c in json_lines(result.stdout))

    def test_gvec_compare_three_way(self):
        result = cli("gvec compare --type A3 --coxeter 1,2,3 --json")
        (cert,) = json_lines(result.stdout)
        assert cert["ok"] and cert["mismatches"] == []
        assert cert["band_vertices"] == 6

    def test_gvec_knit_lists_every_vertex(self):
        lines = json_lines(cli("gvec knit --type A1").stdout)
        assert all(set(line) == {"gvector", "vertex"} for line in lines)
        assert {tuple(line["vertex"]) for line in lines} >= {(1, 0), (1, -2)}
        unit = next(line for line in lines if line["vertex"] == [1, 0])
        assert unit["gvector"] == [[1, 0, 1]]

    def test_seed_sweep_certified_against_blocks(self):
        certs = json_lines(cli("seed sweep --type A2 --sweeps 3 --json").stdout)
        assert [c["sweep"] for c in certs] == [1, 2, 3]
        assert all(c["ok"] for c in certs)

    def test_seed_mutate_reports_gvector(self):
        (cert,) = json_lines(cli("seed mutate --type A2 --vertex 1,-2 --json").stdout)
        assert cert["cvector_sign"] == -1
        assert cert["gvector"] == [[1, -2, 1]]

    def test_qvar_eval_constant_word(self):
        result = cli("qvar eval --type A1 --i 1 --r 0 --depth 2")
        payload = json.loads(result.stdout)
        assert payload["series"]["terms"] == [
            {"bracket": [0], "coeff": 1, "psi": [[[1, 0], 1]]}
        ]

    def test_f_eval_labels_top_vertex(self):
        certs = json_lines(cli("f-eval --type A2 --coxeter 1,2 --json").stdout)
        assert all(c["ok"] for c in certs)
        top = next(c for c in certs if c["vertex"] == [1, 2])
        assert top["word"] == [] and top["i"] == 1 and top["r"] == 2

    def test_sl2_factor_prefundamental_product(self):
        (cert,) = json_lines(cli("sl2 factor '2:1 4:1 -3:-1 -5:-1' --json").stdout)
        assert cert["ok"]
        assert cert["segments"] == [
            "[-inf,-6]", "[-inf,-4]", "[2,+inf]", "[4,+inf]"
        ]

    def test_sl2_ptolemy_with_infinite_ends(self):
        (cert,) = json_lines(cli("sl2 ptolemy -inf 0 1 +inf --depth 4 --json").stdout)
        assert cert["ok"] and cert["relation"] == "ptolemy"

    @pytest.mark.parametrize(
        "args, stdout",
        [
            (
                ["sl2", "factor", "2:1 4:1 -3:-1 -5:-1"],
                '{"input": "2:1 4:1 -3:-1 -5:-1", "ok": true, '
                '"pairwise_compatible": true, "relation": "factorization", '
                '"segments": ["[-inf,-6]", "[-inf,-4]", "[2,+inf]", "[4,+inf]"]}\n',
            ),
            (
                ["sl2", "factor", "0:2 3:-1 1:-2 5:1"],
                '{"input": "0:2 3:-1 1:-2 5:1", "ok": true, '
                '"pairwise_compatible": true, "relation": "factorization", '
                '"segments": ["[-inf,2]", "[0,0]", "[0,0]", "[5,+inf]"]}\n',
            ),
            (
                ["sl2", "ptolemy", "-inf", "2", "0", "5"],
                '{"depth": 6, "ok": true, "relation": "ptolemy", '
                '"segments": ["[-inf,2]", "[0,5]"]}\n',
            ),
            (
                ["sl2", "ptolemy", "-3", "0", "1", "inf", "--depth", "3"],
                '{"depth": 3, "ok": true, "relation": "ptolemy", '
                '"segments": ["[-3,0]", "[1,+inf]"]}\n',
            ),
        ],
    )
    def test_sl2_json_stdout_with_infinite_ends(self, args, stdout):
        result = cli(args + ["--json"])
        assert result.stdout == stdout

    def test_wronskian_check(self):
        result = cli("wronskian check --type A2 --r -2..2 --depth 4 --json")
        (cert,) = json_lines(result.stdout)
        assert cert["ok"]

    def test_wronskian_negative_control_fails(self):
        cli("wronskian check --type A2 --r 0..0 --depth 4 --system-word 2,1", 1)

    def test_bruhat_verify(self):
        cli("bruhat verify --n 2 --trials 5 --seed 3")


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["bruhat", "verify", "--n", "3", "--trials", "4", "--seed", "11", "--json"],
            ["qq", "verify", "--type", "A2", "--depth", "3", "--window", "-2..0", "--json"],
            ["gvec", "braid", "--type", "A2"],
        ],
    )
    def test_byte_identical_reruns(self, args):
        a, b = cli(args), cli(args)
        assert a.stdout == b.stdout


class TestGoldenSeries:
    """Whole ``qvar eval`` outputs, serialized cutoff included, pinned by
    their sha256."""

    @pytest.mark.parametrize(
        "args, cutoff2, sha256",
        [
            (
                ["--word", "", "--i", "1", "--r", "-1"],
                [-9, 2],
                "b2befbc3127e16da7c94fbcef8bf749d745afea26641d6d8726b842d1496da99",
            ),
            (
                ["--word", "2,1,3,2", "--i", "2", "--r", "-4"],
                [-22, 1],
                "863290d930608c8722aab48dc7ccae8572bbb9b849b7022eb2231886355e272d",
            ),
        ],
    )
    def test_qvar_eval_a3_stdout(self, args, cutoff2, sha256):
        result = cli(["qvar", "eval", "--type", "A3", *args, "--depth", "3"])
        assert json.loads(result.stdout)["series"]["cutoff2"] == cutoff2
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256


def serialized(series):
    """A series as ``qvar eval`` prints it, built here from its terms."""
    terms = [
        {"bracket": list(lam2), "psi": [[list(ih), e] for ih, e in psi], "coeff": c}
        for (lam2, psi), c in sorted(series.terms.items())
    ]
    cut = series.cutoff2
    return {"cutoff2": [cut.numerator, cut.denominator], "terms": terms}


class TestRawSeries:
    @pytest.mark.parametrize(
        "name, word, i, r",
        [("A3", (2, 1, 3, 2), 2, -4), ("A3", (1,), 1, 0), ("D4", (2, 1), 2, -1)],
    )
    def test_qvar_eval_raw_prints_q_raw(self, name, word, i, r):
        args = ["qvar", "eval", "--type", name, "--word", ",".join(map(str, word)),
                "--i", str(i), "--r", str(r), "--depth", "3"]
        raw, bar = cli([*args, "--raw"]), cli(args)
        raw, bar = json.loads(raw.stdout)["series"], json.loads(bar.stdout)["series"]
        ev = QEvaluator(RootSystem.from_name(name), depth=3)
        series = ev.q_raw(word, i, r)
        assert raw == serialized(series)
        # the default output is the raw one times [-Ω(top Ψ)], term by term
        (_, psi), _ = series.top()
        shift = [-x for x in omega_lam2(ev.rs, psi)]
        assert any(shift)
        moved = sorted(
            (tuple(map(add, t["bracket"], shift)), json.dumps(t["psi"]), t["coeff"])
            for t in raw["terms"]
        )
        assert moved == sorted(
            (tuple(t["bracket"]), json.dumps(t["psi"]), t["coeff"])
            for t in bar["terms"]
        )
        assert bar == serialized(series.mul_monomial(bracket(tuple(shift))))


class TestGoldenCombinatorics:
    """Whole ``--json`` outputs of the g-vector, sweep, seed-mutation,
    Wronskian and Bruhat commands, the whole ``gvec blocks`` listing, and
    whole quiver JSON, pinned by their sha256."""

    @pytest.mark.parametrize(
        "args, sha256",
        [
            (
                ["seed", "sweep", "--type", "E6", "--sweeps", "3", "--json"],
                "836190fc4e01de3a1908757e706ca5c92877d093b4a5b68e0fb7759c9941e9a0",
            ),
            (
                ["gvec", "compare", "--type", "E8", "--json"],
                "b67c76c523a798fb2db6271dd0dda6974df9485a2c8d98dbd1743b33697929a2",
            ),
            (
                ["gvec", "blocks", "--type", "D4"],
                "bd54eb4ef9ea8d635e247c3427d1d03d83fca06891dec256917d04049a5a4a09",
            ),
            (
                ["bruhat", "verify", "--n", "3", "--trials", "4", "--seed", "11",
                 "--json"],
                "c74b33d4ea60d07859f7df4ae4a8131a697e8d366593f4aec0fc91cc926f6901",
            ),
            (
                ["wronskian", "check", "--type", "A3", "--r", "-4..4", "--depth", "4",
                 "--json"],
                "9f401351f96b772ecc35ef77666e3ca33cf1a1a52037037eaa99ffb55f20fa92",
            ),
        ],
    )
    def test_stdout(self, args, sha256):
        result = cli(args)
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256

    # the failing Wronskian controls: the system words (2,1) and (2,1,3)
    # break the shift system, and the certificate says where
    @pytest.mark.parametrize(
        "args, sha256",
        [
            (
                ["--type", "A2", "--system-word", "2,1"],
                "a8969db2d83315e59f3d1c695e9192c58929b3e09955bf6ebd86a0cd81d257b2",
            ),
            (
                ["--type", "A3", "--system-word", "2,1,3"],
                "bc85623b36f97de7d14d05f13c7de221be3875c5f4ad2118836ebaa0fd3bf7df",
            ),
        ],
    )
    def test_failing_wronskian_control_stdout(self, args, sha256):
        result = cli(["wronskian", "check", *args, "--r", "0..0", "--depth", "4",
                      "--json"], 1)
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256

    def test_seed_mutate_at_every_e6_green(self):
        # the 36 greens of the E6 window, row by row down the band
        columns = ((1, -2, 8), (2, -3, 6), (3, -3, 7), (4, -4, 6), (5, -5, 5),
                   (6, -6, 4))
        args = ["seed", "mutate", "--type", "E6", "--json"]
        for k in range(8):
            for i, top, count in columns:
                if k < count:
                    args += ["--vertex", f"{i},{top - 4 * k}"]
        assert len(args) == 5 + 2 * 36
        result = cli(args)
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "7f74266fa61db1d5524888df8510e2951cc9c955fa3d0b6679e30db606110516"
        )

    # the same 36 greens in a shuffled order, as the benchmark mutates them
    E6_GREENS_SHUFFLED = (
        "4,-8 6,-6 5,-21 3,-15 4,-16 3,-19 4,-24 2,-7 3,-7 2,-19 5,-13 1,-26 "
        "4,-4 2,-15 1,-2 1,-6 1,-18 2,-3 3,-27 4,-20 2,-11 6,-18 2,-23 1,-22 "
        "5,-5 3,-3 5,-17 3,-23 6,-14 1,-30 1,-14 6,-10 3,-11 5,-9 1,-10 4,-12"
    ).split()

    def test_seed_mutate_at_every_e6_green_shuffled(self):
        args = ["seed", "mutate", "--type", "E6", "--json"]
        for v in self.E6_GREENS_SHUFFLED:
            args += ["--vertex", v]
        result = cli(args)
        assert len(result.stdout.splitlines()) == 36
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "9d5838bdf1e35346c9f545e7b87aed3da495c9e24b93f0c1b2b2da198d317bb3"
        )

    def test_seed_sweep_d4_twenty_sweeps(self):
        result = cli("seed sweep --type D4 --sweeps 20 --json")
        assert len(result.stdout.splitlines()) == 20
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "0851e5d80c928b13f5ed070fc021a5f7f011964b7f9aee9a9d8236cc7d2db306"
        )

    # a zero c-vector below the band, the window margin at the top, and a
    # vertex below the window: each a usage error that names the vertex
    @pytest.mark.parametrize(
        "vertex, message",
        [
            ("6,-38", "cannot mutate at (6, -38): zero c-vector at (6, -38)"),
            (
                "1,0",
                "cannot mutate at (1, 0): mutation at (1, 0) violates the window margin",
            ),
            ("1,-40", "cannot mutate at (1, -40): vertex (1, -40) not in window"),
        ],
    )
    def test_seed_mutate_e6_errors(self, vertex, message):
        args = ["seed", "mutate", "--type", "E6", "--vertex", vertex, "--json"]
        result = cli(args, 2)
        assert result.stdout == ""
        assert result.output.endswith(f"\n\nError: {message}\n")

    @pytest.mark.parametrize(
        "args, sha256",
        [
            (
                ["quiver", "build", "--type", "E7"],
                "44a2fb7fda521e816d6cb4fb31a98edd293dc0435e56ab8e6572391b1e9e62ad",
            ),
            (
                ["quiver", "mutate", "--type", "D4", "--vertex", "1,-6"],
                "1bc19d78a46f8222b9ee8225f53e2b814984abfb555dc835cc33b66aac0d5255",
            ),
            (
                ["quiver", "build", "--type", "E8", "--coxeter", "3,1,4,8,2,6,5,7"],
                "56c27fc6f250a2a502660ab8660b1d08fac9e11b066552b09a934631a7388488",
            ),
            (
                ["quiver", "build", "--type", "D5", "--depth-below", "2"],
                "4de3d3e7ddbfb8ddabf5456e64c8318ceaa19e57e9bd067d5341270e4da509dc",
            ),
            (
                ["quiver", "mutate", "--type", "E6", "--vertex", "1,-2"],
                "a6a87065e07e5d9ce8e14e8d4d3a62e74305110d2977afef01128bd4377e599d",
            ),
        ],
    )
    def test_quiver_stdout(self, args, sha256):
        result = cli(args)
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256

    # a window too shallow for the band: the insertion that hits the margin
    # first, or the empty window, is named
    @pytest.mark.parametrize(
        "depth, message",
        [
            ("0", "bad window: insertion at (1, -8) too close to window bottom"),
            ("-3", "bad window: insertion at (2, -5) too close to window bottom"),
            ("-50", "bad window: empty window: need rmin < rmax"),
        ],
    )
    def test_quiver_build_bad_window(self, depth, message):
        result = cli(["quiver", "build", "--type", "A3", "--depth-below", depth], 2)
        assert f"Error: {message}\n" in result.output

    # a window that would fill memory is refused before any vertex is built
    @pytest.mark.parametrize(
        "args",
        [
            ["quiver", "build", "--type", "A3", "--depth-below", "9" * 20],
            ["seed", "sweep", "--type", "E8", "--sweeps", "9" * 20],
        ],
    )
    def test_oversized_window(self, args):
        result = cli(args, 2)
        assert "Error: bad window: window of " in result.output
        assert f"more than the {MAX_WINDOW_VERTICES} allowed\n" in result.output


# two words of one Coxeter element each: they differ by commuting letters
COMMUTATION_PAIRS = {
    "A3": ("1,3,2", "3,1,2"),
    "D4": ("1,3,4,2", "4,1,3,2"),
    "E6": ("6,5,4,3,2,1", "6,5,4,2,3,1"),
}


class TestCommutationClass:
    """A window is named by its Coxeter element, not by the word: both
    words of a pair give equal data and byte-identical output."""

    @pytest.mark.parametrize("name", sorted(COMMUTATION_PAIRS))
    def test_both_words_print_the_same_bytes(self, name):
        one, two = COMMUTATION_PAIRS[name]
        rs = RootSystem.from_name(name)
        words = [tuple(map(int, w.split(","))) for w in (one, two)]
        assert coxeter_data(rs, words[0]) == coxeter_data(rs, words[1])
        greens = [
            f"{i},{r}" for i, r in default_window(name, words[0]).green_sequence()
        ]
        commands = [
            ["quiver", "build"],
            ["quiver", "mutate", "--vertex", greens[0]],
            ["gvec", "knit"],
            ["gvec", "braid"],
            ["gvec", "blocks"],
            ["gvec", "compare", "--json"],
            ["seed", "sweep", "--sweeps", "2", "--json"],
            ["seed", "mutate", "--vertex", greens[0], "--vertex", greens[1], "--json"],
            ["f-eval", "--json"],
        ]
        for args in commands:
            a, b = (
                cli([*args, "--type", name, "--coxeter", word]) for word in (one, two)
            )
            assert a.stdout and a.stdout == b.stdout, args


LISTINGS = {
    "knit": lambda cw: knit_gvectors(cw.quiver),
    "braid": braid_gvectors,
    "blocks": blocks_gvectors,
}


class TestGvecListings:
    """``gvec knit|braid|blocks`` print, and certify nothing: one sorted
    JSON line per vertex, no summary, no ``--json`` or ``--budget``."""

    @pytest.mark.parametrize("name", ["D4", "E6"])
    @pytest.mark.parametrize("method", sorted(LISTINGS))
    def test_prints_each_vertex_gvector(self, method, name):
        table = LISTINGS[method](default_window(name))
        expected = "".join(
            json.dumps(
                {"gvector": [[i, r, c] for (i, r), c in table[v].coeffs],
                 "vertex": list(v)},
                sort_keys=True,
            ) + "\n"
            for v in sorted(table)
        )
        result = cli(["gvec", method, "--type", name])
        assert result.output == expected

    @pytest.mark.parametrize("method", sorted(LISTINGS))
    @pytest.mark.parametrize("option", [["--json"], ["--budget", "0"]])
    def test_certificate_options_are_gone(self, method, option):
        result = cli(["gvec", method, "--type", "A2", *option], 2)
        assert "No such option" in result.output and option[0] in result.output


def readme_commands():
    """Every ``clusterqq ...`` line in a code block of the README."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, re.S | re.M)
    return [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("clusterqq ")
    ]


class TestReadme:
    def test_readme_has_commands(self):
        assert len(readme_commands()) >= 12

    @pytest.mark.parametrize("line", readme_commands())
    def test_command_runs(self, line):
        result = cli(shlex.split(line)[1:])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


# The directory the suite imported ``clusterqq`` from (``src`` in a checkout).
IMPORT_ROOT = Path(clusterqq.__file__).resolve().parents[1]


def declared_console_script():
    """The ``module:attr`` target declared for ``clusterqq``, or None.

    It is read from ``[project.scripts]`` in the ``pyproject.toml`` of the
    source tree the suite imported ``clusterqq`` from.  Where that cannot
    be read (no ``tomllib`` before Python 3.11, or ``clusterqq`` imported
    from an installed copy) it comes from the console-script entry point
    of the installed ``artifact`` distribution.  With neither, the test
    is skipped for want of ``tomllib``.
    """
    pyproject = IMPORT_ROOT.parent / "pyproject.toml"
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = None
    if tomllib is not None and pyproject.is_file():
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        return project.get("scripts", {}).get("clusterqq")
    for ep in importlib.metadata.entry_points(
        group="console_scripts", name="clusterqq"
    ):
        if ep.dist is not None and ep.dist.name == "artifact":
            return ep.value
    pytest.importorskip("tomllib")
    return None


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        """The declared entry point loads from the imported code and answers --help.

        The target is called the way pip's generated wrapper calls it, in
        a fresh interpreter whose PYTHONPATH starts with the directory the
        suite imported ``clusterqq`` from, so no install step is needed.
        """
        target = declared_console_script()
        assert target is not None, "no clusterqq entry in [project.scripts]"
        assert re.fullmatch(r"\w+(\.\w+)*:\w+", target), target
        module, attr = target.split(":")
        code = (
            "import sys; sys.argv[0] = 'clusterqq'; "
            f"from {module} import {attr} as f; sys.exit(f())"
        )
        pythonpath = [str(IMPORT_ROOT), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        proc = subprocess.run(
            [sys.executable, "-c", code, "--help"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "certification" in proc.stdout
        assert "Usage: clusterqq" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("clusterqq") is None,
        reason="clusterqq console script not on PATH",
    )
    def test_installed_script_on_path(self):
        proc = subprocess.run(
            ["clusterqq", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "certification" in proc.stdout


# the in-process runner of the import-boundary test: it imports the CLI,
# runs each command of argv[1] and prints the clusterqq modules loaded
# after the import and after each command
BOUNDARY_PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("clusterqq"))

from clusterqq.cli import main

out = {"import": loaded(), "runs": []}
for args in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(args, prog_name="clusterqq")
        except SystemExit as exc:
            code = exc.code
    out["runs"].append({"args": args, "code": code, "loaded": loaded()})
print(json.dumps(out))
"""

SERIES_MODULES = {"clusterqq.qseries", "clusterqq.sl2", "clusterqq.wronskian"}

COMBINATORIAL = [
    ["gvec", "compare", "--type", "A3"],
    ["gvec", "knit", "--type", "A2"],
    ["seed", "sweep", "--type", "A2", "--sweeps", "2"],
    ["seed", "mutate", "--type", "A2", "--vertex", "1,-2"],
    ["quiver", "build", "--type", "A2"],
    ["f-eval", "--type", "A2"],
]


class TestImportBoundary:
    """The series ring loads only in the commands that evaluate series.

    Each run is a fresh interpreter whose PYTHONPATH starts with the
    directory the suite imported ``clusterqq`` from.
    """

    @pytest.fixture(scope="class")
    def probe(self, tmp_path_factory):
        commands = COMBINATORIAL + [
            ["qq", "verify", "--type", "A1", "--window", "0..0", "--depth", "1"]
        ]
        pythonpath = [str(IMPORT_ROOT), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        proc = subprocess.run(
            [sys.executable, "-c", BOUNDARY_PROBE, json.dumps(commands)],
            capture_output=True, text=True, env=env,
            cwd=tmp_path_factory.mktemp("boundary"),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_loads_no_series_module(self, probe):
        assert "clusterqq.cli" in probe["import"]
        assert not SERIES_MODULES & set(probe["import"])

    def test_combinatorial_commands_load_nothing_more(self, probe):
        # so a gvec_cli benchmark pass imports nothing that set-up did not
        runs = probe["runs"][: len(COMBINATORIAL)]
        assert [r["args"] for r in runs] == COMBINATORIAL
        for run in runs:
            assert run["code"] == 0, run["args"]
            assert run["loaded"] == probe["import"], run["args"]

    def test_qq_verify_loads_the_series_ring(self, probe):
        run = probe["runs"][-1]
        assert run["args"][:2] == ["qq", "verify"] and run["code"] == 0
        assert "clusterqq.qseries" in run["loaded"]


class TestOptimizedInterpreter:
    """No certificate rests on an ``assert``: ``python -O``, which strips
    them, prints the same certificates with the same exit code.

    Each run is a fresh interpreter whose PYTHONPATH starts with the
    directory the suite imported ``clusterqq`` from.
    """

    def test_same_stdout_and_exit_code_under_dash_o(self, tmp_path):
        pythonpath = [str(IMPORT_ROOT), os.environ.get("PYTHONPATH", "")]
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
            PYTHONDONTWRITEBYTECODE="1",
        )
        for args in (
            ["seed", "sweep", "--type", "A2", "--sweeps", "3", "--json"],
            ["gvec", "compare", "--type", "D4", "--json"],
        ):
            plain, optimized = (
                subprocess.run(
                    [sys.executable, *flags, "-m", "clusterqq.cli", *args],
                    capture_output=True, text=True, env=env, cwd=tmp_path,
                )
                for flags in ([], ["-O"])
            )
            assert plain.returncode == 0 and plain.stdout, (args, plain.stderr)
            assert optimized.returncode == plain.returncode, (args, optimized.stderr)
            assert optimized.stdout == plain.stdout, args
