"""Command-line interface: exit codes, JSON certificates, determinism."""

import hashlib
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import clusterqq
from clusterqq.cli import main
from clusterqq.quiver import quiver_from_json


@pytest.fixture()
def runner():
    return CliRunner()


def json_lines(output):
    return [json.loads(line) for line in output.strip().splitlines()]


class TestUsage:
    def test_no_arguments_shows_usage(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 2
        assert "Usage" in result.output

    def test_unknown_type_is_usage_error(self, runner):
        result = runner.invoke(main, ["qq", "verify", "--type", "Z9"])
        assert result.exit_code == 2

    def test_bad_window_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["qq", "verify", "--type", "A1", "--window", "oops"]
        )
        assert result.exit_code == 2

    def test_bad_coxeter_word_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["gvec", "compare", "--type", "A2", "--coxeter", "1,1"]
        )
        assert result.exit_code == 2

    def test_ptolemy_precondition_is_usage_error(self, runner):
        result = runner.invoke(main, ["sl2", "ptolemy", "3", "1", "1", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_ptolemy_depth_below_one_is_usage_error(self, runner, depth):
        # at depth <= 0 both sides keep no terms: a vacuous pass
        args = ["sl2", "ptolemy", "-inf", "0", "1", "+inf", "--depth", depth]
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 2
        assert '"ok"' not in result.output

    @pytest.mark.parametrize(
        "args",
        [
            # too shallow a window: MarginError while building it
            ["gvec", "compare", "--type", "E6", "--depth-below", "0"],
            ["gvec", "knit", "--type", "D4", "--depth-below", "-3"],
            # no such vertex: SignError, a zero c-vector
            ["seed", "mutate", "--type", "E6", "--vertex", "1,-40"],
            ["seed", "mutate", "--type", "E6", "--vertex", "9,0"],
            # an empty run would certify nothing
            ["seed", "sweep", "--type", "D4", "--sweeps", "0"],
            ["seed", "sweep", "--type", "D4", "--sweeps", "-1"],
            # no room below the green band: MarginError on the last sweep
            ["seed", "sweep", "--type", "A2", "--depth-below", "0", "--sweeps", "4"],
            ["seed", "sweep", "--type", "E6", "--depth-below", "-2"],
        ],
    )
    def test_window_precondition_is_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
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
        ],
    )
    def test_minor_precondition_is_usage_error(self, runner, args):
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 2
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
        ],
    )
    def test_series_precondition_is_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "certificates passed" not in result.output
        assert '"relation"' not in result.output


class TestBudget:
    def test_exceeded_budget_exits_three(self, runner):
        result = runner.invoke(
            main,
            ["qq", "verify", "--type", "A2", "--depth", "3", "--budget", "0"],
        )
        assert result.exit_code == 3


class TestQuiverCommands:
    def test_build_roundtrips_through_json(self, runner):
        result = runner.invoke(
            main, ["quiver", "build", "--type", "A2", "--coxeter", "1,2"]
        )
        assert result.exit_code == 0
        q = quiver_from_json(result.output)
        assert (1, 0) in q.vertices

    def test_mutate_changes_arrows(self, runner):
        base = runner.invoke(main, ["quiver", "build", "--type", "A2"])
        mutated = runner.invoke(
            main, ["quiver", "mutate", "--type", "A2", "--vertex", "1,-2"]
        )
        assert mutated.exit_code == 0
        assert mutated.output != base.output


class TestCertificates:
    def test_qq_verify_passes_with_json_lines(self, runner):
        result = runner.invoke(
            main,
            [
                "qq", "verify", "--type", "A1", "--depth", "5",
                "--window", "-3..1", "--json",
            ],
        )
        assert result.exit_code == 0
        certs = json_lines(result.stdout)
        assert len(certs) == 5
        assert all(c["ok"] and c["relation"] == "qq" for c in certs)

    def test_qqstar_verify_passes(self, runner):
        result = runner.invoke(
            main, ["qqstar", "verify", "--type", "A2", "--depth", "4", "--json"]
        )
        assert result.exit_code == 0
        assert all(c["ok"] for c in json_lines(result.stdout))

    def test_gvec_compare_three_way(self, runner):
        result = runner.invoke(
            main,
            ["gvec", "compare", "--type", "A3", "--coxeter", "1,2,3", "--json"],
        )
        assert result.exit_code == 0
        (cert,) = json_lines(result.stdout)
        assert cert["ok"] and cert["mismatches"] == []
        assert cert["band_vertices"] == 6

    def test_gvec_knit_lists_every_vertex(self, runner):
        result = runner.invoke(main, ["gvec", "knit", "--type", "A1", "--json"])
        assert result.exit_code == 0
        certs = json_lines(result.stdout)
        assert {tuple(c["vertex"]) for c in certs} >= {(1, 0), (1, -2)}
        unit = next(c for c in certs if c["vertex"] == [1, 0])
        assert unit["gvector"] == [[1, 0, 1]]

    def test_seed_sweep_certified_against_blocks(self, runner):
        result = runner.invoke(
            main, ["seed", "sweep", "--type", "A2", "--sweeps", "3", "--json"]
        )
        assert result.exit_code == 0
        certs = json_lines(result.stdout)
        assert [c["sweep"] for c in certs] == [1, 2, 3]
        assert all(c["ok"] for c in certs)

    def test_seed_mutate_reports_gvector(self, runner):
        result = runner.invoke(
            main,
            ["seed", "mutate", "--type", "A2", "--vertex", "1,-2", "--json"],
        )
        assert result.exit_code == 0
        (cert,) = json_lines(result.stdout)
        assert cert["cvector_sign"] == -1
        assert cert["gvector"] == [[1, -2, 1]]

    def test_qvar_eval_constant_word(self, runner):
        result = runner.invoke(
            main,
            [
                "qvar", "eval", "--type", "A1", "--i", "1", "--r", "0",
                "--depth", "2",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["series"]["terms"] == [
            {"bracket": [0], "coeff": 1, "psi": [[[1, 0], 1]]}
        ]

    def test_f_eval_labels_top_vertex(self, runner):
        result = runner.invoke(
            main, ["f-eval", "--type", "A2", "--coxeter", "1,2", "--json"]
        )
        assert result.exit_code == 0
        certs = json_lines(result.stdout)
        assert all(c["ok"] for c in certs)
        top = next(c for c in certs if c["vertex"] == [1, 2])
        assert top["word"] == [] and top["i"] == 1 and top["r"] == 2

    def test_sl2_factor_prefundamental_product(self, runner):
        result = runner.invoke(
            main, ["sl2", "factor", "2:1 4:1 -3:-1 -5:-1", "--json"]
        )
        assert result.exit_code == 0
        (cert,) = json_lines(result.stdout)
        assert cert["ok"]
        assert cert["segments"] == [
            "[-inf,-6]", "[-inf,-4]", "[2,+inf]", "[4,+inf]"
        ]

    def test_sl2_ptolemy_with_infinite_ends(self, runner):
        result = runner.invoke(
            main,
            ["sl2", "ptolemy", "-inf", "0", "1", "+inf", "--depth", "4", "--json"],
        )
        assert result.exit_code == 0
        (cert,) = json_lines(result.stdout)
        assert cert["ok"] and cert["relation"] == "ptolemy"

    def test_wronskian_check(self, runner):
        result = runner.invoke(
            main,
            [
                "wronskian", "check", "--type", "A2", "--r", "-2..2",
                "--depth", "4", "--json",
            ],
        )
        assert result.exit_code == 0
        (cert,) = json_lines(result.stdout)
        assert cert["ok"]

    def test_wronskian_negative_control_fails(self, runner):
        result = runner.invoke(
            main,
            [
                "wronskian", "check", "--type", "A2", "--r", "0..0",
                "--depth", "4", "--system-word", "2,1",
            ],
        )
        assert result.exit_code == 1

    def test_bruhat_verify(self, runner):
        result = runner.invoke(
            main,
            ["bruhat", "verify", "--n", "2", "--trials", "5", "--seed", "3"],
        )
        assert result.exit_code == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["bruhat", "verify", "--n", "3", "--trials", "4", "--seed", "11", "--json"],
            ["qq", "verify", "--type", "A2", "--depth", "3", "--window", "-2..0", "--json"],
            ["gvec", "braid", "--type", "A2", "--json"],
        ],
    )
    def test_byte_identical_reruns(self, runner, args):
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.exit_code == b.exit_code == 0
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
    def test_qvar_eval_a3_stdout(self, runner, args, cutoff2, sha256):
        result = runner.invoke(
            main, ["qvar", "eval", "--type", "A3", *args, "--depth", "3"]
        )
        assert result.exit_code == 0
        assert json.loads(result.stdout)["series"]["cutoff2"] == cutoff2
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256


class TestGoldenCombinatorics:
    """Whole ``--json`` outputs of the g-vector, sweep, seed-mutation and
    Bruhat commands, and whole quiver JSON, pinned by their sha256."""

    @pytest.mark.parametrize(
        "args, sha256",
        [
            (
                ["seed", "sweep", "--type", "E6", "--sweeps", "3"],
                "836190fc4e01de3a1908757e706ca5c92877d093b4a5b68e0fb7759c9941e9a0",
            ),
            (
                ["gvec", "compare", "--type", "E8"],
                "b67c76c523a798fb2db6271dd0dda6974df9485a2c8d98dbd1743b33697929a2",
            ),
            (
                ["gvec", "blocks", "--type", "D4"],
                "2ed7fb06ce2a5dcf0014d96ef4590ebd563122171b64f1f0e258dcdeb611f276",
            ),
            (
                ["bruhat", "verify", "--n", "3", "--trials", "4", "--seed", "11"],
                "c74b33d4ea60d07859f7df4ae4a8131a697e8d366593f4aec0fc91cc926f6901",
            ),
        ],
    )
    def test_stdout(self, runner, args, sha256):
        result = runner.invoke(main, [*args, "--json"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256

    def test_seed_mutate_at_every_e6_green(self, runner):
        # the 36 greens of the E6 window, row by row down the band
        columns = ((1, -2, 8), (2, -3, 6), (3, -3, 7), (4, -4, 6), (5, -5, 5),
                   (6, -6, 4))
        args = ["seed", "mutate", "--type", "E6", "--json"]
        for k in range(8):
            for i, top, count in columns:
                if k < count:
                    args += ["--vertex", f"{i},{top - 4 * k}"]
        assert len(args) == 5 + 2 * 36
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
            "7f74266fa61db1d5524888df8510e2951cc9c955fa3d0b6679e30db606110516"
        )

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
        ],
    )
    def test_quiver_stdout(self, runner, args, sha256):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha256


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
