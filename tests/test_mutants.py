"""The mutation gate: every mutant of ``mutants.py`` is killed by its tests.

Each mutant is applied to a copy of ``src``, ``tests``, ``perfbench``
(without its ``out/``), ``pyproject.toml`` and ``README.md`` (whose
commands ``tests/test_cli.py`` reads at collection), so that every path the
tests derive from their own location (``perfbench/worker.py`` puts its
sibling ``src`` first on ``sys.path``) leads to the mutated code.  Its
named tests then run there in a fresh ``pytest -x`` under a wall limit,
with plain asserts (``--assert=plain``).  A kill is only pytest's exit
code, which a plain ``assert`` sets as a rewritten one does; rewriting
would recompile the test modules and every installed plugin in each
child wherever no bytecode can be written (``PYTHONDONTWRITEBYTECODE=1``),
most of its start-up.  Only exit code 1, some test failed, is a kill: a
survivor (exit 0), a collection or usage error (a mistyped id, old text
that no longer matches) and a run past the limit all fail the gate, and
none is skipped.  The same tests must pass on the unmutated copy.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
LIMIT_S = 60


def copy_tree(dest: Path) -> Path:
    for name, skip in (("src", ()), ("tests", ()), ("perfbench", ("out",))):
        shutil.copytree(
            ROOT / name,
            dest / name,
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", *skip),
        )
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)
    return dest


def run_tests(tree: Path, ids: list[str]) -> tuple[int | None, str]:
    """pytest's exit code on ``ids`` in ``tree`` (None past the limit)
    and the tail of its output."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--assert=plain", *ids],
            cwd=tree,
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True,
            text=True,
            timeout=LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"no result within {LIMIT_S} s"
    return done.returncode, (done.stdout + done.stderr)[-3000:]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    return copy_tree(tmp_path_factory.mktemp("pristine"))


def test_named_tests_pass_unmutated(pristine):
    ids = list(dict.fromkeys(i for m in MUTANTS.values() for i in m["kills"]))
    code, output = run_tests(pristine, ids)
    assert code == 0, output


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(pristine, tmp_path, name):
    mutant = MUTANTS[name]
    tree = tmp_path / "tree"
    shutil.copytree(pristine, tree)
    path = tree / mutant["file"]
    text = path.read_text()
    assert text.count(mutant["old"]) == 1, f"{name}: old text must occur once"
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    code, output = run_tests(tree, mutant["kills"])
    assert code is not None, f"{name}: {output}"
    assert code != 0, f"{name} survived its tests:\n{output}"
    assert code == 1, f"{name}: pytest exited {code}, not a test failure:\n{output}"
