"""Every function in the package is reached by the program, or says why not.

The scan reads ``src/clusterqq`` with ``ast``.  A module-level function
is reached when its name is used anywhere in ``src/clusterqq`` or
``perfbench`` outside its own body: as a name, an attribute, an imported
name, or a dotted string (the benchmark tracer names what it wraps that
way).  A method is reached only by an attribute use (``x.name``) or a
dotted string, so a local variable that happens to share its name does
not count.  One limit remains: the scan does not know types, so an
attribute use reaches every method of that name, in any class (a
``.tau`` call reaches both ``KSeries.tau`` and ``KeyCodec.tau``).
Recursion alone does not reach a function.  Dunder methods, which Python
calls, and CLI commands, which click calls, are not scanned.  Anything else that nothing reaches must be deleted (or, if only
tests use it, moved to ``tests/oracles.py``), or listed in ``KEPT`` with
the reason it stays.

A second scan reads ``tests/test_*.py``: no test module imports another.
What two test modules share lives in ``tests/oracles.py``.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from oracles import functions

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clusterqq"
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

_PUBLIC = "public API: tests use it as a library entry point"
_ORACLE = "oracle or cross-check that tests use"

KEPT = {
    "quiver.CoxeterWindow.gamma": _PUBLIC + " (the finite core, built on "
    "first use; no command prints it)",
    "seed.dual_cvectors": _ORACLE + ": the c-matrix as inverse transpose "
    "of the g-block (its certificate would add --json fields)",
    "gvector.mesh_check": _ORACLE + ": the translated mesh relation (its "
    "certificate would add --json fields)",
    "gvector.mesh_pairs": _ORACLE + ": the vertices mesh_check applies to",
    "cli._Main.invoke": "click calls it: the one place that turns an "
    "OverflowError of any command into exit 2",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


def names_used(tree) -> tuple[Counter, Counter]:
    """(bare uses, attribute uses) of every name in ``tree``: a bare use
    is a name or an imported name, an attribute use is ``x.name`` or a
    part of a dotted string."""
    bare, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            bare[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.match(node.value):
                attrs.update(node.value.split("."))
    return bare, attrs


def is_cli_command(node) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def unreached(package: dict, scanned: list) -> dict:
    """{qualified name: line} of every function of the ``package`` trees
    (keyed by module name) that no tree in ``scanned`` reaches."""
    bare, attrs = Counter(), Counter()
    for tree in scanned:
        b, a = names_used(tree)
        bare += b
        attrs += a
    out = {}
    for module, tree in package.items():
        for qualname, node, is_method in functions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if is_cli_command(node):
                continue
            own_bare, own_attrs = names_used(node)
            uses = attrs[name] - own_attrs[name]
            if not is_method:
                uses += bare[name] - own_bare[name]
            if uses <= 0:
                out[qualname] = node.lineno
    return out


def unreached_in_package() -> dict:
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in SCANNED}
    package = {p.stem: trees[p] for p in SCANNED if p.parent == PACKAGE}
    return unreached(package, list(trees.values()))


def test_every_function_is_reached_or_kept():
    orphans = {
        q: line for q, line in unreached_in_package().items() if q not in KEPT
    }
    assert not orphans, (
        "functions that nothing in src/clusterqq or perfbench reaches; "
        f"delete them or add them to KEPT with a reason: {orphans}"
    )


def test_kept_entries_are_live():
    # an entry whose function is gone, or is now reached, is stale
    stale = sorted(set(KEPT) - set(unreached_in_package()))
    assert not stale, f"stale KEPT entries: {stale}"


def test_scan_reports_what_nothing_else_uses():
    # the scan itself: a module-level function, a method, a method whose
    # name only a local variable shares and a self-recursive function that
    # nothing else uses are all reported; a method called as an attribute
    # is not
    tree = ast.parse(
        "def used():\n    shadow = C().called()\n    return helper(shadow)\n"
        "def helper(x):\n    return x\n"
        "def lonely():\n    return 2\n"
        "def loop(n):\n    return loop(n - 1) if n else 0\n"
        "class C:\n"
        "    def method(self):\n        return used()\n"
        "    def shadow(self):\n        return 3\n"
        "    def called(self):\n        return 4\n"
    )
    assert list(unreached({"m": tree}, [tree])) == [
        "m.lonely", "m.loop", "m.C.method", "m.C.shadow"
    ]


def sibling_imports(tree, modules) -> list[int]:
    """The lines of ``tree`` that import one of ``modules``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(
            set(name.split(".")) & modules
            for name in [getattr(node, "module", None) or ""]
            + [a.name for a in node.names]
        )
    ]


def test_no_test_module_imports_another():
    paths = sorted((ROOT / "tests").glob("test_*.py"))
    modules = {p.stem for p in paths}
    found = [
        f"{path.name}:{line}"
        for path in paths
        for line in sibling_imports(ast.parse(path.read_text()), modules)
    ]
    assert not found, f"move what they share to tests/oracles.py: {found}"


def test_import_scan_finds_each_form():
    tree = ast.parse(
        "import os\nfrom oracles import rs\nimport test_a\n"
        "from test_b import x\nfrom tests.test_a import y\nfrom tests import test_b\n"
    )
    assert sibling_imports(tree, {"test_a", "test_b"}) == [3, 4, 5, 6]
