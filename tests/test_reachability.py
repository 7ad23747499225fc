"""Every function in the package is reached by the program, or says why not.

The scan reads ``src/clusterqq`` with ``ast``.  A function or method is
reached when its name is used anywhere in ``src/clusterqq`` or
``perfbench`` outside its own body: as a name, an attribute, an imported
name, or a dotted string (the benchmark tracer names what it wraps that
way).  Recursion alone does not reach a function.  Dunder methods, which
Python calls, and CLI commands, which click calls, are not scanned.
Anything else that nothing reaches must be deleted, or listed in
``KEPT`` with the reason it stays.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clusterqq"
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

_PUBLIC = "public API: tests use it as a library entry point"
_ORACLE = "oracle or cross-check that tests use"

KEPT = {
    "qseries.QEvaluator.weight_of": _PUBLIC,
    "seed.Seed.with_values": _PUBLIC,
    "quiver.build_seed_quiver": _PUBLIC,
    "quiver.insert_reflection": _PUBLIC,
    "sl2.quadrilateral_check": _PUBLIC,
    "seed.dual_cvectors": _ORACLE + ": the c-matrix as inverse transpose "
    "of the g-block (its certificate would add --json fields)",
    "gvector.mesh_check": _ORACLE + ": the translated mesh relation (its "
    "certificate would add --json fields)",
    "gvector.mesh_pairs": _ORACLE + ": the vertices mesh_check applies to",
    "gvector.slice_matrix": _ORACLE + ": one slice T_m of the band product",
    "qseries.a_monomial": _ORACLE + ": the A-variable monomial",
    "qseries.product": _ORACLE + ": product of a list of series",
    "quiver.quiver_from_json": _ORACLE + ": the inverse of quiver_to_json",
    "quiver.WindowedQuiver.relabeled": _ORACLE,
    "quiver.WindowedQuiver.same_arrows": _ORACLE,
    "rootsys.identity_element": _ORACLE,
    "rootsys.simple_reflection": _ORACLE,
    "seed.mutate_reference": _ORACLE + ": one step of a green sweep",
    "quiver.recolor_from_arrows": _ORACLE + ": the recoloring of a sweep",
    "sl2.Diagonal.crosses": _ORACLE,
    "sl2.Segment.diagonal": _ORACLE,
    "qseries.KSeries._ht": _ORACLE + ": the height of one key",
    "qseries.KSeries.max_ht": _ORACLE + ": the top height of a series",
    "cli._Main.invoke": "click calls it: the one place that turns an "
    "OverflowError of any command into exit 2",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


def names_used(tree) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.match(node.value):
                out.update(node.value.split("."))
    return out


def is_cli_command(node) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def definitions(tree, prefix):
    """(qualified name, def node) of every function and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
            yield from definitions(node, f"{prefix}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            yield from definitions(node, f"{prefix}.{node.name}")


def unreached(package: dict, scanned: list) -> dict:
    """{qualified name: line} of every function of the ``package`` trees
    (keyed by module name) that no tree in ``scanned`` reaches."""
    used = sum((names_used(tree) for tree in scanned), Counter())
    out = {}
    for module, tree in package.items():
        for qualname, node in definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if is_cli_command(node):
                continue
            if used[name] - names_used(node)[name] == 0:
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
    # the scan itself: a module-level function, a method and a
    # self-recursive function that nothing else uses are all reported
    tree = ast.parse(
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def lonely():\n    return 2\n"
        "def loop(n):\n    return loop(n - 1) if n else 0\n"
        "class C:\n    def method(self):\n        return used()\n"
    )
    assert list(unreached({"m": tree}, [tree])) == ["m.lonely", "m.loop", "m.C.method"]
