"""Every ``ok`` the package emits has a committed mutant that makes it lie.

The scan reads ``src/clusterqq`` with ``ast``.  A site is an ``"ok"`` entry
of a dict literal.  An entry whose value is a bare name stands for every
assignment to that name in the enclosing function, so the checked booleans
that the library computes before it stores them (the Wronskian equations
and minor identifications, the Bruhat identities) are sites where they are
computed, and those it returns (``qq_check``, ``qqstar_check``,
``sl2._ptolemy``) are sites where a certificate takes them as its ``ok``.
An entry or assignment that reads another ``["ok"]`` aggregates checked
entries and is no site of its own.

Each site must lie inside the ``old`` text of a mutant of ``mutants.py``
on the same file; ``test_mutants.py`` checks that the mutant's named tests
kill it.  A new certificate without a mutant fails here.  ``EXCEPTIONS``
names the sites that have nothing to mutate, with the reason; it may only
shrink.
"""

import ast
from pathlib import Path

from mutants import MUTANTS
from oracles import functions

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clusterqq"

EXCEPTIONS = {
    "cli.seed_mutate": "seed mutate compares nothing yet: its ok is the "
    "literal True until the mutation is checked against an oracle",
}


def _reads_ok(node) -> bool:
    return any(
        isinstance(sub, ast.Subscript)
        and isinstance(sub.slice, ast.Constant)
        and sub.slice.value == "ok"
        for sub in ast.walk(node)
    )


def _binds(target, name: str) -> bool:
    return any(isinstance(t, ast.Name) and t.id == name for t in ast.walk(target))


def ok_sites(source: str, module: str) -> list[tuple[str, int, int, str]]:
    """(function, first line, last line, source text) of every site in
    ``source``, in line order; a site found twice is listed once."""
    tree = ast.parse(source)
    sites = {}
    for qualname, func, _ in functions(tree, module):
        for node in ast.walk(func):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if not (isinstance(key, ast.Constant) and key.value == "ok"):
                    continue
                if isinstance(value, ast.Name):
                    spans = [
                        stmt
                        for stmt in ast.walk(func)
                        if isinstance(stmt, ast.Assign)
                        and any(_binds(t, value.id) for t in stmt.targets)
                        and not _reads_ok(stmt.value)
                    ]
                elif _reads_ok(value):
                    spans = []
                else:
                    spans = [
                        ast.Dict(
                            keys=[key], values=[value], lineno=key.lineno,
                            col_offset=key.col_offset, end_lineno=value.end_lineno,
                            end_col_offset=value.end_col_offset,
                        )
                    ]
                for span in spans:
                    text = ast.get_source_segment(source, span)
                    sites[span.lineno, text] = (
                        qualname, span.lineno, span.end_lineno, text
                    )
    return [sites[k] for k in sorted(sites)]


def package_sites() -> dict[str, list]:
    """{module file name: its sites} for every module of the package."""
    return {
        path.name: ok_sites(path.read_text(), path.stem)
        for path in sorted(PACKAGE.glob("*.py"))
    }


def covering_mutants(file: str, first: int, last: int, text: str) -> list[str]:
    """The mutants on ``file`` whose ``old`` text holds ``text`` on the
    lines first..last."""
    source = (ROOT / "src" / "clusterqq" / file).read_text()
    names = []
    for name, mutant in MUTANTS.items():
        if mutant["file"] != f"src/clusterqq/{file}" or text not in mutant["old"]:
            continue
        start = source.find(mutant["old"])
        if start < 0:
            continue
        top = source.count("\n", 0, start) + 1
        bottom = top + mutant["old"].count("\n")
        if top <= first and last <= bottom:
            names.append(name)
    return names


def uncovered_sites() -> list[str]:
    return [
        f"{file}:{first}: {func}: {text}"
        for file, sites in package_sites().items()
        for func, first, last, text in sites
        if func not in EXCEPTIONS and not covering_mutants(file, first, last, text)
    ]


def test_every_site_has_a_mutant():
    uncovered = uncovered_sites()
    assert not uncovered, (
        "ok sites that no mutant in tests/mutants.py makes lie; add one with "
        f"the test that kills it: {uncovered}"
    )


def test_a_site_without_its_mutant_is_reported(monkeypatch):
    monkeypatch.delitem(MUTANTS, "seed-sweep-passes")
    (site,) = uncovered_sites()
    assert site.endswith(': cli.seed_sweep: "ok": not mismatch')


def test_exceptions_are_live_and_uncovered():
    # an exception must still be a site, and one that no mutant covers
    sites = {
        func: (file, first, last, text)
        for file, found in package_sites().items()
        for func, first, last, text in found
    }
    for func in EXCEPTIONS:
        assert func in sites, f"stale exception: {func}"
        assert not covering_mutants(*sites[func]), f"{func} has a mutant now"


def test_the_library_checks_are_sites():
    # the checked booleans the library computes or returns are all found
    sites = package_sites()
    texts = [text for found in sites.values() for _, _, _, text in found]
    for call in ("qq_check(", "qqstar_check(", "_ptolemy("):
        assert any(call in text for text in texts), call
    funcs = [func for found in sites.values() for func, _, _, _ in found]
    # two equation assignments, the determinant, the minor identification
    assert funcs.count("wronskian.check_wronskian") == 4
    assert funcs.count("wronskian.bruhat_check") == 1


def test_scan_resolves_names_and_skips_aggregates():
    source = (
        "def f(xs):\n"
        "    ok = xs == 1\n"
        "    entries = [{'ok': ok}, {'ok': True, 'n': 2}]\n"
        "    return {'ok': all(e['ok'] for e in entries)}\n"
        "def g(a, b):\n"
        "    both = all(e['ok'] for e in a)\n"
        "    return {'ok': both, **b}\n"
    )
    assert ok_sites(source, "m") == [
        ("m.f", 2, 2, "ok = xs == 1"),
        ("m.f", 3, 3, "'ok': True"),
    ]
