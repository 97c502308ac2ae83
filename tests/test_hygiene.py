"""Static hygiene of the package: no module of src/jacsyz imports a name it
never uses.  AST only, nothing is imported.  A name counts as used when the
module reads it, lists it in ``__all__``, or is an alias that the
benchmark's tracer (perfbench/spans.py, LAYERS) expects to find there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jacsyz"
SPANS = ROOT / "perfbench" / "spans.py"


def traced_aliases():
    """(module, name) pairs of the aliases listed in spans.LAYERS."""
    tree = ast.parse(SPANS.read_text())
    pairs = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Layer" and len(node.args) >= 3):
            attr = ast.literal_eval(node.args[1])
            for module in ast.literal_eval(node.args[2]):
                pairs.add((module, attr.split(".")[0]))
    return pairs


def unused_imports(tree, module, allowed=frozenset()):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and (module, name) not in allowed)


def test_traced_aliases_are_read_from_spans():
    assert ("tjurina", "mdr") in traced_aliases()
    assert ("tjurina", "rank_mod_np") in traced_aliases()


def test_checker_finds_an_unused_import():
    tree = ast.parse("import os\nfrom .a import b, c as d\nprint(d)\n")
    assert unused_imports(tree, "m") == [(1, "os"), (2, "b")]
    assert unused_imports(tree, "m", {("m", "b"), ("m", "os")}) == []


def test_no_unused_imports_in_package():
    allowed = traced_aliases()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for line, name in unused_imports(tree, path.stem, allowed):
            found.append(f"{path.name}:{line}: {name}")
    assert found == []
