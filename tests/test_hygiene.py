"""Static hygiene of the package: no module of src/jacsyz imports a name it
never uses, and no private helper is left without a caller.  AST only,
nothing is imported.  An imported name counts as used when the module reads
it, lists it in ``__all__``, or is an alias that the benchmark's tracer
(perfbench/spans.py, LAYERS) expects to find there."""

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


def names_read(tree):
    """Every name ``tree`` reads as a Name, an Attribute or a name of a
    ``from`` import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def orphaned_helpers(trees):
    """(module, line, name) of every ``_private`` function, class or method
    defined in ``trees`` (module name -> AST) that no tree reads
    (``names_read``).  Dunders are not private."""
    defined, read = [], set()
    for module, tree in trees.items():
        read |= names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    defined.append((module, node.lineno, name))
    return sorted(d for d in defined if d[2] not in read)


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


def test_checker_finds_an_orphaned_helper():
    trees = {
        "a": ast.parse("def _used(): pass\n"
                       "def _orphan(): pass\n"
                       "class _C:\n"
                       "    def _m(self): pass\n"
                       "    def __init__(self): self._n = _used\n"
                       "    def _called(self): return self._n\n"
                       "_C()._called()\n"),
        "b": ast.parse("from .a import _C\n"),
    }
    assert orphaned_helpers(trees) == [("a", 2, "_orphan"), ("a", 4, "_m")]


def test_no_orphaned_helpers_in_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_helpers(trees) == []


def test_only_syzygy_and_tjurina_read_the_mdr_scan():
    # tjurina._seeded_mdr is the one place that picks a curve's seed; every
    # other module scans through it, ``mdr`` or ``_trichotomy``
    readers = {path.stem for path in PACKAGE.glob("*.py")
               if "_mdr_scan" in names_read(ast.parse(path.read_text()))}
    assert readers == {"syzygy", "tjurina"}


def test_only_syzygy_reads_the_nullspace_helpers():
    # outside syzygy a classification takes ranks plus the one certificate
    # (``_first_syzygy`` or ``ar_slice``), never a nullspace of its own
    helpers = {"_slice_nullspace", "_vector_to_triple", "_reverified"}
    readers = {path.stem for path in PACKAGE.glob("*.py")
               if helpers & names_read(ast.parse(path.read_text()))}
    assert readers == {"syzygy"}
