"""Every name a `manet_lab` module imports is used, or re-exported.

A stdlib `ast` check in place of a linter. A name counts as used when the
module reads it, lists it in `__all__`, or another `manet_lab` module
imports it from this one (the way aodv takes `clone` from radio).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "manet_lab"


def imported_names(tree):
    """(bound name, source module or None, original name) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], None, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = node.module if node.level == 1 else None
            for alias in node.names:
                yield alias.asname or alias.name, source, alias.name


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_no_unused_imports():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    reexported = {(source, name)
                  for tree in trees.values()
                  for _, source, name in imported_names(tree) if source}
    unused = []
    for module, tree in trees.items():
        used = used_names(tree)
        for bound, _, _ in imported_names(tree):
            if bound not in used and (module, bound) not in reexported:
                unused.append(f"{module}.py: {bound}")
    assert unused == []
