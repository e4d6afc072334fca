"""Every function, class and method in `manet_lab` is reached from the program.

A stdlib `ast` check in the style of test_unused_imports.py: `src/` should
hold the simulator and the benchmark's view of it, not code that only the
test suite calls. Reach is name-based and grows to a fixed point:

- roots are the names that module-level code reads (outside function and
  class bodies), the strings in each `__all__`, every name and attribute in
  `perfbench/`, and each dotted part of the site strings in
  `perfbench/tracer.py`;
- a top-level function, class or non-dunder method is reached when its
  name is, and then every name its body reads is reached too.

Docstrings and comments in `src/` are not code and reach nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "manet_lab"
PERFBENCH = ROOT / "perfbench"

# Definitions allowed to stay unreached. Empty: a reference that tests
# compare against lives under tests/, not in src/.
ALLOWED: set[str] = set()


def names_read(nodes):
    """Every identifier read as a name or an attribute under `nodes`."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def definitions(module, tree):
    """(qualified name, bare name, body nodes) per checked definition, and
    the module-level nodes that run at import."""
    defs, top = [], []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((f"{module}.{stmt.name}", stmt.name, [stmt]))
        elif isinstance(stmt, ast.ClassDef):
            own = stmt.bases + stmt.keywords + stmt.decorator_list
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name.startswith("__") and item.name.endswith("__"):
                        own.append(item)  # called by the language itself
                    else:
                        defs.append((f"{module}.{stmt.name}.{item.name}",
                                     item.name, [item]))
                else:
                    own.append(item)
            defs.append((f"{module}.{stmt.name}", stmt.name, own))
        else:
            top.append(stmt)
    return defs, top


def exported(tree):
    return {elt.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def perfbench_roots():
    roots = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        roots |= names_read([tree])
        if path.name == "tracer.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    roots.update(node.value.split("."))
    return roots


def unreached():
    defs, reached = [], perfbench_roots()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module_defs, top = definitions(path.stem, tree)
        defs += module_defs
        reached |= names_read(top) | exported(tree)
    pending = list(defs)
    while True:
        hit = [d for d in pending if d[1] in reached]
        if not hit:
            break
        for d in hit:
            pending.remove(d)
            reached |= names_read(d[2])
    return sorted(qualified for qualified, _, _ in pending)


def test_every_definition_is_reached_from_src_or_perfbench():
    assert [name for name in unreached() if name not in ALLOWED] == []


def test_allowlist_names_only_unreached_definitions():
    assert ALLOWED <= set(unreached())
