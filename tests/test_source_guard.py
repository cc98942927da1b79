"""Static guard on the package source: no unused import in a module, and no
module-level private function or class that nothing in the package uses."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polyfunctor"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _used_names(node) -> set:
    """Names read in node: plain names, attribute names and the names that
    from-imports take from other modules."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used.update(alias.name for alias in sub.names)
    return used


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_the_guard_sees_the_package():
    assert {"functors.py", "parsing.py", "proofstep.py", "cli.py"} <= set(MODULES)


def test_no_unused_imports():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":  # its imports are the public surface
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{name}:{line} {bound}" for line, bound in _imported_names(tree) if bound not in read]
    assert unused == []


def test_every_private_definition_is_used():
    statements = [(node, _used_names(node)) for tree in MODULES.values() for node in tree.body]
    unused = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not node.name.startswith("_"):
                continue
            if node.name.startswith("__"):
                continue
            # a use inside its own definition (recursion) does not count
            if not any(node.name in used for other, used in statements if other is not node):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert unused == []
