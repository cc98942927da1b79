"""Static guard on the package source: no unused import in a module, no
module-level private function or class that nothing in the package uses, and
no public one that nothing reads: not the package, not the benchmark's jobs,
not README's "What is inside" table."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyfunctor"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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


def test_no_name_is_imported_twice():
    """A second module-level import of a bound name is dead, and
    test_no_unused_imports cannot see it: the name is read."""
    twice = []
    for name, tree in MODULES.items():
        bound = [b for _, b in _imported_names(tree)]
        twice += [f"{name}:{line} {b}" for n, (line, b) in enumerate(_imported_names(tree)) if b in bound[:n]]
    assert twice == []


def test_no_module_imports_dataclasses_or_typing():
    """Records derive from errors.Record: dataclasses (with the inspect module
    it loads) and typing would cost every command line call their import."""
    slow = {"dataclasses", "typing"}
    imports = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [(name, node.lineno, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((name, node.lineno, node.module))
    assert [f"{name}:{line} {module}" for name, line, module in imports if module.split(".")[0] in slow] == []


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


def _readme_surface() -> set:
    """Every dotted part of the code spans in the rows of README's "What is
    inside" table."""
    section = (ROOT / "README.md").read_text().split("## What is inside", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    return {part for span in re.findall(r"`([\w.]+)`", table) for part in span.split(".")}


def _unread_public(modules, workloads: set, readme: set) -> list:
    """Public module-level functions and classes that no statement of another
    definition in the package reads (an __init__ export does not count), that
    the benchmark's jobs do not read and that README's table does not name;
    cli's cmd_* handlers are dispatched by name and exempt."""
    statements = [(node, _used_names(node)) for name, tree in modules.items() if name != "__init__.py" for node in tree.body]
    unread = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if name == "cli.py" and node.name.startswith("cmd_"):
                continue
            if node.name in workloads or node.name in readme:
                continue
            if not any(node.name in used for other, used in statements if other is not node):
                unread.append(f"{name}:{node.lineno} {node.name}")
    return unread


def test_every_public_definition_is_read():
    assert _unread_public(MODULES, _used_names(ast.parse(WORKLOADS.read_text())), _readme_surface()) == []


def test_the_public_guard_flags_an_unread_function():
    extra = dict(MODULES, **{"extra.py": ast.parse("def orphan():\n    return orphan\n")})
    unread = _unread_public(extra, _used_names(ast.parse(WORKLOADS.read_text())), _readme_surface())
    assert "extra.py:1 orphan" in unread


# GradedPoly.convert matches variables by name.  A generic coordinate name
# p{i}_{pos} names another basis vector in the coordinate model of another
# dimension, so a polynomial moves between models by label
# (CoordinateModel.names_in), and each convert( call in the package is one
# that stays in a single model, listed here with its target ring.
SAME_MODEL_CONVERTS = {
    # the check's joint ring is model_big's ring plus one copy per moving coordinate
    "proofstep.py _check_derivative_formula coeff.convert(joint_ring)",
}


def _converts(modules) -> set:
    """Every .convert( call in modules, as "module function call"."""
    found = set()
    for name, tree in modules.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "convert":
                    found.add(f"{name} {getattr(top, 'name', '')} {ast.unparse(node)}")
    return found


def test_no_polynomial_is_converted_across_coordinate_models():
    assert _converts(MODULES) == SAME_MODEL_CONVERTS


def test_the_convert_guard_sees_a_conversion_into_a_bigger_model():
    extra = {"extra.py": ast.parse("def run(step, model_big):\n    return step.derivative.convert(model_big.ring)\n")}
    assert _converts(dict(MODULES, **extra)) - SAME_MODEL_CONVERTS == {
        "extra.py run step.derivative.convert(model_big.ring)"}
