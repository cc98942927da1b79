"""Static guard on the package source: no unused import in a module, no
module-level private function or class that nothing in the package uses, and
no public one that nothing reads: not the package, not the benchmark's jobs,
not README's "What is inside" table; no field of a record that nothing of
these reads, other than the record's own __post_init__; and no second
rank-one runner next to the stage runner.  And on the CI workflow: it runs the command line only
through the pinned-run table."""

import ast
import re
from collections import Counter
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


def _attribute_reads(node) -> Counter:
    """The attribute names read (not assigned or deleted) in node, counted."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _unread_fields(modules, workloads: set, readme: set) -> list:
    """The fields of the module-level Record subclasses in modules that no
    attribute read in modules reads, apart from those in the class's own
    __post_init__, that the benchmark's jobs do not read and that README's
    table does not name."""
    reads = sum((_attribute_reads(tree) for tree in modules.values()), Counter())
    unread = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or "Record" not in {ast.unparse(base) for base in node.bases}:
                continue
            own = sum((_attribute_reads(d) for d in node.body if getattr(d, "name", "") == "__post_init__"), Counter())
            for field in node.body:
                if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name):
                    key = field.target.id
                    if reads[key] <= own[key] and key not in workloads and key not in readme:
                        unread.append(f"{name}:{field.lineno} {node.name}.{key}")
    return unread


def _workload_reads(tree) -> set:
    """The attribute names the benchmark's jobs read, other than those
    workloads.py defines itself (its job fields and methods)."""
    own = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {node.target.id for node in ast.walk(tree) if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}
    return set(_attribute_reads(tree)) - own


def test_every_record_field_is_read():
    assert _unread_fields(MODULES, _workload_reads(ast.parse(WORKLOADS.read_text())), _readme_surface()) == []


def test_the_field_guard_flags_a_field_read_only_by_its_own_check():
    extra = dict(MODULES, **{"extra.py": ast.parse(
        "class Pair(Record):\n    left: int\n    unread_right: int\n\n"
        "    def __post_init__(self):\n        assert self.unread_right\n\n\n"
        "def first(pair):\n    return pair.left\n")})
    unread = _unread_fields(extra, _workload_reads(ast.parse(WORKLOADS.read_text())), _readme_surface())
    assert [line for line in unread if line.startswith("extra.py")] == ["extra.py:3 Pair.unread_right"]


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


# The rank-one example is the stage runner on a presentation parametrised by
# the Segre map: the presentation's builder names that map, the stage runner
# builds every image through it, and no second runner substitutes into it.
SEGRE_READERS = {"proofstep.py run_rank_one_example", "proofstep.py _run_stages"}


def _segre_readers(modules) -> set:
    """Each module-level definition that reads a _segre_* name, other than
    its own, as "module definition"."""
    found = set()
    for name, tree in modules.items():
        for top in tree.body:
            own = getattr(top, "name", "")
            if any(used.startswith("_segre_") and used != own for used in _used_names(top)):
                found.add(f"{name} {own}")
    return found


def _substitutes_in(tree, function: str) -> list:
    """The .substitute( calls inside the module-level function of that name."""
    top = next(node for node in tree.body if getattr(node, "name", "") == function)
    return [ast.unparse(node) for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "substitute"]


def test_only_the_presentation_builder_and_the_stage_runner_read_the_segre_names():
    assert _segre_readers(MODULES) <= SEGRE_READERS
    segre = {node.name for tree in MODULES.values() for node in tree.body if getattr(node, "name", "").startswith("_segre_")}
    assert segre == {"_segre_map"}
    assert _substitutes_in(MODULES["proofstep.py"], "run_rank_one_example") == []


def test_the_segre_guard_sees_a_second_runner():
    extra = {"extra.py": ast.parse("def sample(report):\n    return report.f.substitute(_segre_map(report.model_big))\n")}
    assert _segre_readers(dict(MODULES, **extra)) - SEGRE_READERS == {"extra.py sample"}
    assert _substitutes_in(extra["extra.py"], "sample") == ["report.f.substitute(_segre_map(report.model_big))"]


# The workflow's pinned runs live in tests/pinned_runs.json, which tier-1 reads
# too; a command line call written into the workflow itself would be a pin
# that only CI sees.
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TABLE_RUNNER = 'python "$GITHUB_WORKSPACE/tests/pinned_runs.py"'


def _cli_calls(text: str) -> list:
    """The lines of a workflow, comments cut, that name the polyfunctor command
    itself (not the package polyfunctor.cli nor the directory src/polyfunctor)."""
    lines = [line.split("#")[0].strip() for line in text.splitlines()]
    return [line for line in lines if re.search(r"(?<![\w./-])polyfunctor(?![\w./-])", line)]


def test_the_workflow_calls_the_command_line_only_through_the_table_runner():
    text = WORKFLOW.read_text()
    assert _cli_calls(text) == []
    assert [line.strip() for line in text.splitlines()].count(TABLE_RUNNER) == 1


def test_the_workflow_guard_sees_an_inline_pin():
    step = 'timeout 10 polyfunctor dim --n 3 > dim.txt  # pinned\npython -m polyfunctor hasse\nimport polyfunctor.cli\n'
    assert _cli_calls(step) == ["timeout 10 polyfunctor dim --n 3 > dim.txt", "python -m polyfunctor hasse"]
