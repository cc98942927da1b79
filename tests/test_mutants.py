"""The recorded mutants of tests/mutants.json cannot rot: each old text still
occurs exactly once in its file, and each named test still exists.  CI applies
them (tests/mutants.py); tier-1 only checks that they still apply."""

import ast

import pytest

import mutants
import pinned_runs

MUTANTS = mutants.load()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant["name"] for mutant in MUTANTS])
def test_each_mutant_still_applies_once(mutant):
    assert (mutants.ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"] and mutant["tests"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant["name"] for mutant in MUTANTS])
def test_each_named_test_exists(mutant):
    pinned = {entry["name"] for entry in pinned_runs.load()}
    for test in mutant["tests"]:
        path, name = test.split("::")
        function, _, case = name.partition("[")
        tree = ast.parse((mutants.ROOT / path).read_text())
        assert function in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, test
        if function == "test_pinned_run":
            assert case.rstrip("]") in pinned, test


def test_a_mutant_survives_unless_each_named_test_fails():
    mutant = {"tests": ["tests/a.py::test_x", "tests/a.py::test_y[q]"]}
    assert mutants.survivors(mutant, {"tests/a.py::test_x[fp:3]", "tests/a.py::test_y[q]"}) == []
    assert mutants.survivors(mutant, {"tests/a.py::test_x", "tests/a.py::test_y[fp:3]"}) == ["tests/a.py::test_y[q]"]
    assert mutants.survivors(mutant, {"tests/a.py::test_xy"}) == mutant["tests"]
