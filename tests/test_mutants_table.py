"""The mutant table in ``mutants.py`` still points at real code and tests.

No mutant runs here; ``python tests/mutants.py`` runs them."""

import ast

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(m):
    assert m.old != m.new
    assert (ROOT / "src" / "upblab" / m.path).read_text(encoding="utf-8").count(m.old) == 1


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(m):
    assert m.node_ids
    for node in m.node_ids:
        path, _, test = node.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        names = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert test.split("[")[0] in names, node
