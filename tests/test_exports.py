"""Every exported name has a caller.

Each name in ``convex_order.__all__`` must be referenced in the code of
``src/``, ``scripts/`` or ``benchmark/`` outside its own definition: as a
name or an attribute, not in an import, a docstring or a comment.  Names
that only the tests call are listed in ``TEST_REFERENCES``, each with its
reason.
"""

import ast
from pathlib import Path

import convex_order

ROOT = Path(__file__).resolve().parents[1]
TEST_REFERENCES = {
    "bw2_gradient": "the finite-difference and symmetry reference for the Bures gradient",
    "frobenius_project_above": "the symmetrising reference for the descent's cone projection",
    "is_convex_ordered_1d": "the convex-order test the 1-d projections are checked with",
    "is_above_projection_unique": "the public uniqueness verb, which needs no solve",
}


def references(tree: ast.AST, outside: frozenset = frozenset()) -> set[str]:
    """Names and attributes read in ``tree``; within the definition of a
    function or class, its own name does not count."""
    found = set()
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        outside = outside | {tree.name}
    if isinstance(tree, ast.Name) and tree.id not in outside:
        found.add(tree.id)
    elif isinstance(tree, ast.Attribute) and tree.attr not in outside:
        found.add(tree.attr)
    for child in ast.iter_child_nodes(tree):
        found |= references(child, outside)
    return found


def referenced_names() -> set[str]:
    found = set()
    for directory in ("src", "scripts", "benchmark"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            found |= references(ast.parse(path.read_text()))
    return found


def test_references_skip_comments_imports_and_own_definitions():
    source = '''
from .gaussian import imported
# commented()
def recursive(n):
    """docstring()"""
    return recursive(n - 1)
class Own:
    def method(self):
        return Own()
used(module.attribute)
'''
    assert references(ast.parse(source)) >= {"used", "module", "attribute"}
    assert not references(ast.parse(source)) & {
        "imported", "commented", "recursive", "docstring", "Own"}


def test_every_exported_name_has_a_caller():
    uncalled = set(convex_order.__all__) - referenced_names() - set(TEST_REFERENCES)
    assert not uncalled, f"exported names with no caller outside the tests: {sorted(uncalled)}"


def test_test_references_are_exported_and_uncalled():
    # an entry that gains a caller, or leaves the package, leaves the list
    assert set(TEST_REFERENCES) <= set(convex_order.__all__)
    assert not set(TEST_REFERENCES) & referenced_names()
