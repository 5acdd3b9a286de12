"""Every exported name, public function and constant has a caller.

Each name in ``convex_order.__all__``, and each public module-level function
and upper-case constant of the package, must be read in the code of
``src/``, ``scripts/`` or ``benchmark/`` outside its own definition: as a
name or an attribute, not in an import, an assignment, a docstring or a
comment.  Names that only the tests call are listed in ``TEST_REFERENCES``,
each with its reason; click commands, which their decorator registers, need
no caller.  Each private module-level function and class must be read in
``src/`` itself, so a helper that only the tests call fails.
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
    read = isinstance(getattr(tree, "ctx", None), ast.Load)
    if read and isinstance(tree, ast.Name) and tree.id not in outside:
        found.add(tree.id)
    elif read and isinstance(tree, ast.Attribute) and tree.attr not in outside:
        found.add(tree.attr)
    for child in ast.iter_child_nodes(tree):
        found |= references(child, outside)
    return found


def referenced_names(directories=("src", "scripts", "benchmark")) -> set[str]:
    found = set()
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            found |= references(ast.parse(path.read_text()))
    return found


def _registers_a_command(decorator: ast.expr) -> bool:
    return (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr == "command")


def _module_nodes():
    for path in sorted((ROOT / "src" / "convex_order").glob("*.py")):
        yield from ast.parse(path.read_text()).body


def public_definitions() -> set[str]:
    """The package's public module-level functions, other than click
    commands, and its upper-case constants."""
    found = set()
    for node in _module_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not any(map(_registers_a_command, node.decorator_list)):
                found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}
    return {name for name in found if not name.startswith("_")}


def private_definitions() -> set[str]:
    """The package's private module-level functions and classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in _module_nodes()
            if isinstance(node, kinds) and node.name.startswith("_")}


def test_references_skip_comments_imports_and_own_definitions():
    source = '''
from .gaussian import imported
# commented()
ASSIGNED = 1
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
        "imported", "commented", "ASSIGNED", "recursive", "docstring", "Own"}


def test_public_definitions_leave_out_commands_and_private_names():
    found = public_definitions()
    assert {"project_pair", "transport_map_basis", "ORDER_REL", "EIG_TOL", "main"} <= found
    assert not found & {"cmd_distance", "_route", "_UNIT_KEYS", "__all__"}


def test_every_exported_name_has_a_caller():
    uncalled = set(convex_order.__all__) - referenced_names() - set(TEST_REFERENCES)
    assert not uncalled, f"exported names with no caller outside the tests: {sorted(uncalled)}"


def test_private_definitions_are_functions_and_classes():
    found = private_definitions()
    assert {"_route", "_TransportBasis", "_comonotone_vertex", "_ExitCodes"} <= found
    assert not found & {"_UNIT_KEYS", "_QP_TOL", "project_pair", "WotResult"}


def test_every_private_function_and_class_is_read_in_the_package():
    unread = private_definitions() - referenced_names(("src",))
    assert not unread, f"private names that only the tests read: {sorted(unread)}"


def test_every_public_function_and_constant_has_a_caller():
    uncalled = public_definitions() - referenced_names() - set(TEST_REFERENCES)
    assert not uncalled, f"public names with no caller outside the tests: {sorted(uncalled)}"


def test_test_references_are_exported_and_uncalled():
    # an entry that gains a caller, or leaves the package, leaves the list
    assert set(TEST_REFERENCES) <= set(convex_order.__all__)
    assert not set(TEST_REFERENCES) & referenced_names()
