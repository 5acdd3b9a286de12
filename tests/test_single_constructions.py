"""Each object of the Gaussian engine is built in one place.

The rank cutoff ``d * lambda_max * RANK_REL`` is ``linalg.default_rank_tol``
alone: the positive-diagonal mask, the Bures gradient's floor, the pair
record's rank and the uniqueness verdict all call it, so ``RANK_REL`` has one
reader.  And no dense matrix is rebuilt from a spectrum to test saturation:
the test reads the descent's inner matrix in the record's eigenframe of the
target, so ``linalg`` defines no ``_rebuild``.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "convex_order"


def _reads(node: ast.AST, name: str) -> bool:
    """Does ``node`` load ``name``, as a bare name, through a module or by import?"""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Attribute):
        return node.attr == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.alias):
        return node.name == name
    return False


def readers(source: str, name: str) -> list[str]:
    """The top-level function or class of ``source`` around each read of
    ``name`` (``"<module>"`` for a read outside them), in order."""
    found = []
    for statement in ast.parse(source).body:
        owner = getattr(statement, "name", "<module>")
        found += [owner for node in ast.walk(statement) if _reads(node, name)]
    return found


def top_level_names(source: str) -> set[str]:
    """The names that ``source`` defines at module level."""
    names = set()
    for statement in ast.parse(source).body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names.add(statement.name)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            names |= {node.id for target in targets for node in ast.walk(target)
                      if isinstance(node, ast.Name)}
    return names


def test_finds_readers_by_name_through_a_module_and_by_import():
    source = '''
from .linalg import RANK_REL
RANK_REL = 2.0**-50
def cutoff(vals):
    return vals.size * vals.max() * RANK_REL
def mask(diag):
    return diag > diag.size * diag.max() * linalg.RANK_REL
class Rule:
    def floor(self, vals):
        return RANK_REL
_rebuild = lambda vals, vecs: (vecs * vals) @ vecs.T
'''
    assert readers(source, "RANK_REL") == ["<module>", "cutoff", "mask", "Rule"]
    assert {"cutoff", "mask", "Rule", "_rebuild", "RANK_REL"} <= top_level_names(source)


def test_the_rank_cutoff_has_one_reader():
    found = [f"{path.name}:{owner}" for path in sorted(SOURCE.glob("*.py"))
             for owner in readers(path.read_text(), "RANK_REL")]
    assert found == ["linalg.py:default_rank_tol"]


def test_no_dense_rebuild_from_a_spectrum():
    assert "_rebuild" not in top_level_names((SOURCE / "linalg.py").read_text())
