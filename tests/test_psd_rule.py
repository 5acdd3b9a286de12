"""One PSD rule: ``EIG_TOL`` is read only where the library tests for PSD.

``linalg._validated_eigh`` is the one reader of a caller's PSD matrix: it
tests the matrix at its own unit scale, and ``bures.bw2`` reads both its
covariances through it, as the Gaussian pair record does.  A function
anywhere else in ``src/`` that reads ``EIG_TOL`` would draw a second PSD
line, at a scale of its own, which is how the readers came to disagree at
small scale; a read that comes back fails here.  The reads are found by
``ast``: a bare name, an attribute (``linalg.EIG_TOL``) or an import under
another name, each attributed to its innermost enclosing function.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "convex_order"
NAME = "EIG_TOL"
# (module, function) of each read the rule allows, once each
ALLOWED = [("linalg.py", "_validated_eigh")]


def tolerance_reads(source: str) -> list[tuple[str | None, int]]:
    """``(function, line)`` of each read of ``EIG_TOL`` in ``source``, with
    ``function`` the innermost enclosing ``def`` (``None`` at module level)."""
    reads = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if ((isinstance(child, ast.Name) and child.id == NAME
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == NAME)
                    or (isinstance(child, ast.alias) and child.name == NAME
                        and child.asname not in (None, NAME))):
                reads.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(reads, key=lambda read: read[1])


def library_reads(sources: dict[str, str]) -> list[tuple[str, str | None]]:
    """``(module, function)`` of each read of ``EIG_TOL`` in ``sources``."""
    return sorted((module, owner) for module, source in sources.items()
                  for owner, _ in tolerance_reads(source))


def _library() -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(SOURCE.glob("*.py"))}


def test_finds_reads_by_name_through_a_module_and_under_an_alias():
    source = '''
from .linalg import EIG_TOL as SLACK
EIG_TOL = 1e-12


def reader(m):
    low = np.linalg.eigvalsh(m)[0]
    return low >= -EIG_TOL * (1.0 + abs(low))


class Checker:
    def check(self, low):
        return low >= -linalg.EIG_TOL
'''
    assert tolerance_reads(source) == [(None, 2), ("reader", 8), ("check", 13)]


def test_eig_tol_is_read_only_by_the_psd_tests():
    assert library_reads(_library()) == ALLOWED


def test_a_planted_reader_is_caught():
    sources = _library()
    sources["gaussian.py"] += '''

def _psd_at_caller_scale(matrix):
    vals = np.linalg.eigvalsh(matrix)
    return vals[0] >= -EIG_TOL * (1.0 + abs(vals).max())
'''
    sources["measures.py"] += "\nSLACK = 2 * EIG_TOL\n"
    assert library_reads(sources) == [("gaussian.py", "_psd_at_caller_scale"), *ALLOWED,
                                      ("measures.py", None)]
