"""README.md's list "Every exported function that reads a raw matrix (...)"
names exactly the public functions and classes of ``src/`` that reach the
gate, ``linalg.square_symmetric``: by a call of their own, or through other
functions of the package.  So a reader that gains or loses the gate cannot
keep its old place in the documentation.  The calls are read by ``ast``:
nothing runs.  Click commands, which read problem files, are left out."""

import ast
import re
from pathlib import Path

from test_exports import _registers_a_command

ROOT = Path(__file__).resolve().parents[1]
GATE = "square_symmetric"
LIST = re.compile(r"Every exported function that reads a raw matrix \(([^)]*)\)")


def readme_readers(text: str) -> set[str]:
    """The names in the README's list, without their module prefix."""
    match = LIST.search(" ".join(text.split()))
    assert match, "README.md lost its list of raw-matrix readers"
    return {name.rsplit(".", 1)[-1] for name in re.findall(r"`([\w.]+)`", match.group(1))}


def _called(node: ast.AST) -> set[str]:
    """Names called in ``node``, bare or through a module or object."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))}


def gate_readers(sources: list[str]) -> set[str]:
    """The public module-level functions and classes of ``sources``, click
    commands aside, that call the gate or a definition of ``sources`` that
    reaches it."""
    calls = {node.name: _called(node)
             for source in sources for node in ast.parse(source).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not any(map(_registers_a_command, node.decorator_list))}
    reach = {GATE}
    while more := {name for name, called in calls.items() if called & reach} - reach:
        reach |= more
    return {name for name in reach - {GATE} if not name.startswith("_")}


def test_the_list_and_the_readers_are_read():
    text = "* Every exported function that reads a raw\nmatrix (`f`, `linalg.g`) raises."
    assert readme_readers(text) == {"f", "g"}
    source = '''
def direct(m):
    return square_symmetric(m, "m")
def _helper(m):
    return linalg.square_symmetric(m, "m")
def indirect(m):
    return _helper(m)
class Measure:
    def __post_init__(self):
        direct(self.cov)
def unrelated(m):
    return m
@main.command("cmd")
def cmd(path):
    return direct(path)
'''
    assert gate_readers([source]) == {"direct", "indirect", "Measure"}


def test_the_readme_names_every_reader_of_the_gate():
    sources = [path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))]
    listed = readme_readers((ROOT / "README.md").read_text())
    assert listed == gate_readers(sources)
