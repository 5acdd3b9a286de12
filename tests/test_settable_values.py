"""A cap on the library's settable values.

Every parameter with a default and every dataclass field with a default is
a value some caller may set.  Each one is a path to test and document, so
the count may only grow by raising ``SETTABLE_VALUES`` here, in view of the
change that adds the option.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "convex_order"
SETTABLE_VALUES = 23


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                for stmt in node.body
            )
    return count


def test_counts_defaults_and_dataclass_fields():
    source = '''
@dataclass(frozen=True)
class Config:
    a: int
    b: int = 1
    c: list = field(default_factory=list)

class Plain:
    d: int = 2

def f(x, y=1, *, z=2, w):
    return x
'''
    assert settable_values(source) == 2 + 2


def test_settable_values_stay_capped():
    count = sum(settable_values(path.read_text()) for path in sorted(SOURCE.glob("*.py")))
    assert count <= SETTABLE_VALUES, (
        f"src/convex_order has {count} settable values, above the cap of "
        f"{SETTABLE_VALUES}: make the new value a constant, or raise the cap"
    )
