"""A cap on the library's settable values.

Every parameter with a default and every dataclass field with a default is
a value some caller may set, and so is every CLI tuning flag: each
``click.option`` in ``cli.py`` whose ``type`` is not a ``click.Path``
(paths are deployment settings).  Each one is a path to test and document,
so the count may only grow by raising ``SETTABLE_VALUES`` here, in view of
the change that adds the option.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "convex_order"
SETTABLE_VALUES = 3


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


def _is_path(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return isinstance(target, ast.Attribute) and target.attr == "Path"


def cli_tuning_flags(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "option"
        ):
            kind = next((k.value for k in node.keywords if k.arg == "type"), None)
            count += kind is None or not _is_path(kind)
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


def test_counts_cli_options_other_than_paths():
    source = '''
@click.command()
@click.argument("problem", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["a", "b"]), default="a")
@click.option("--tol", type=float, default=1e-8)
@click.option("--verbose", is_flag=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd(problem, method, tol, verbose, output):
    pass
'''
    assert cli_tuning_flags(source) == 3


def test_settable_values_stay_capped():
    paths = sorted(SOURCE.glob("*.py"))
    count = sum(settable_values(path.read_text()) for path in paths)
    count += cli_tuning_flags((SOURCE / "cli.py").read_text())
    assert count <= SETTABLE_VALUES, (
        f"src/convex_order has {count} settable values, above the cap of "
        f"{SETTABLE_VALUES}: make the new value a constant, or raise the cap"
    )
