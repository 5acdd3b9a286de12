"""No numpy Python-level wrapper on the Gaussian route.

``np.sum``, ``np.trace``, ``np.any``, ``np.all``, ``np.clip``, ``np.outer``,
``np.max``, ``np.min`` and ``np.linalg.norm`` are Python functions that
dispatch, check their arguments and forward to an ndarray method or a ufunc
(``x.sum()``, ``x.trace()``, ``x.any()``, ``x.all()``, ``np.maximum``,
broadcasting, ``x.max()``, ``x.min()``, ``math.sqrt(np.vdot(x, x))``), which
do the same floating-point operations.  On the small matrices of a Gaussian
solve that forwarding cost about a tenth of a full-rank solve, so the modules
the solve runs through call the method or ufunc directly.  A call that comes
back fails here.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "convex_order"
HOT_PATH = ("pgd.py", "gaussian.py", "linalg.py", "bures.py")
WRAPPERS = frozenset({
    "np.sum", "np.trace", "np.any", "np.all", "np.clip", "np.outer", "np.max", "np.min",
    "np.linalg.norm",
})


def _dotted(node: ast.expr) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def wrapper_calls(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each call to a wrapper in ``source``, in order."""
    return sorted(
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (name := _dotted(node.func)) in WRAPPERS
    )


def test_finds_wrappers_and_not_methods():
    source = '''
total = np.sum(x) + x.sum() + np.trace(m) + m.trace()
size = np.linalg.norm(m) + math.sqrt(np.vdot(m, m))
flat = np.maximum(x, 0.0) + np.clip(x, 0.0, None)
'''
    assert wrapper_calls(source) == [
        (2, "np.sum"), (2, "np.trace"), (3, "np.linalg.norm"), (4, "np.clip"),
    ]


def test_gaussian_route_calls_no_wrapper():
    found = [
        f"{name}:{line} {call}"
        for name in HOT_PATH
        for line, call in wrapper_calls((SOURCE / name).read_text())
    ]
    assert found == [], f"numpy wrappers on the Gaussian route: {found}"
