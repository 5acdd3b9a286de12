"""No numpy Python-level wrapper on the Gaussian route or in the WOT engine.

``np.sum``, ``np.trace``, ``np.any``, ``np.all``, ``np.clip``, ``np.outer``,
``np.max``, ``np.min`` and ``np.linalg.norm`` are Python functions that
dispatch, check their arguments and forward to an ndarray method or a ufunc
(``x.sum()``, ``x.trace()``, ``x.any()``, ``x.all()``, ``np.maximum``,
broadcasting, ``x.max()``, ``x.min()``, ``math.sqrt(np.vdot(x, x))``), which
do the same floating-point operations.  On the small matrices of a Gaussian
solve that forwarding cost about a tenth of a full-rank solve, and the WOT
engine (``discrete.py``) would pay it many times in every Newton step and
simplex pivot of its small instances, so these modules call the method or
ufunc directly.  A call that comes back fails here.

The descent reads the Gaussian solver's pair record, validated and
decomposed once, so ``pgd.py`` calls none of the functions that symmetrise,
check or decompose raw input; a call that comes back fails here too.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "convex_order"
HOT_PATH = ("pgd.py", "gaussian.py", "linalg.py", "bures.py", "discrete.py")
WRAPPERS = frozenset({
    "np.sum", "np.trace", "np.any", "np.all", "np.clip", "np.outer", "np.max", "np.min",
    "np.linalg.norm",
})
# what validates or decomposes raw input, which the descent's record already is
RAW_INPUT = frozenset({"square_symmetric", "_validated_eigh", "sym", "require_finite"})


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


def raw_input_calls(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each call in ``source`` to a function of
    ``RAW_INPUT``, by its bare name or through a module."""
    return sorted(
        (node.lineno, name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and (name := _dotted(node.func))
        and name.rsplit(".", 1)[-1] in RAW_INPUT
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


def test_hot_path_calls_no_wrapper():
    found = [
        f"{name}:{line} {call}"
        for name in HOT_PATH
        for line, call in wrapper_calls((SOURCE / name).read_text())
    ]
    assert found == [], f"numpy wrappers on the hot path: {found}"


def test_finds_raw_input_calls_by_name_and_through_a_module():
    source = '''
m, vals, vecs, k = _validated_eigh(m, "m")
half = linalg.square_symmetric(m, "m") + symmetric(m) + sym(m)
outcome = pgd_project_above(nu, nu_eig, mu, mu_vals)
'''
    assert raw_input_calls(source) == [(2, "_validated_eigh"), (3, "linalg.square_symmetric"),
                                       (3, "sym")]


def test_descent_neither_checks_nor_decomposes_again():
    found = raw_input_calls((SOURCE / "pgd.py").read_text())
    assert found == [], f"the descent validates or decomposes its record again: {found}"
