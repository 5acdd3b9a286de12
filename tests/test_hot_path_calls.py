"""No numpy Python-level wrapper on the Gaussian route or in the WOT engine.

``np.sum``, ``np.trace``, ``np.any``, ``np.all``, ``np.clip``, ``np.outer``,
``np.max``, ``np.min``, ``np.linalg.norm``, ``np.linalg.eigh``,
``np.linalg.eigvalsh`` and ``np.linalg.solve`` are Python functions that
dispatch, check their arguments and forward to an ndarray method or a ufunc
(``x.sum()``, ``x.trace()``, ``x.any()``, ``x.all()``, ``np.maximum``,
broadcasting, ``x.max()``, ``x.min()``, ``math.sqrt(np.vdot(x, x))``, and
LAPACK's gufuncs, which ``linalg._eigh``, ``linalg._eigvalsh`` and
``linalg._solve`` call), which do the same floating-point operations.  On the small matrices of a Gaussian
solve that forwarding cost about a tenth of a full-rank solve, and the WOT
engine (``discrete.py``) would pay it many times in every Newton step and
simplex pivot of its small instances, so these modules call the method or
ufunc directly.  A call that comes back fails here.

The descent reads the Gaussian solver's pair record, validated and
decomposed once, so ``pgd.py`` calls none of the functions that symmetrise,
check or decompose raw input; a call that comes back fails here too.  It
runs in the target's eigenbasis, where the target's square root is the
vector ``sqrt(lambda)`` and scales entrywise, so ``pgd.py`` neither rebuilds
a dense matrix from a spectrum nor multiplies matrices: a dense root of the
target would be of no use without a matrix product.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "convex_order"
HOT_PATH = ("pgd.py", "gaussian.py", "linalg.py", "bures.py", "discrete.py")
WRAPPERS = frozenset({
    "np.sum", "np.trace", "np.any", "np.all", "np.clip", "np.outer", "np.max", "np.min",
    "np.linalg.norm", "np.linalg.eigh", "np.linalg.eigvalsh", "np.linalg.solve",
})
# the wrappers of the LAPACK gufuncs that linalg binds
BOUND = frozenset({"np.linalg.eigh", "np.linalg.eigvalsh", "np.linalg.solve"})
# what validates or decomposes raw input, which the descent's record already is
RAW_INPUT = frozenset({"square_symmetric", "_validated_eigh", "sym", "require_finite"})
# what forms a dense matrix from a spectrum, or multiplies by one
DENSE_ROOT = frozenset({"_rebuild", "np.dot", "np.matmul", "np.einsum", "np.linalg.multi_dot",
                        "bw2"})


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
low = np.linalg.eigvalsh(m)[0] + np.linalg.eigh(m)[0][0] + _eigvalsh(m)[0]
step = np.linalg.solve(m, b) + _solve(m, b) + np.linalg.lstsq(m, b)[0]
'''
    assert wrapper_calls(source) == [
        (2, "np.sum"), (2, "np.trace"), (3, "np.linalg.norm"), (4, "np.clip"),
        (5, "np.linalg.eigh"), (5, "np.linalg.eigvalsh"), (6, "np.linalg.solve"),
    ]


def test_hot_path_calls_no_wrapper():
    found = [
        f"{name}:{line} {call}"
        for name in HOT_PATH
        for line, call in wrapper_calls((SOURCE / name).read_text())
    ]
    assert found == [], f"numpy wrappers on the hot path: {found}"


def test_one_module_binds_the_eigensolvers_and_the_solve():
    # numpy's LAPACK gufuncs are private to numpy, so one module names them
    # and every eigensolve and linear solve in the library goes through its
    # three entries
    modules = sorted(SOURCE.glob("*.py"))
    assert [path.name for path in modules if "_umath_linalg" in path.read_text()] == ["linalg.py"]
    found = [f"{path.name}:{line} {call}" for path in modules
             for line, call in wrapper_calls(path.read_text()) if call in BOUND]
    assert found == [], f"eigensolves or solves around the binding: {found}"


def test_finds_raw_input_calls_by_name_and_through_a_module():
    source = '''
m, vals, vecs, k = _validated_eigh(m, "m")
half = linalg.square_symmetric(m, "m") + symmetric(m) + sym(m)
outcome = pgd_project_above(nu_vals, mu)
'''
    assert raw_input_calls(source) == [(2, "_validated_eigh"), (3, "linalg.square_symmetric"),
                                       (3, "sym")]


def test_descent_neither_checks_nor_decomposes_again():
    found = raw_input_calls((SOURCE / "pgd.py").read_text())
    assert found == [], f"the descent validates or decomposes its record again: {found}"


def dense_root_uses(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each call in ``source`` to a function of
    ``DENSE_ROOT`` (by its bare name or through a module) and of each ``@``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call) and (name := _dotted(node.func)) and (
                name in DENSE_ROOT or name.rsplit(".", 1)[-1] in DENSE_ROOT):
            found.append((node.lineno, name))
    return sorted(found)


def test_finds_dense_roots_and_products():
    source = '''
half = _rebuild(np.sqrt(vals), vecs)
inner = half @ s @ half
inner = linalg._rebuild(root, vecs) + np.dot(a, b) + s * weights
w @= v
value = bw2(nu, s) + vals.sum()
'''
    assert dense_root_uses(source) == [
        (2, "_rebuild"), (3, "@"), (3, "@"), (4, "linalg._rebuild"), (4, "np.dot"), (5, "@"),
        (6, "bw2"),
    ]


def test_descent_forms_no_dense_root_of_its_target():
    source = (SOURCE / "pgd.py").read_text()
    assert dense_root_uses(source) == [], "the descent forms a dense root of its target"
    # a planted dense root, as the descent once formed it, is caught
    planted = source + "\nhalf = _rebuild(np.sqrt(nu_vals), vecs)\ninner = half @ s @ half\n"
    lines = len(source.splitlines())
    assert dense_root_uses(planted) == [(lines + 2, "_rebuild"), (lines + 3, "@"),
                                        (lines + 3, "@")]
