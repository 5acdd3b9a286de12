"""Span tracing installed from outside the library.

``Tracer.install`` wraps the public functions of each traced module of
``convex_order`` (and ``numpy.linalg.eigh``/``eigvalsh``) and rebinds the
wrapper under every module-level name that refers to the original function,
so calls made inside the library go through the wrapper too.  Spans
(name, start, end, parent) are kept in flat arrays in memory and written
out once, when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import array
import contextlib
import functools
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("linalg", "pgd", "gaussian", "bures", "discrete", "one_dim", "measures", "cli")
EIG_SPANS = ("numpy.eigh", "numpy.eigvalsh")
GAUSSIAN_SOLVES = ("gaussian.project_pair", "gaussian.reduce_singular_above")
LP_SPANS = ("discrete.solve_transport_lp",)
PATHS = {
    "commuting": "gaussian.path_fast",
    "fast_path": "gaussian.path_fast",
    "pgd": "gaussian.path_pgd",
    "singular_reduction": "gaussian.path_singular",
}


class Tracer:
    """Records spans while ``enabled``; passes calls straight through otherwise."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.attrs: dict[int, object] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name: str, fn, attr=None):
        """Wrap ``fn`` in a span; ``attr(args, result)`` is stored per span."""
        nid = self._intern(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, t0, clock())
            if attr is not None:
                tracer.attrs[idx] = attr(args, result)
            return result

        return traced

    def count(self, name: str, fn):
        """Wrap ``fn`` so that its calls are counted without a span."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        if not self.enabled:
            yield
            return
        idx = self._open(self._intern(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapped, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self, package) -> None:
        """Wrap the traced modules of ``package`` (an imported ``convex_order``)."""
        prefix = package.__name__ + "."
        modules = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m
        ]
        attrs = {
            "pgd.pgd_project_above": lambda a, r: r[0].iterations,
            "gaussian.project_pair": lambda a, r: r[0].method,
            "discrete.solve_wot": lambda a, r: r.iterations,
        }
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not hasattr(obj, "__code__"):
                    continue  # click commands are spanned by the caller
                span_name = f"{layer}.{name}"
                self._rebind(obj, self.wrap(span_name, obj, attrs.get(span_name)), modules)
        for cls_name in ("GaussianMeasure", "DiscreteMeasure"):
            cls = getattr(sys.modules[prefix + "measures"], cls_name)
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            atoms = _input_atoms if cls_name == "DiscreteMeasure" else None
            cls.__post_init__ = self.wrap(f"measures.{cls_name}", original, atoms)
        cli = sys.modules[prefix + "cli"]
        for private, span_name in (("_load_json", "cli.parse"), ("_measure_pair", "cli.parse"),
                                   ("_emit", "cli.emit")):
            original = getattr(cli, private)
            self._rebind(original, self.wrap(span_name, original), [cli])
        discrete = sys.modules[prefix + "discrete"]
        original = discrete._basis_cycle
        self._rebind(original, self.count("discrete.pivots", original), [discrete])
        linalg = np.linalg
        for name in ("eigh", "eigvalsh"):
            original = getattr(linalg, name)
            self._restore.append((linalg, name, original))
            setattr(linalg, name, self.wrap(f"numpy.{name}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span as arrays (``names`` indexes ``name_id``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )

    def layer_metrics(self, problems: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures, per problem unless the name says otherwise."""
        names = self.names
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child_time = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        layer = np.array([n.split(".")[0] for n in names] + [""])[nid]
        per = 1.0 / problems

        def ids(*span_names):
            wanted = [i for i, n in enumerate(names) if n in span_names]
            return np.isin(nid, wanted)

        def under(mask_ancestor):
            """Spans that have an ancestor in ``mask_ancestor``."""
            inside = np.zeros(dur.size, dtype=bool)
            p = parent[has_parent]
            while True:  # one pass per level of nesting
                step = np.zeros(dur.size, dtype=bool)
                step[has_parent] = mask_ancestor[p] | inside[p]
                if np.array_equal(step, inside):
                    return inside
                inside = step

        def returned(mask):
            """The stored attributes of the spans in ``mask`` that returned;
            a span that raised (a left-out problem) stores none."""
            return [self.attrs[i] for i in np.nonzero(mask)[0] if i in self.attrs]

        eig = ids(*EIG_SPANS)
        pgd_calls = ids("pgd.pgd_project_above")
        iters = returned(pgd_calls)
        pgd_eigs = int(np.sum(eig & under(pgd_calls)))
        lp = ids(*LP_SPANS)
        lp_calls = int(np.sum(lp))
        fw = returned(ids("discrete.solve_wot"))
        methods = returned(ids("gaussian.project_pair"))
        cli_cmd = ids("cli.command")
        ctors = ids("measures.GaussianMeasure", "measures.DiscreteMeasure")

        def ms(mask):
            return 1e3 * float(np.sum(dur[mask])) * per

        def self_ms(mask):
            return 1e3 * float(np.sum(self_time[mask])) * per

        out = {
            "linalg.eigensolves": (int(np.sum(eig)) * per, "count"),
            "linalg.eig_ms": (ms(eig), "ms"),
            "linalg.self_ms": (self_ms(layer == "linalg"), "ms"),
            "pgd.iterations": (float(statistics.median(iters)) if iters else 0.0, "count"),
            "pgd.eigensolves_per_iter": (pgd_eigs / sum(iters) if iters else 0.0, "count"),
            "pgd.self_ms": (self_ms(layer == "pgd"), "ms"),
            "pgd.total_ms": (ms(pgd_calls & ~under(pgd_calls)), "ms"),
            "gaussian.self_ms": (self_ms(layer == "gaussian"), "ms"),
            "discrete.fw_iterations": (sum(fw) * per, "count"),
            "discrete.lp_calls": (lp_calls * per, "count"),
            "discrete.lp_ms": (ms(lp), "ms"),
            "discrete.lp_ms_per_call": (ms(lp) * problems / lp_calls if lp_calls else 0.0, "ms"),
            "discrete.pivots": (self.counts["discrete.pivots"] * per, "count"),
            "discrete.self_ms": (self_ms((layer == "discrete") & ~lp), "ms"),
            "one_dim.project_ms": (ms(ids("one_dim.project_1d_detail")), "ms"),
            "one_dim.hull_ms": (ms(ids("one_dim.lower_convex_hull")), "ms"),
            "measures.construct_ms": (ms(ctors), "ms"),
            "measures.atoms_built": (
                sum(returned(ctors)) * per, "count"
            ),
            "cli.gaussian_solves": (
                int(np.sum(ids(*GAUSSIAN_SOLVES) & under(cli_cmd))) * per, "count"
            ),
            "cli.parse_ms": (ms(ids("cli.parse") & ~under(ids("cli.parse"))), "ms"),
            "cli.emit_ms": (ms(ids("cli.emit")), "ms"),
            "cli.self_ms": (self_ms(layer == "cli"), "ms"),
            "bures.bw2_calls": (int(np.sum(ids("bures.bw2"))) * per, "count"),
        }
        for path in sorted(set(PATHS.values())):
            out[path] = (float(sum(PATHS.get(m) == path for m in methods)), "count")
        return out


def _input_atoms(args, result) -> int:
    """Number of support points handed to a ``DiscreteMeasure``."""
    return int(np.shape(args[0].points)[0])
