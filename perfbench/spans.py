"""Span tracing of doublejc from outside the package.

``Tracer.install()`` replaces each traced function on every doublejc
module that binds it (``doublejc.analysis.partial_trace_pair`` as well as
``doublejc.numerics.partial_trace_pair``), and the ``__post_init__`` /
method of each traced class, with a wrapper that records a span: name,
start, end, parent span and task id.  Spans stay in memory in flat arrays
and are written once, at the end.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

#: span name -> the functions it covers, as (module, attribute) of their definition
FUNCTIONS = {
    "closedform.phi_f": [("doublejc.closedform", "phi_f")],
    "closedform.series": [("doublejc.closedform", "psi_concurrence"), ("doublejc.closedform", "phi_concurrence")],
    "closedform.amplitudes": [("doublejc.closedform", n) for n in (
        "psi_amplitudes", "phi_amplitudes", "psi_reduced_density", "phi_reduced_density")],
    "numerics.build_hamiltonian": [("doublejc.numerics", "build_hamiltonian")],
    "numerics.partial_trace_pair": [("doublejc.numerics", "partial_trace_pair")],
    "numerics.wootters_concurrence": [("doublejc.numerics", "wootters_concurrence")],
    "analysis.scan": [("doublejc.analysis", "scan")],
    "analysis.scan_pairs": [("doublejc.analysis", "scan_pairs")],
    "analysis.validate": [("doublejc.analysis", "validate")],
    "analysis.detect_death": [("doublejc.analysis", "detect_death")],
    "analysis.sweep_alpha": [("doublejc.analysis", "sweep_alpha")],
    "analysis.bisect": [("doublejc.analysis", "bisect")],
    "cli.main": [("doublejc.cli", "main")],
}
#: span name -> (class, method) patched on the class itself
METHODS = {
    "model.PureState": ("doublejc.model", "PureState", "__post_init__"),
    "model.DensityMatrix": ("doublejc.model", "DensityMatrix", "__post_init__"),
    "numerics.Propagator": ("doublejc.numerics", "Propagator", "__init__"),
    "numerics.evolve_grid": ("doublejc.numerics", "Propagator", "evolve_grid"),
}
LINALG = ("eigh", "eigvalsh", "svd", "norm")
TASK = "task"


class Tracer:
    def __init__(self):
        self.names = [TASK] + list(FUNCTIONS) + list(METHODS)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.extra = array("d")    # a size the span reports: values, bytes or edges
        self.lin0 = array("q")     # np.linalg calls made before the span began
        self.lin1 = array("q")
        self.linalg_calls = 0
        self.stack = [-1]
        self.task_id = -1

    # -------------------------------------------------------------- recording
    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.task.append(self.task_id)
        self.extra.append(0.0)
        self.lin0.append(self.linalg_calls)
        self.lin1.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.lin1[i] = self.linalg_calls

    def wrap(self, name: str, fn, size=None):
        name_id = self.ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if size is not None:
                self.extra[i] = size(args, result)
            return result

        return traced

    def run_task(self, task_id: int, fn):
        """Run one operation under a root span carrying its task id."""
        self.task_id = task_id
        i = self._open(0)
        try:
            return fn()
        finally:
            self._close(i)
            self.task_id = -1

    def install(self) -> None:
        sizes = {
            "analysis.scan_pairs": lambda args, out: sum(s.values.size for s in out.values()),
            "numerics.evolve_grid": lambda args, out: 16.0 * out.size,  # complex128 dim x T phases
            "analysis.detect_death": lambda args, out: 2 * len(out.dead_intervals),
        }
        modules = [m for n, m in sys.modules.items() if n == "doublejc" or n.startswith("doublejc.")]
        for name, targets in FUNCTIONS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                wrapped = self.wrap(name, original, sizes.get(name))
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            setattr(module, key, wrapped)
        for name, (module_name, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method), sizes.get(name)))
        for attr in LINALG:
            setattr(np.linalg, attr, self._count(getattr(np.linalg, attr)))

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.linalg_calls += 1
            return fn(*args, **kwargs)

        return counted

    # -------------------------------------------------------------- reporting
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "task": np.frombuffer(self.task, dtype=np.int32),
            "extra": np.frombuffer(self.extra, dtype=np.float64),
            "linalg": np.frombuffer(self.lin1, dtype=np.int64) - np.frombuffer(self.lin0, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round calls and self time of every span name, plus the derived ratios."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child_time = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(child_time, a["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time

        metrics = {}
        for name_id, name in enumerate(self.names):
            if name == TASK:
                continue
            mask = a["name"] == name_id
            metrics[f"{name}.calls"] = int(mask.sum()) / rounds
            metrics[f"{name}.self_s"] = float(self_time[mask].sum()) / rounds

        # self times inside each task must not exceed the task's own time
        roots = np.nonzero(a["name"] == 0)[0]
        inner = np.bincount(a["task"][a["name"] != 0] + 1, weights=self_time[a["name"] != 0],
                            minlength=int(a["task"].max()) + 2)[1:]
        for root in roots:
            task = a["task"][root]
            if inner[task] > duration[root] * (1 + 1e-9) + 1e-9:
                raise AssertionError(f"task {task}: self times {inner[task]!r} exceed task time {duration[root]!r}")

        scan = a["name"] == self.ids["analysis.scan_pairs"]
        values = a["extra"][scan].sum()
        metrics["numerics.linalg_calls_per_value"] = float(a["linalg"][scan].sum() / values) if values else 0.0

        grid = a["name"] == self.ids["numerics.evolve_grid"]
        metrics["numerics.evolve_grid.bytes"] = float(a["extra"][grid].max()) if grid.any() else 0.0

        death = a["name"] == self.ids["analysis.detect_death"]
        edges = a["extra"][death].sum()
        under_death = self._under(a, self.ids["analysis.detect_death"])
        evals = np.count_nonzero(under_death & (a["name"] == self.ids["closedform.phi_f"]))
        metrics["analysis.generator_evals_per_edge"] = float(evals / edges) if edges else 0.0
        return metrics

    @staticmethod
    def _under(a: dict, ancestor_id: int) -> np.ndarray:
        """Spans with an ancestor of the given name."""
        parent, name = a["parent"].tolist(), a["name"].tolist()
        inside = [False] * len(parent)
        # parents precede children, so one forward pass settles every span
        for i, p in enumerate(parent):
            inside[i] = p >= 0 and (name[p] == ancestor_id or inside[p])
        return np.array(inside, dtype=bool)
