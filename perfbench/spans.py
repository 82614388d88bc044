"""In-memory span tracer wrapped around walkindex layers from outside the package.

Modules call each other's functions by imported name, so a listed function
is replaced in every ``walkindex.*`` namespace that holds it; methods are
replaced on their class.  The numpy boundary is wrapped on ``numpy.linalg``:
``norm(x, 2)`` of a matrix is an SVD and is recorded as one.

A span is ``[name, start, end, parent, job]``.  Self time is the span's
duration minus the time its child spans cover; calls nest strictly on one
thread, so that is the duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = {
    "serialize": ("operator_from_spec", "matrix_from_json", "lattice_operator_to_json",
                  "dumps_canonical"),
    "walks": ("build_lattice", "truncate_ti", "factor_matrices", "ti_gap_margin",
              "winding_number", "berry_phase", "validate_ti"),
    "lattice": ("measured_band", "compress", "split_by_weight", "LocalSymmetryRep.assembled"),
    "symmetry": ("SymmetryRep.validate", "SymmetryRep.restrict", "rep_index",
                 "balanced_hamiltonian"),
    "operators": ("check_unitary", "check_admissible", "eig_unitary", "polar_isometry",
                  "kernel_basis"),
    "indices": ("si_left_right", "si_total", "si_pm", "twiddle_rep", "contract_perturbation"),
    "decoupling": ("gentle_decoupling", "split_transfer_modes", "attribute_transfers",
                   "direct_rotation", "decouple_segment"),
    "finite": ("join_crossover", "crossover_sweep", "certify_boundary_modes",
               "localization_profile"),
}
# called O(n^2) times per operator; counted without a span
COUNTED = {"lattice": ("CellStructure.cell_slice",)}
LINALG = ("eigh", "svd", "eigvals", "det")


def _flops(name: str, a) -> float:
    """Computed n^3 of one dense factorisation (m n min(m, n) for an SVD)."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2:]
    batch = float(np.prod(shape[:-2])) if len(shape) > 2 else 1.0
    return batch * (m * n * min(m, n) if name == "svd" else float(n) ** 3)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.dumped_bytes = 0
        self.flops = 0.0
        self.job = -1
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.job])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "serialize.dumps_canonical":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    text = fn(*args, **kwargs)
                tracer.dumped_bytes += len(text)
                return text
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _linalg(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            tracer.flops += _flops(name, a)
            with tracer.span(f"linalg.{name}"):
                return fn(a, *args, **kwargs)
        return wrapper

    def _norm(self, fn):
        svd_span = self._linalg("svd", fn)

        @functools.wraps(fn)
        def wrapper(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                return svd_span(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install_layer(self, layer: str, qualname: str, make) -> None:
        module = sys.modules[f"walkindex.{layer}"]
        name = f"{layer}.{qualname}"
        if "." in qualname:
            cls_name, method = qualname.split(".")
            cls = getattr(module, cls_name)
            self._replace(cls, method, make(name, cls.__dict__[method]))
            return
        original = getattr(module, qualname)
        wrapper = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "walkindex":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    def install(self) -> None:
        for layer, names in LAYERS.items():
            for qualname in names:
                self._install_layer(layer, qualname, self._wrap)
        for layer, names in COUNTED.items():
            for qualname in names:
                self._install_layer(layer, qualname, self._count)
        for name in LINALG:
            self._replace(np.linalg, name, self._linalg(name, getattr(np.linalg, name)))
        self._replace(np.linalg, "norm", self._norm(np.linalg.norm))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus derived figures."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        split_under_si_total = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
            if name == "lattice.split_by_weight":
                while parent >= 0 and self.spans[parent][0] != "indices.si_total":
                    parent = self.spans[parent][3]
                split_under_si_total += parent >= 0
        for name, count in self.counts.items():
            stats[name]["calls"] += count
        return {
            "stats": dict(stats),
            "split_under_si_total": split_under_si_total,
            "dumped_bytes": self.dumped_bytes,
            "gflop": self.flops / 1e9,
        }

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
