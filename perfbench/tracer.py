"""In-memory spans around the cohdist layers, installed from outside the package.

Tracer.install() wraps the public functions of every layer module, plus
linalg._jacobi (states calls it directly) and the validating
__post_init__ of DensityMatrix and KrausChannel.  Every name another
module bound with `from ... import` is rebound to the same wrapper, so a
call such as protocols.c_re or cli.werner is counted too.  Scalar helpers
(xlog2x, as_matrix) stay unwrapped: they run per matrix entry or per
eigenvalue, and a span around them would cost more than their work.

A span is (name, start, end, parent index).  Self time is a span's
duration minus the durations of its direct children, summed by layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "states", "coherence", "protocols", "optimize", "verify", "cli")
PRIVATE_ENTRIES = {"_jacobi"}
SCALAR_HELPERS = {"xlog2x", "as_matrix"}
VALIDATORS = (("states", "DensityMatrix"), ("protocols", "KrausChannel"))


def _jacobi_tag(args) -> str:
    return f"[n={args[0].shape[0]}]"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.self_s: defaultdict = defaultdict(float)
        self.paused = False
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn, tag=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer.counts[name] += 1
            if tag is not None:
                tracer.counts[name + tag(args)] += 1
            tracer.edges[(parent[1] if parent else "", name)] += 1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                tracer.spans[index] = (name, start, end, parent[0] if parent else -1)

        return traced

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own."""
        return self.wrap(layer, name, fn)(*args, **kwargs)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cohdist.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (attr in PRIVATE_ENTRIES or not attr.startswith("_"))
                    and attr not in SCALAR_HELPERS
                ):
                    tag = _jacobi_tag if attr == "_jacobi" else None
                    wrappers[obj] = self.wrap(layer, f"{layer}.{attr}", obj, tag)
        for modname, mod in list(sys.modules.items()):
            if modname != "cohdist" and not modname.startswith("cohdist."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, clsname in VALIDATORS:
            cls = getattr(importlib.import_module(f"cohdist.{layer}"), clsname)
            orig = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", orig))
            cls.__post_init__ = self.wrap(layer, f"{layer}.{clsname}.__post_init__", orig)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict:
        """Counts, parent/child edges and self time by layer, JSON-ready."""
        return {
            "counts": dict(self.counts),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "self_s": dict(self.self_s),
        }


def merge(summaries) -> dict:
    """Add up summaries from several traced processes."""
    counts, edges, self_s = Counter(), Counter(), defaultdict(float)
    for s in summaries:
        counts.update(s["counts"])
        for p, c, n in s["edges"]:
            edges[(p, c)] += n
        for layer, v in s["self_s"].items():
            self_s[layer] += v
    return {"counts": dict(counts), "edges": [[p, c, n] for (p, c), n in edges.items()], "self_s": dict(self_s)}


def layer_metrics(summary: dict, items: int) -> dict[str, float]:
    """The per-layer metrics the benchmark reports, from a (merged) summary."""
    counts = Counter(summary["counts"])
    edges = {(p, c): n for p, c, n in summary["edges"]}
    self_s = summary["self_s"]
    jacobi = {
        int(k[len("linalg._jacobi[n=") : -1]): v
        for k, v in counts.items()
        if k.startswith("linalg._jacobi[n=")
    }

    def layer_calls(layer: str) -> int:
        return sum(v for k, v in counts.items() if k.startswith(layer + ".") and "[" not in k)

    validations = counts["states.DensityMatrix.__post_init__"]
    out = {
        "linalg.jacobi_calls.n2": jacobi.get(2, 0),
        "linalg.jacobi_calls.n4plus": sum(v for n, v in jacobi.items() if n >= 4),
        "linalg.eigh_calls": counts["linalg.hermitian_eigh"],
        "states.validations": validations,
        "states.validations_per_item": validations / items,
        "protocols.kraus_validations": counts["protocols.KrausChannel.__post_init__"],
        "protocols.measure_calls": counts["protocols.measure_local_A"],
        "optimize.grid_points": edges.get(
            ("optimize.brute_force_measurement_opt", "protocols.measure_local_A"), 0
        ),
        "coherence.calls": layer_calls("coherence"),
        "verify.calls": layer_calls("verify"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
