"""Span tracing of dpplab from the outside, and the per-layer metrics read off the spans.

``Tracer.installed()`` replaces, for the duration of a ``with`` block,

* every function a layer module defines that is public or that another
  dpplab module imports (``from .x import y`` copies are patched too), and
* the hand-written methods, properties and class methods of the classes
  the layer modules define, public ones and dunders such as
  ``KernelOperator.__post_init__`` and ``DppDistribution.__init__``,

with wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Spans stay in memory; the
benchmark reads per-pass metrics off them and writes the last traced
pass out when the run ends.  Outside the ``with`` block the package runs
unpatched, so untraced passes measure the program alone.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

#: The traced layers, in dependency order.  ``scaling`` and ``cli`` have no workload (see README).
LAYERS = ("ground", "operators", "dpp", "conditioning", "deformations", "measures", "suites", "serialization")

#: Spans whose summed self time (``<metric>_s``) the benchmark reports, by metric stem.
TIMED = {
    "operators.kernel_init": "operators.KernelOperator.__post_init__",
    "operators.is_projection": "operators.KernelOperator.is_projection",
    "operators.project_span": "operators.project_span",
    "operators.orthonormalize": "operators.orthonormalize",
    "operators.local_trace_norm": "operators.local_trace_norm",
    "operators.subspace_angle": "operators.subspace_angle",
    "dpp.distribution_init": "dpp.DppDistribution.__init__",
    "dpp.brute_force": "dpp.brute_force_distribution",
    "dpp.sample": "dpp.sample",
    "dpp.chi_square_gof": "dpp.chi_square_gof",
    "conditioning.check_inducibility": "conditioning.check_inducibility",
    "conditioning.induced_kernel": "conditioning.induced_kernel",
    "conditioning.normalization_constant": "conditioning.normalization_constant",
    "deformations.model_init": "deformations.DeformationModel.__post_init__",
    "deformations.sqrtg_subspace_projection": "deformations.sqrtg_subspace_projection",
    "deformations.extend_projection": "deformations.extend_projection",
    "measures.linear_statistics": "measures.linear_statistics",
    "measures.permutation_energy_test": "measures.permutation_energy_test",
    "serialization.samples_to_csv": "serialization.samples_to_csv",
}

#: Metric stems whose call count (``<metric>_calls``) the benchmark reports.
COUNTED = (
    "operators.kernel_init",
    "operators.is_projection",
    "operators.project_span",
    "operators.local_trace_norm",
    "dpp.sample",
    "conditioning.check_inducibility",
    "conditioning.induced_kernel",
)

#: Kernels whose time per draw the benchmark reports, keyed as ``sample`` spans label them.
DRAW_KEYS = ("rank2_n5", "contraction_n4", "rank3_n6")


def _sample_extra(args, kwargs, result):
    # Read plain attributes only: a traced method called here would add spans.
    eigenvalues = (args[0] if args else kwargs["D"]).eigenvalues
    kept = eigenvalues > 1.0 - 1e-8
    if np.all(kept | (eigenvalues < 1e-8)):
        kind = f"rank{int(kept.sum())}_n{len(eigenvalues)}"
    else:
        kind = f"contraction_n{len(eigenvalues)}"
    return {"draws": len(result), "kernel": kind}


#: Figures recorded on top of the span, read from a call's arguments and result.
EXTRAS = {
    "dpp.brute_force_distribution": lambda args, kwargs, result: {"configs": len(result)},
    "dpp.sample": _sample_extra,
    "measures.permutation_energy_test": lambda args, kwargs, result: {
        "permutations": args[2] if len(args) > 2 else kwargs["permutations"]
    },
    "serialization.samples_to_csv": lambda args, kwargs, result: {"bytes": len(result.encode())},
}

#: Dunder methods worth a span; the rest are interpreter plumbing or dataclass-generated.
_DUNDERS = ("__init__", "__post_init__", "__add__", "__sub__", "__rmul__")


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += [f"{stem}_s" for stem in TIMED]
    names += [f"{stem}_calls" for stem in COUNTED]
    names += ["deformations.base_projection_calls", "dpp.draws", "dpp.brute_force_configs"]
    names += ["measures.permutations", "serialization.csv_bytes"]
    names += [f"dpp.draw_us.{key}" for key in DRAW_KEYS]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("dpp.draw_us."):
        return "us"
    if name == "serialization.csv_bytes":
        return "bytes"
    return "count"


class Tracer:
    """Patches a loaded dpplab with span-recording wrappers while installed."""

    def __init__(self, modules: dict, all_modules: list):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span index, start, end, extra]
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan(modules, all_modules)

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def _plan(self, modules: dict, all_modules: list) -> None:
        bound_elsewhere = {
            id(obj)
            for m in all_modules
            for obj in vars(m).values()
            if inspect.isfunction(obj) and obj.__module__ != m.__name__
        }
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or id(obj) in bound_elsewhere):
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    for m in all_modules:
                        for name, value in list(vars(m).items()):
                            if value is obj:
                                self._patches.append((m, name, obj, wrapped))
                elif inspect.isclass(obj):
                    self._plan_class(layer, obj, module.__file__)

    def _plan_class(self, layer: str, cls, filename: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, property) and member.fget is not None:
                wrapped = property(self._wrap(member.fget, name), member.fset, member.fdel, member.__doc__)
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, name))
            elif inspect.isfunction(member) and member.__code__.co_filename == filename:
                wrapped = self._wrap(member, name)
            else:
                continue
            self._patches.append((cls, attr, member, wrapped))

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the layers inside the block; spans of earlier blocks are dropped."""
        self.spans.clear()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded in the last traced block."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = dict.fromkeys(LAYERS, 0.0)
        name_self: dict[str, float] = defaultdict(float)
        name_calls: dict[str, int] = defaultdict(int)
        figures: dict[str, int] = defaultdict(int)
        draw_time: dict[str, float] = defaultdict(float)
        draw_count: dict[str, int] = defaultdict(int)
        for i, (index, _, start, end, extra) in enumerate(spans):
            name = self.names[index]
            own = end - start - child[i]
            layer_self[name.split(".", 1)[0]] += own
            name_self[name] += own
            name_calls[name] += 1
            if extra:
                for key, value in extra.items():
                    if key != "kernel":
                        figures[f"{name}.{key}"] += value
                if "kernel" in extra:
                    draw_time[extra["kernel"]] += end - start
                    draw_count[extra["kernel"]] += extra["draws"]
        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({f"{stem}_s": name_self[span] for stem, span in TIMED.items()})
        out.update({f"{stem}_calls": name_calls[TIMED[stem]] for stem in COUNTED})
        out["deformations.base_projection_calls"] = name_calls["deformations.DeformationModel.base_projection"]
        out["dpp.draws"] = figures["dpp.sample.draws"]
        out["dpp.brute_force_configs"] = figures["dpp.brute_force_distribution.configs"]
        out["measures.permutations"] = figures["measures.permutation_energy_test.permutations"]
        out["serialization.csv_bytes"] = figures["serialization.samples_to_csv.bytes"]
        for key in DRAW_KEYS:
            out[f"dpp.draw_us.{key}"] = 1e6 * draw_time[key] / draw_count[key] if draw_count[key] else 0.0
        return {name: out[name] for name in per_layer_names()}

    def write(self, path) -> None:
        """Write the spans of the last traced block as JSON lines: name, parent, start, end, extra."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, parent, start, end, extra in self.spans:
                record = {"name": self.names[index], "parent": parent, "start": start, "end": end}
                if extra:
                    record["extra"] = extra
                fh.write(json.dumps(record) + "\n")
