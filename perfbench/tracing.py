"""Span tracing of the package's module boundaries, installed from outside.

`Tracer.install` wraps every callable one module of the package imports from
another (the package ``__init__`` counts as a module, so its re-exports are
included), the public methods, ``__call__`` and hand-written ``__init__`` of
the classes among them, the transform closures `catalog_mellin` returns, and
``cli.main``.  Each wrapper records a span (name, parent, operation id, start,
end, raised) in memory and, at a few boundaries, a computed work count.
Nothing under ``src/`` changes; wrapping replaces module and class
attributes, so calls resolved through module globals at call time, including
calls inside the defining module, are traced too.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

PACKAGE = "mellin_deconv"
LAYERS = ("model", "special", "grids", "mellin", "estimators", "selection", "risk", "cli")
#: the benchmark's own code inside an operation (the root span)
CLIENT = "bench"

_NAME, _PARENT, _OP, _START, _END, _RAISED = range(6)


def _invert_products(counts, a, result):
    grid, support = a["grid"], a.get("support")
    nodes = grid.t.size if support is None else 2 * int(round(float(support) / grid.t_step)) + 1
    counts["mellin.invert_products"] += len(a["x_grid"]) * nodes


def _empirical_products(counts, a, result):
    counts["mellin.empirical_products"] += a["em"].sample.size * (a["grid"].half_size + 1)


def _kernel_bytes(counts, a, result):
    counts["estimators.kernel_bytes"] += a["self"].phases.nbytes


def _apply_multi_rows(counts, a, result):
    counts["estimators.kernel_apply_multi_rows"] += a["products"].shape[0]


def _ridge_levels(counts, a, result):
    counts["selection.ridge_levels"] += len(a["self"].k_values)


def _contrast_products(counts, a, result):
    m = len(a["bank"].k_values)
    counts["selection.contrast_products"] += m * (m - 1) // 2 * a["bank"].grid.t.size


def _samples_drawn(counts, a, result):
    counts["model.samples_drawn"] += int(a["n"])


def _replications(counts, a, result):
    counts["risk.replications"] += a["cfg"].replications


#: computed work counts, recorded when the named boundary returns
HOOKS = {
    "mellin.invert_grid_values": _invert_products,
    "mellin.empirical_mellin_on_grid": _empirical_products,
    "estimators.InversionKernel.__init__": _kernel_bytes,
    "estimators.InversionKernel.apply_multi": _apply_multi_rows,
    "selection.RidgeBank.__init__": _ridge_levels,
    "selection._ridge_select_from_arrays": _contrast_products,
    "model.sample": _samples_drawn,
    "risk.run_mise": _replications,
    "risk.run_mise_pair": _replications,
    "risk.run_selection_oracle_comparison": _replications,
}

#: (metric, unit, kind, subject).  Every value is per traced operation
#: except the shares, which divide by the traced operations' wall time.
#: kinds: time = summed span durations, self = summed self time of the named
#: span, calls = span count, count = computed count, layer = summed self time
#: of a layer, errors = spans of a layer that raised to a caller outside it.
PER_LAYER = (
    ("mellin.invert_s", "s/op", "time", "mellin.invert_grid_values"),
    ("mellin.invert_calls", "count/op", "calls", "mellin.invert_grid_values"),
    ("mellin.invert_products", "count/op", "count", "mellin.invert_products"),
    ("mellin.empirical_s", "s/op", "time", "mellin.empirical_mellin_on_grid"),
    ("mellin.empirical_calls", "count/op", "calls", "mellin.empirical_mellin_on_grid"),
    ("mellin.empirical_products", "count/op", "count", "mellin.empirical_products"),
    ("mellin.catalog_s", "s/op", "time", "mellin.catalog_mellin"),
    ("mellin.catalog_calls", "count/op", "calls", "mellin.catalog_mellin"),
    ("mellin.catalog_eval_s", "s/op", "time", "mellin.catalog_eval"),
    ("estimators.kernel_build_s", "s/op", "time", "estimators.InversionKernel.__init__"),
    ("estimators.kernel_builds", "count/op", "calls", "estimators.InversionKernel.__init__"),
    ("estimators.kernel_bytes", "B/op", "count", "estimators.kernel_bytes"),
    ("estimators.kernel_apply_s", "s/op", "time", "estimators.InversionKernel.apply"),
    ("estimators.kernel_apply_calls", "count/op", "calls", "estimators.InversionKernel.apply"),
    ("estimators.kernel_apply_multi_s", "s/op", "time", "estimators.InversionKernel.apply_multi"),
    ("estimators.kernel_apply_multi_rows", "count/op", "count", "estimators.kernel_apply_multi_rows"),
    ("estimators.estimate_density_s", "s/op", "self", "estimators.estimate_density"),
    ("estimators.nonvanishing_s", "s/op", "time", "estimators.check_nonvanishing"),
    ("estimators.nonvanishing_calls", "count/op", "calls", "estimators.check_nonvanishing"),
    ("selection.ridge_bank_s", "s/op", "time", "selection.RidgeBank.__init__"),
    ("selection.ridge_bank_builds", "count/op", "calls", "selection.RidgeBank.__init__"),
    ("selection.ridge_levels", "count/op", "count", "selection.ridge_levels"),
    ("selection.cutoff_bank_s", "s/op", "time", "selection.CutoffBank.__init__"),
    ("selection.cutoff_bank_builds", "count/op", "calls", "selection.CutoffBank.__init__"),
    ("selection.ridge_select_s", "s/op", "time", "selection._ridge_select_from_arrays"),
    ("selection.ridge_selects", "count/op", "calls", "selection._ridge_select_from_arrays"),
    ("selection.contrast_products", "count/op", "count", "selection.contrast_products"),
    ("selection.cutoff_select_s", "s/op", "time", "selection._cutoff_select_from_arrays"),
    ("selection.errors", "count/op", "errors", "selection"),
    ("grids.grid_builds", "count/op", "calls", "grids.FrequencyGrid.__init__"),
    ("model.sample_s", "s/op", "time", "model.sample"),
    ("model.samples_drawn", "count/op", "count", "model.samples_drawn"),
    ("risk.run_self_s", "s/op", "layer", "risk"),
    ("risk.replications", "count/op", "count", "risk.replications"),
    ("cli.mise_self_s", "s/op", "layer", "cli"),
) + tuple(
    (f"{layer}.self_share", "ratio", "share", layer)
    for layer in LAYERS + (CLIENT,)
    if layer != "special"  # only target transforms use it; no workload builds them
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder with computed counts at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, parent index, op id, start, end, raised]
        self.counts = Counter()
        self._stack = []
        self._op = None

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self._op, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[_RAISED] = True
                raise
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one operation under a root span that carries its id."""
        self._op = op_id
        try:
            return self.wrap(f"{CLIENT}.op", fn)(*args)
        finally:
            self._op = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's module boundaries (call once per process)."""
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        exposed = {}
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                owner = getattr(obj, "__module__", None) or ""
                layer = owner.rpartition(".")[2]
                if owner.startswith(PACKAGE + ".") and ns is not modules.get(layer):
                    if inspect.isfunction(obj) or (
                        inspect.isclass(obj) and not issubclass(obj, BaseException)
                    ):
                        exposed[id(obj)] = (layer, attr, obj)
        exposed[id(modules["cli"].main)] = ("cli", "main", modules["cli"].main)
        for layer, attr, obj in exposed.values():
            if inspect.isclass(obj):
                self._wrap_class(layer, obj)
                continue
            traced = self.wrap(f"{layer}.{attr}", obj)
            if attr == "catalog_mellin":
                traced = self._wrap_transforms(traced)
            for ns in namespaces:
                if vars(ns).get(attr) is obj:
                    setattr(ns, attr, traced)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            wanted = not attr.startswith("_") or attr == "__call__" or (
                attr == "__init__" and not dataclasses.is_dataclass(cls)
            )
            if not wanted:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))

    def _wrap_transforms(self, catalog_mellin):
        """Trace the closed-form transforms that estimators call directly."""

        @functools.wraps(catalog_mellin)
        def traced(*args, **kwargs):
            result = catalog_mellin(*args, **kwargs)
            object.__setattr__(result, "eval_fn", self.wrap("mellin.catalog_eval", result.eval_fn))
            return result

        return traced

    # -- reports ------------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        return [s[_END] - s[_START] - c for s, c in zip(self.spans, child)]

    def op_self_sums(self) -> dict:
        """Summed self time of all spans of each operation."""
        sums = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            sums[span[_OP]] += own
        return sums

    def per_layer(self, n_ops: int, wall: float) -> dict:
        own = self.self_times()
        time_by_name, self_by_name = defaultdict(float), defaultdict(float)
        calls, layer_self, errors = Counter(), defaultdict(float), Counter()
        for span, t_self in zip(self.spans, own):
            name, layer = span[_NAME], _layer(span[_NAME])
            time_by_name[name] += span[_END] - span[_START]
            self_by_name[name] += t_self
            calls[name] += 1
            layer_self[layer] += t_self
            parent = span[_PARENT]
            if span[_RAISED] and (parent < 0 or _layer(self.spans[parent][_NAME]) != layer):
                errors[layer] += 1
        source = {
            "time": time_by_name,
            "self": self_by_name,
            "calls": calls,
            "count": self.counts,
            "layer": layer_self,
            "errors": errors,
        }
        out = {}
        for metric, unit, kind, subject in PER_LAYER:
            if kind == "share":
                value = layer_self.get(subject, 0.0) / wall
            else:
                value = source[kind].get(subject, 0) / n_ops
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, parent, op, start, end, raised."""
        keys = ("name", "parent", "op", "start", "end", "raised")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")
