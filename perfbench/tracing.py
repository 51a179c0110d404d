"""Spans around the public functions of the twinbeams layers.

The tracer replaces every public function of the layer modules with a
wrapper that records a span, wherever the function is bound: in the module
that defines it and in every twinbeams module that imported it by name
(``twinbeams.io.pipeline.exponentiate_generator`` is the same function as
``twinbeams.symplectic.exponentiate_generator``).  Spans live in memory and
are written out once, when the benchmark ends.

A layer is the package module a function is defined in: ``pdc``,
``mehler``, ``takagi``, ``twinbeam``, ``symplectic`` or ``io`` (all of
``twinbeams.io.*``).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("pdc", "mehler", "takagi", "twinbeam", "symplectic", "io")

#: Span fields, in the order they are stored and written.
FIELDS = ("name", "start", "end", "parent", "op", "error", "bytes")

#: Spans whose time counts as ``io.config.s``.
CONFIG_SPANS = frozenset(
    {
        "io.parse_config",
        "io.parse_config_text",
        "io.config_from_dict",
        "io.config_to_dict",
        "io.serialize_config",
    }
)
#: Entry points whose self time is the pipeline glue (``io.glue_self_s``).
GLUE_SPANS = frozenset({"io.run_pipeline", "io.sweep"})

#: Functions reported one by one: (metric prefix, span name, fields).
FUNCTION_METRICS = (
    ("symplectic.exponentiate_generator", "symplectic.exponentiate_generator", ("s",)),
    ("symplectic.symplectic_residual", "symplectic.symplectic_residual", ("s", "calls")),
    ("io.export_matrix_heatmap", "io.export_matrix_heatmap", ("s", "bytes")),
    ("io.write_csv", "io.write_csv", ("s", "calls")),
    ("io.report_write", "io.RunReport.write", ("s",)),
    ("takagi.takagi_general", "takagi.takagi_general", ("s",)),
    ("takagi.takagi_residual", "takagi.takagi_residual", ("s", "calls")),
    ("twinbeam.schmidt_from_jsa", "twinbeam.schmidt_from_jsa", ("s",)),
    ("twinbeam.eigenmodes_from_schmidt", "twinbeam.eigenmodes_from_schmidt", ("s",)),
    ("twinbeam.associated_spectral", "twinbeam.associated_spectral", ("s",)),
    ("twinbeam.pair_eigenvalues", "twinbeam.pair_eigenvalues", ("s",)),
    ("twinbeam.fit_geometric", "twinbeam.fit_geometric", ("s",)),
    ("pdc.build_squeezing_matrix", "pdc.build_squeezing_matrix", ("s",)),
    ("pdc.extract_jsa", "pdc.extract_jsa", ("s",)),
    ("pdc.wave_vector_derivatives", "pdc.wave_vector_derivatives", ("calls",)),
    ("mehler.characteristic_times", "mehler.characteristic_times", ("calls",)),
    ("mehler.evaluate_kernel_sum", "mehler.evaluate_kernel_sum", ("s",)),
    ("mehler.analytic_schmidt_mode", "mehler.analytic_schmidt_mode", ("calls",)),
)


def _heatmap_bytes(args, kwargs, result):
    return os.path.getsize(result)


def _expm_bytes(args, kwargs, result):
    # exp of the 2n x 2n complex matrix -i K H, n = 2m: (4m)^2 * 16 bytes.
    g = args[0] if args else kwargs["g"]
    return (2 * g.n) ** 2 * 16


#: Bytes recorded on a span: written to disk, or computed from the shapes.
BYTE_HOOKS = {
    "io.export_matrix_heatmap": _heatmap_bytes,
    "symplectic.exponentiate_generator": _expm_bytes,
}


def _layer(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "twinbeams" and parts[1] in LAYERS:
        return parts[1]
    return None


def _targets():
    """(owner, attribute, span name) of every function the tracer wraps."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        layer = _layer(mod_name) if mod is not None else None
        if layer is None:
            continue
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == mod_name
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(value)
            ):
                found.append((mod, attr, f"{layer}.{attr}"))
    from twinbeams.io import cli, pipeline

    found.append((pipeline.RunReport, "write", "io.RunReport.write"))
    found.append((cli.sweep, "callback", "io.sweep"))
    return found


def _owners() -> list:
    """Everything that may bind a wrapped function: modules, plus the two
    objects that hold the method and the command callback."""
    from twinbeams.io import cli, pipeline

    mods = [mod for name, mod in sorted(sys.modules.items()) if name.startswith("twinbeams") and mod is not None]
    return mods + [pipeline.RunReport, cli.sweep]


class Tracer:
    """Records spans while installed; computes self times per operation."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._patched: list[tuple] = []
        for owner, attr, name in _targets():
            original = getattr(owner, attr)
            if id(original) not in self._wrappers:
                self._wrappers[id(original)] = (original, self._wrap(original, name))

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = BYTE_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:  # SystemExit (the CLI's exit code) is no error
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[6] = hook(args, kwargs, result)
            return result

        wrapper.__traced_name__ = name
        return wrapper

    @property
    def names(self) -> dict:
        """Span name of each wrapped original, keyed by its code object."""
        return {
            original.__code__: wrapper.__traced_name__
            for original, wrapper in self._wrappers.values()
        }

    def _bindings(self):
        """(owner, attribute, original) of every binding of a wrapped original."""
        for owner in _owners():
            for attr, value in list(vars(owner).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    yield owner, attr, value

    def install(self) -> None:
        """Bind the wrappers in place of the originals, wherever they are bound."""
        for owner, attr, original in list(self._bindings()):
            setattr(owner, attr, self._wrappers[id(original)][1])
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id, False, None])

    def end_op(self, failed: bool = False) -> None:
        root = self.spans[self._stack.pop()]
        root[2] = time.perf_counter()
        root[5] = failed
        self._op = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)
            fh.write("\n")


def count_calls(tracer: Tracer, fn) -> tuple[Counter, Counter]:
    """Run ``fn`` with the tracer installed and a profiler watching.

    Returns (calls seen by the wrappers, calls seen by the profiler) per
    span name.  The profiler counts every call of an original function, so
    the two agree only when no binding of a public function was missed.
    """
    names = tracer.names
    profiled: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                profiled[name] += 1

    first = len(tracer.spans)
    tracer.install()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    wrapped = Counter(span[0] for span in tracer.spans[first:])
    del tracer.spans[first:]
    return wrapped, profiled


def _op_metrics(spans: list[list], ids: list[int]) -> dict:
    """Per-layer metrics of one operation; ``ids`` index its spans."""
    child_time = defaultdict(float)
    for i in ids:
        parent = spans[i][3]
        if parent >= 0:
            child_time[parent] += spans[i][2] - spans[i][1]

    def ancestors(i):
        parent = spans[i][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    def outer_time(names):
        return sum(
            spans[i][2] - spans[i][1]
            for i in ids
            if spans[i][0] in names and not any(a in names for a in ancestors(i))
        )

    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_errors = dict.fromkeys(LAYERS, 0)
    glue = 0.0
    root = None
    for i in ids:
        name, start, end, _, _, error, _ = spans[i]
        if name == "op":
            root = i
            continue
        self_time = end - start - child_time[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_time
        layer_calls[layer] += 1
        layer_errors[layer] += bool(error)
        if name in GLUE_SPANS:
            glue += self_time
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.errors"] = layer_errors[layer]
    out["io.glue_self_s"] = glue
    out["io.config.s"] = outer_time(CONFIG_SPANS)

    for prefix, span_name, fields in FUNCTION_METRICS:
        mine = [i for i in ids if spans[i][0] == span_name]
        if "s" in fields:
            out[f"{prefix}.s"] = outer_time({span_name})
        if "calls" in fields:
            out[f"{prefix}.calls"] = len(mine)
        if "bytes" in fields:
            out[f"{prefix}.bytes"] = sum(spans[i][6] or 0 for i in mine)
    out["symplectic.expm_bytes"] = sum(
        spans[i][6] or 0 for i in ids if spans[i][0] == "symplectic.exponentiate_generator"
    )

    op_time = spans[root][2] - spans[root][1]
    out["trace.op_s"] = op_time
    out["trace.unattributed_s"] = op_time - sum(layer_self.values())

    return out


def _op_checks(spans: list[list], ids: list[int]) -> dict:
    """Call-structure counts of one operation that expose a missed binding."""
    names = [spans[i][0] for i in ids]
    ct = {i for i in ids if spans[i][0] == "mehler.characteristic_times"}
    wvd_under_ct = sum(
        1 for i in ids if spans[i][0] == "pdc.wave_vector_derivatives" and spans[i][3] in ct
    )
    runs = names.count("io.run_pipeline")
    return {
        "symplectic_residual_per_run": (
            names.count("symplectic.symplectic_residual") / runs if runs else None
        ),
        "wave_vector_derivatives_per_characteristic_times": (
            wvd_under_ct / len(ct) if ct else None
        ),
    }


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics and call-structure checks, each the median over the
    traced operations of its per-operation value."""
    by_op = defaultdict(list)
    for i, span in enumerate(spans):
        if span[4] is not None:
            by_op[span[4]].append(i)
    ops = [ids for _, ids in sorted(by_op.items())]
    return _median_of([_op_metrics(spans, ids) for ids in ops]), _median_of(
        [_op_checks(spans, ids) for ids in ops]
    )


def _median_of(records: list[dict]) -> dict:
    merged = {}
    for key in records[0]:
        values = [r[key] for r in records if r[key] is not None]
        merged[key] = statistics.median(values) if values else None
    return merged
