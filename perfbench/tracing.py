"""Per-layer tracing of `walshvp`, done from outside the library.

`Tracer.install` wraps the public functions listed in `TRACED` and rebinds
every module attribute of the package that refers to one of them, which
covers each `from .x import f` alias.  Each wrapped call records a span
(function, start, end, parent span, op id) in memory, plus the counters of
`COUNTERS`, which are worked out from the call's arguments and result.

A span's self time is its duration minus the time its child spans cover,
including the wrapper's own bookkeeping for those children.  That
bookkeeping, and the harness time around each `cli.main` call, make up
`bench.self_s`, so the module self times plus `bench.self_s` add up to the
traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

# Layers are the modules of src/walshvp/, listed from the top down.
TRACED = {
    "cli": ("main",),
    "experiments": (
        "make_function",
        "approximation_error",
        "ratio_sweep",
        "verify_translate_difference_bound",
        "verify_all_lemmas",
    ),
    "means": ("vp_mean", "dyadic_convolve", "dyadic_convolve_naive"),
    "kernels": (
        "vp_kernel",
        "decompose_vp_kernel",
        "fejer",
        "dirichlet_via_recursion",
        "kernel_norm_sweep",
    ),
    "weights": ("build_scheme", "validate"),
    "walsh_system": (
        "hadamard_transform",
        "fwht_forward",
        "fwht_inverse",
        "walsh_signs",
        "partial_sum",
    ),
    "dyadic": ("modulus_of_continuity", "lp_norm"),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, names in TRACED.items() for f in names)


def _digest(array) -> bytes:
    return hashlib.sha1(memoryview(array)).digest()


# Counter hooks: (args bound by name, result) -> (increments, distinct key).
# The key, when not None, feeds `<function>.distinct_ratio`: the number of
# distinct inputs divided by the number of calls.  Every count here is
# computed from the call, not measured by the hardware.


def _hadamard(call, result):
    size = result.size
    stages = size.bit_length() - 1
    # One float64 read and one write of the whole array per butterfly stage.
    return {"butterfly_ops": stages * size, "bytes_computed": 16 * stages * size}, None


def _fwht_forward(call, result):
    return {}, _digest(call["f"].values)


def _modulus(call, result):
    f, n, p = call["f"], call["n"], float(call["p"])
    if p == 2.0 and not call.get("brute_force", False):
        increments = {"spectral_calls": 1}
    else:
        # The brute-force loop evaluates one translate per t in I_n.
        increments = {"translates": f.size >> n}
    return increments, (_digest(f.values), n, p)


def _build_scheme(call, result):
    return {"weights": result.block_size}, None


def _validate(call, result):
    w = call["w"]
    return {}, (w.block_exponent, _digest(w.weights))


def _vp_kernel(call, result):
    numer = result.exact_numer
    exact = numer is not None
    return {"exact_calls": int(exact), "bigint_calls": int(exact and numer.dtype == object)}, None


def _naive_convolve(call, result):
    # An int64 index table and a float64 gathered table, 4^N entries each.
    return {"table_bytes": 16 * result.size**2}, None


# name -> (hook, needs the arguments bound by name)
COUNTERS: Dict[str, Tuple[Callable, bool]] = {
    "walsh_system.hadamard_transform": (_hadamard, False),
    "walsh_system.fwht_forward": (_fwht_forward, True),
    "dyadic.modulus_of_continuity": (_modulus, True),
    "weights.build_scheme": (_build_scheme, False),
    "weights.validate": (_validate, True),
    "kernels.vp_kernel": (_vp_kernel, False),
    "means.dyadic_convolve_naive": (_naive_convolve, False),
}

COUNTER_UNITS = {
    "walsh_system.hadamard_transform.butterfly_ops": "count",
    "walsh_system.hadamard_transform.bytes_computed": "B",
    "walsh_system.fwht_forward.distinct_ratio": "ratio",
    "dyadic.modulus_of_continuity.translates": "count",
    "dyadic.modulus_of_continuity.spectral_calls": "count",
    "dyadic.modulus_of_continuity.distinct_ratio": "ratio",
    "weights.build_scheme.weights": "count",
    "weights.validate.distinct_ratio": "ratio",
    "kernels.vp_kernel.exact_calls": "count",
    "kernels.vp_kernel.bigint_calls": "count",
    "means.dyadic_convolve_naive.table_bytes": "B",
}

RUN_UNITS = {
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.total_s"] = "s"
        units[f"{module}.self_s"] = "s"
        units[f"{module}.errors"] = "count"
    units.update(COUNTER_UNITS)
    units.update(RUN_UNITS)
    return units


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self) -> None:
        self.op = -1
        self.spans: List[Optional[tuple]] = []  # (fid, t0, t1, parent, op, bookkeeping)
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.seen: Dict[int, set] = {}
        self.archive: List[List[tuple]] = []
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        self._bindings: List[Tuple[object, str, Callable]] = []
        # Code object of each traced function -> its function id.
        self.codes: Dict[object, int] = {}
        for fid, qualname in enumerate(FUNCTIONS):
            module_name, name = qualname.split(".")
            original = getattr(importlib.import_module("walshvp." + module_name), name)
            self._wrappers[id(original)] = (original, self._wrap(fid, original))
            self.codes[original.__code__] = fid

    def _unwrapped(self):
        """(module, attribute, original, wrapper) for every attribute of the
        package's modules that is bound to a traced function itself."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "walshvp" or name.startswith("walshvp.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    yield module, attr, value, entry[1]

    def install(self) -> None:
        for module, attr, original, wrapper in list(self._unwrapped()):
            setattr(module, attr, wrapper)
            self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def reset(self) -> None:
        """Start a new pass: archive the spans, zero the counters."""
        if self.spans:
            self.archive.append(self.spans)
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()
        self.seen = {}

    def _wrap(self, fid: int, fn: Callable) -> Callable:
        qualname = FUNCTIONS[fid]
        hook, needs_args = COUNTERS.get(qualname, (None, False))
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            b0 = _clock()
            spans = tracer.spans
            stack = tracer.stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = _clock()
                stack.pop()
                tracer.errors[fid] += 1
                spans[index] = (fid, t0, t1, parent, tracer.op, t0 - b0 + _clock() - t1)
                raise
            t1 = _clock()
            stack.pop()
            if hook is not None:
                call = signature.bind(*args, **kwargs).arguments if needs_args else None
                increments, key = hook(call, result)
                for name, value in increments.items():
                    tracer.counts[f"{qualname}.{name}"] += value
                if key is not None:
                    tracer.seen.setdefault(fid, set()).add(key)
            spans[index] = (fid, t0, t1, parent, tracer.op, t0 - b0 + _clock() - t1)
            return result

        return traced

    def pass_metrics(self, op_latencies_s: List[float]) -> Tuple[Dict[str, float], float]:
        """Per-layer metrics of the current pass, and its smallest self time.

        `op_latencies_s` are the harness's timings of the pass's ops, each
        around one `cli.main` call.
        """
        spans = self.spans
        cover = [0.0] * len(spans)
        for fid, t0, t1, parent, op, book in spans:
            if parent >= 0:
                cover[parent] += t1 - t0 + book
        count = len(FUNCTIONS)
        calls = [0] * count
        self_s = [0.0] * count
        total_s = [0.0] * count
        root_s = 0.0
        child_book = 0.0
        min_self = 0.0
        for i, (fid, t0, t1, parent, op, book) in enumerate(spans):
            duration = t1 - t0
            own = duration - cover[i]
            calls[fid] += 1
            total_s[fid] += duration
            self_s[fid] += own
            min_self = min(min_self, own)
            if parent < 0:
                root_s += duration
            else:
                child_book += book
        wall = sum(op_latencies_s)
        metrics: Dict[str, float] = {}
        fid = 0
        for module, names in TRACED.items():
            module_self = 0.0
            module_errors = 0
            for name in names:
                metrics[f"{module}.{name}.calls"] = calls[fid]
                metrics[f"{module}.{name}.self_s"] = self_s[fid]
                metrics[f"{module}.{name}.total_s"] = total_s[fid]
                module_self += self_s[fid]
                module_errors += self.errors[fid]
                fid += 1
            metrics[f"{module}.self_s"] = module_self
            metrics[f"{module}.errors"] = module_errors
        for name in COUNTER_UNITS:
            if name.endswith(".distinct_ratio"):
                qualname = name[: -len(".distinct_ratio")]
                fid = FUNCTIONS.index(qualname)
                metrics[name] = len(self.seen.get(fid, ())) / calls[fid] if calls[fid] else 0.0
            else:
                metrics[name] = self.counts[name]
        metrics["bench.self_s"] = wall - root_s + child_book
        metrics["trace.wall_s"] = wall
        return metrics, min_self

    def dump(self) -> dict:
        """All recorded spans, column by column, for writing out."""
        passes = self.archive + ([self.spans] if self.spans else [])
        columns = ("function", "start", "end", "parent", "op", "bookkeeping")
        return {
            "functions": list(FUNCTIONS),
            "columns": list(columns),
            "passes": [[list(col) for col in zip(*spans)] if spans else [] for spans in passes],
        }


def profile_calls(run: Callable[[], None], codes: Dict[object, int]) -> Counter:
    """Count calls of the given code objects with a profile hook, which sees
    every call whatever name the caller used; the reference for the
    tracer's own call counts."""
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            fid = codes.get(frame.f_code)
            if fid is not None:
                calls[fid] += 1

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls
