"""In-memory span tracing around the public functions of each layer.

The traced run wraps, from the benchmark's own files, the entry points
named in ``LAYERS`` and ``KERNELS``: each call records a span (name,
start, end, parent span, phase) in memory, and the per-layer numbers
are computed from the spans once the run ends.  Nothing inside the
program is edited; wrappers are installed by replacing module and
class attributes and removed again by :meth:`Tracer.uninstall`.

Kernels are patched both where they are defined and in the suite
modules that imported them by name (``repro.suite.poisson.
sor_poisson_2d``), because rules look them up there.  Bin-packing rules
capture their algorithm from ``ALGORITHMS`` when the benchmark is
compiled, so the tracer must be installed before any compile.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving import percentile

#: (span name, module, class or None, attribute) for every wrapped
#: layer entry point.
LAYERS = (
    ("frontdoor.submit", "repro.serving.frontdoor", "FrontDoor", "submit"),
    ("engine.serve", "repro.serving.engine", "ServingEngine", "serve"),
    ("batching.run_batch_stacked", "repro.serving.engine", None,
     "run_batch_stacked"),
    ("batching.execute_stacked", "repro.runtime.batching", None,
     "execute_stacked"),
    ("program.execute", "repro.compiler.program", "CompiledProgram",
     "execute"),
    ("backend.run", "repro.runtime.backends.serial", "SerialBackend",
     "run_batch"),
    ("harness.run_trials", "repro.autotuner.testing",
     "ProgramTestHarness", "run_trials"),
    ("autotuner.tune", "repro.api.project", "Project", "tune"),
)

#: kernel name -> (defining module, attribute, modules that import it
#: by name).  The leading batch size B of a call is read from the
#: argument named by ``KERNEL_BATCH`` (core dimensions after it).
KERNELS = {
    "sor_poisson_2d": ("repro.multigrid.relax", "sor_poisson_2d",
                       ("repro.suite.poisson",)),
    "banded_cholesky_factor": ("repro.linalg.banded",
                               "banded_cholesky_factor",
                               ("repro.suite.poisson",
                                "repro.suite.helmholtz")),
    "banded_cholesky_solve": ("repro.linalg.banded",
                              "banded_cholesky_solve",
                              ("repro.suite.poisson",
                               "repro.suite.helmholtz")),
    "conjugate_gradient": ("repro.linalg.cg", "conjugate_gradient",
                           ("repro.suite.preconditioner",)),
    "lloyd_iterations": ("repro.clustering.kernels", "lloyd_iterations",
                         ("repro.suite.clustering",)),
}

#: kernel name -> (positional index of the batched array, core ndim).
KERNEL_BATCH = {
    "sor_poisson_2d": (1, 2),
    "banded_cholesky_factor": (0, 2),
    "banded_cholesky_solve": (1, 1),
    "conjugate_gradient": (1, 1),
    "lloyd_iterations": (0, 2),
    "binpacking": (0, 1),
}

#: Every kernel the per-layer report names; the bin-packing entries of
#: ``repro.binpacking.algorithms.ALGORITHMS`` report as one kernel.
KERNEL_NAMES = tuple(KERNELS) + ("binpacking",)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    phase: str
    end: float = 0.0
    #: Per-call facts recorded by the wrapper (batch size, bytes, ...).
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped calls while :attr:`active` is set.

    Spans of one thread nest through a thread-local stack, so a
    kernel span's parent is the ``program.execute`` span that called
    it.  ``phase`` labels every span with the benchmark phase that was
    running (``setup``, ``tune``, ``steady``, ...).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.phase = "setup"
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording a ``name`` span per call; ``describe(args,
        kwargs, result)`` returns facts stored on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None, self.phase)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if describe is not None:
                    span.info = describe(args, kwargs, result)
        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation ---------------------------------------------------
    def _patch(self, owner, attribute: str, replacement) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer and kernel entry point."""
        for name, module_name, class_name, attribute in LAYERS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            self._patch(owner, attribute,
                        self.wrap(name, getattr(owner, attribute),
                                  _DESCRIBE.get(name)))
        for kernel, (module_name, attribute, users) in KERNELS.items():
            module = importlib.import_module(module_name)
            traced = self.wrap(f"kernel.{kernel}",
                               getattr(module, attribute),
                               _kernel_describer(kernel))
            for owner_name in (module_name, *users):
                self._patch(importlib.import_module(owner_name),
                            attribute, traced)
        algorithms = importlib.import_module("repro.binpacking.algorithms")
        describe = _kernel_describer("binpacking")
        for entry, fn in list(algorithms.ALGORITHMS.items()):
            self._patch_item(algorithms.ALGORITHMS, entry,
                             self.wrap("kernel.binpacking", fn, describe))

    def _patch_item(self, mapping: dict, key, replacement) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)
        self._restore.clear()


def _kernel_describer(kernel: str):
    position, core = KERNEL_BATCH[kernel]

    def describe(args, kwargs, result):
        arrays = [value for value in (*args, *kwargs.values())
                  if isinstance(value, np.ndarray)]
        batched = args[position] if len(args) > position else None
        batch = 1
        if isinstance(batched, np.ndarray) and batched.ndim > core:
            batch = int(np.prod(batched.shape[:-core]))
        return {"batch": batch,
                "bytes_in": sum(array.nbytes for array in arrays)}
    return describe


def _describe_submit(args, kwargs, result):
    door, request = args[0], args[1]
    return {"inputs": id(request.inputs), "shed_level": door.shed_level}


def _describe_serve(args, kwargs, result):
    return {"inputs": [id(request.inputs) for request in args[1]],
            "wave": len(args[1])}


def _describe_run_batch_stacked(args, kwargs, result):
    counters = kwargs.get("counters") or {}
    return {"requests": len(args[1]),
            "stacked": counters.get("stacked_requests", 0)}


def _describe_execute_stacked(args, kwargs, result):
    return {"size": len(args[1]), "declined": result is None}


_DESCRIBE = {
    "frontdoor.submit": _describe_submit,
    "engine.serve": _describe_serve,
    "batching.run_batch_stacked": _describe_run_batch_stacked,
    "batching.execute_stacked": _describe_execute_stacked,
}

#: Phases in which requests are served (the serving layers' metrics
#: cover these only).
SERVING_PHASES = ("steady", "saturation")


def _self_time(spans: list[Span], chosen: list[int]) -> float:
    """Summed duration of the ``chosen`` spans minus the time their
    direct child spans cover."""
    chosen_set = set(chosen)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent in chosen_set:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    total = 0.0
    for index in chosen:
        span = spans[index]
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        total += span.duration - covered
    return total


def layer_metrics(tracer: Tracer, serving_wall_s: float) -> dict:
    """Per-layer numbers from the recorded spans.

    ``serving_wall_s`` is the traced serving phases' wall time (the
    base of ``engine.busy_share``).  Returns ``{name: value}``.
    """
    spans = tracer.spans
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def select(name: str, serving_only: bool = False) -> list[int]:
        chosen = by_name.get(name, [])
        if serving_only:
            chosen = [i for i in chosen
                      if spans[i].phase in SERVING_PHASES]
        return chosen

    def busy(chosen: list[int]) -> float:
        return sum(spans[i].duration for i in chosen)

    out: dict[str, float] = {}

    # repro.serving.frontdoor: submit -> start of the engine.serve call
    # carrying the request, keyed by the request's inputs object (shed
    # requests are replaced, their inputs are not).
    submitted: dict[int, float] = {}
    shed_max = 0
    for i in select("frontdoor.submit", serving_only=True):
        submitted[spans[i].info["inputs"]] = spans[i].start
        shed_max = max(shed_max, spans[i].info["shed_level"])
    serves = select("engine.serve", serving_only=True)
    waits = []
    for i in serves:
        for key in spans[i].info["inputs"]:
            sent = submitted.pop(key, None)
            if sent is not None:
                waits.append((spans[i].start - sent) * 1e3)
    waves = [spans[i].info["wave"] for i in serves]
    out["frontdoor.queue_wait_ms.p50"] = percentile(waits, 0.50)
    out["frontdoor.queue_wait_ms.p95"] = percentile(waits, 0.95)
    out["frontdoor.wave_size.mean"] = (float(np.mean(waves))
                                       if waves else 0.0)
    out["frontdoor.shed_level.max"] = float(shed_max)

    # repro.serving.engine
    engine_busy = busy(serves)
    out["engine.serve.calls"] = float(len(serves))
    out["engine.serve.busy_s"] = engine_busy
    out["engine.busy_share"] = (engine_busy / serving_wall_s
                                if serving_wall_s > 0 else 0.0)
    out["engine.self_s"] = _self_time(spans, serves)

    # repro.runtime.batching (serving waves)
    batches = select("batching.run_batch_stacked", serving_only=True)
    requested = sum(spans[i].info["requests"] for i in batches)
    stacked = sum(spans[i].info["stacked"] for i in batches)
    fused = [i for i in select("batching.execute_stacked",
                               serving_only=True)
             if not spans[i].info["declined"]]
    sizes = [spans[i].info["size"] for i in fused]
    out["batching.execute_stacked.calls"] = float(len(fused))
    out["batching.stack_size.mean"] = (float(np.mean(sizes))
                                       if sizes else 0.0)
    out["batching.stacked_share"] = (stacked / requested
                                     if requested else 0.0)
    out["batching.fallback_requests"] = float(requested - stacked)
    out["batching.self_s"] = _self_time(spans, batches)

    # repro.compiler.program
    executes = select("program.execute")
    out["program.execute.calls"] = float(len(executes))
    out["program.execute.busy_s"] = busy(executes)
    out["program.self_s"] = _self_time(spans, executes)

    # repro.runtime.backends
    runs = select("backend.run")
    out["backend.run.busy_s"] = busy(runs)
    out["backend.self_s"] = _self_time(spans, runs)

    # repro.autotuner
    trials = select("harness.run_trials")
    tunes = select("autotuner.tune")
    out["harness.run_trials.busy_s"] = busy(trials)
    out["harness.self_s"] = _self_time(spans, trials)
    out["autotuner.self_s"] = _self_time(spans, tunes)

    # substrate kernels
    for kernel in KERNEL_NAMES:
        calls = select(f"kernel.{kernel}")
        batch = [spans[i].info["batch"] for i in calls]
        out[f"kernel.{kernel}.calls"] = float(len(calls))
        out[f"kernel.{kernel}.busy_s"] = busy(calls)
        out[f"kernel.{kernel}.batch.mean"] = (float(np.mean(batch))
                                              if batch else 0.0)
        out[f"kernel.{kernel}.mb_in"] = sum(
            spans[i].info["bytes_in"] for i in calls) / 1e6
    return out
