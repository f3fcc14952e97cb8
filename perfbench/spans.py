"""Span tracing of `ecsim` from outside the program.

`Tracer.install` wraps the public functions of each module, plus the
numpy/scipy kernels under them, in place: in the defining module and under
every name an `ecsim` module bound at import time (`ecsim.cli` imports
`propagate_residual`, `zero_order_solution` and others by name).  Spans
(name, start, end, parent, thread, work) are kept in memory and written with
the traced process's result at exit; `layer_metrics` derives inclusive
time, self time, call counts and work from them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

import ecsim.cli  # noqa: F401  (loads every module the targets live in)

CLI_COMMANDS = ("properties", "evolve", "gamma", "sweep")

# (module, attribute, span name); attributes with a dot are methods.
TARGETS = (
    ("ecsim.config", "load_config", "config.load_config"),
    ("ecsim.dynamics", "zero_order_solution", "dynamics.zero_order_solution"),
    ("ecsim.dynamics", "propagate_residual", "dynamics.propagate_residual"),
    ("ecsim.dynamics", "ZeroOrderSolution.u0", "dynamics.ZeroOrderSolution.u0"),
    ("ecsim.oracle", "propagate_exact", "oracle.propagate_exact"),
    ("ecsim.observables", "gamma_exact", "observables.gamma_exact"),
    ("ecsim.observables", "gamma_first_approx", "observables.gamma_first_approx"),
    ("ecsim.observables", "alpha_phi", "observables.alpha_phi"),
    ("ecsim.observables", "gamma_closed_form", "observables.gamma_closed_form"),
    ("ecsim.ecs", "unity_resolution_check", "ecs.unity_resolution_check"),
    ("ecsim.ecs", "ecs_displacement", "ecs.ecs_displacement"),
    ("ecsim.ecs", "ecs_series", "ecs.ecs_series"),
    ("ecsim.ecs", "sum_rule", "ecs.sum_rule"),
    ("ecsim.ecs", "moment_identity_check", "ecs.moment_identity_check"),
) + tuple(("ecsim.cli", f"cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS)


def _steps(sol, *_, **__) -> int:
    return sol.grid.steps


def _grid_steps(model, couplings, grid, *_, **__) -> int:
    return grid.steps


def _eigh_work(a, *_, **__) -> int:
    """Computed eigensolver work: batch * n^3."""
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3


# Work recorded per span: residual/oracle steps and eigensolver n^3.
WORK = {
    "dynamics.propagate_residual": _steps,
    "oracle.propagate_exact": _grid_steps,
    "linalg.eigh": _eigh_work,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int


class Tracer:
    """Wraps callables so each call records a Span in `self.spans`."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's outermost span belongs to the span the main
            # thread is blocked in (cmd_sweep waiting on its pool)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            work = work_of(*args, **kwargs) if work_of else 0
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = Span(name, start, end, parent,
                                         threading.get_ident(), work)

        return traced

    def install(self) -> None:
        """Patch every target where it is defined and wherever it was bound."""
        patches = [(np.linalg, "eigh", "linalg.eigh"), (scipy.linalg, "eigh", "linalg.eigh"),
                   (scipy.linalg, "expm", "linalg.expm")]
        for module, attr, name in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            patches.append((owner, attr, name))
        ecsim_modules = [m for n, m in sorted(sys.modules.items())
                         if n == "ecsim" or n.startswith("ecsim.")]
        for owner, attr, name in patches:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            for module in ecsim_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-name inclusive seconds, self seconds (span minus the union of its
    children), calls and work; the share of `wall` covered by layer spans
    (every span but the `cli.*` ones); and the sweep's worker concurrency."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)

    m: dict[str, float] = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        covered = _union_length([(spans[j].start, spans[j].end) for j in children.get(i, ())])
        for key, val in ((".s", dur), (".self_s", dur - covered),
                         (".calls", 1), (".work", s.work)):
            m[s.name + key] = m.get(s.name + key, 0.0) + val
    for name in ("dynamics.propagate_residual", "oracle.propagate_exact"):
        steps = m.get(name + ".work", 0.0)
        m[name + ".s_per_step"] = m[name + ".s"] / steps if steps else 0.0
    m["linalg.eigh.n3_sum"] = m.get("linalg.eigh.work", 0.0)

    m["trace.coverage"] = _union_length(
        [(s.start, s.end) for s in spans if not s.name.startswith("cli.")]) / wall
    m["cli.sweep.concurrency"] = 0.0
    for i, s in enumerate(spans):
        if s.name == "cli.sweep":
            workers = [j for j in children.get(i, ()) if spans[j].thread != s.thread]
            m["cli.sweep.concurrency"] = (
                sum(spans[j].end - spans[j].start for j in workers) / (s.end - s.start))
    return m
