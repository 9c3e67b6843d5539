"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrapping egmin functions in the namespace their
caller looks them up from (modules use ``from .x import y``, so
``egmin.linesearch.exp_map`` and ``egmin.solvers.exp_map`` are two
separate patch points for one function).  Each span is a list
``[name, start_ns, end_ns, parent_index, tag, note]``; ``tag`` names the
solve (or ``"setup"``) the span belongs to, and ``note`` is a per-call
boolean taken from the result, such as "exp map flagged" or "Armijo
accepted".  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Marker attribute carried by every wrapper, used to prove removal.
WRAPPER_MARK = "_perfbench_span"


def _flagged(result) -> bool:
    return not result.ok


def _accepted(result) -> bool:
    return result.status.value == "accepted"


@dataclass(frozen=True)
class PatchPoint:
    """One attribute to wrap: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    span: str
    note: Callable | None = None


PATCH_POINTS = (
    PatchPoint("egmin.operators:SparseOperator", "forward", "operators.forward"),
    PatchPoint("egmin.operators:SparseOperator", "adjoint", "operators.adjoint"),
    PatchPoint("egmin.problems", "build_projector", "projector.build"),
    PatchPoint("egmin.objective:Objective", "value", "problems.value"),
    PatchPoint("egmin.objective:Objective", "value_and_grad", "problems.value_and_grad"),
    PatchPoint("egmin.problems", "huber_tv", "problems.huber_tv"),
    PatchPoint("egmin.problems", "kl", "divergence.kl"),
    PatchPoint("egmin.linesearch", "exp_map", "geometry.exp_map", _flagged),
    PatchPoint("egmin.solvers", "exp_map", "geometry.exp_map", _flagged),
    PatchPoint("egmin.solvers", "armijo_backtrack", "linesearch.armijo", _accepted),
    PatchPoint("egmin.solvers", "step_ip_e_md", "solvers.step_ip_e_md"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class NoTrace:
    """Stand-in for :class:`Tracer` in timing runs: records nothing."""

    def root(self, name: str, tag: str):
        return contextlib.nullcontext()


class Tracer:
    """Records nested spans from wrappers installed on egmin functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._tag: str | None = None
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._tag, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self) -> int:
        end = time.perf_counter_ns()
        index = self._stack.pop()
        self.spans[index][2] = end
        return index

    @contextlib.contextmanager
    def root(self, name: str, tag: str):
        """Span around one benchmark call (a build or a solve), tagging its children."""
        self._tag = tag
        self._open(name)
        try:
            yield
        finally:
            self._close()
            self._tag = None

    def _wrap(self, fn, name: str, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                index = self._close()
            if note is not None:
                self.spans[index][5] = note(result)
            return result

        setattr(traced, WRAPPER_MARK, name)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every patch point that exists; restore the originals on exit."""
        for point in PATCH_POINTS:
            owner = _resolve(point.owner)
            if owner is None or point.attr not in vars(owner):
                self.missing.append(f"{point.owner}.{point.attr}")
                continue
            original = vars(owner)[point.attr]
            self._installed.append((owner, point.attr, original))
            setattr(owner, point.attr, self._wrap(original, point.span, point.note))
        try:
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Attributes of loaded egmin modules and their classes that are still wrappers."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "egmin" or module_name.startswith("egmin.")):
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if hasattr(value, WRAPPER_MARK):
                    found.append(f"{module_name}.{getattr(owner, '__name__', '')}.{attr}")
    return found


def self_times(spans: list[list]) -> list[int]:
    """Per-span self time in ns: duration minus the time covered by child spans."""
    covered = [0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _, _) in enumerate(spans)]
