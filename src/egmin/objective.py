"""Objective evaluation bundle shared by line searches and solvers."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class Objective:
    """Smooth function on the positive orthant.

    Wraps a combined value-and-gradient callable, an optional cheaper
    value-only callable (line-search trials never need the gradient), an
    optional Hessian-vector product, and an optional counter of linear
    operator applications used for cost accounting.

    ``value(x, limit)``, when given, returns ``(f(x), False)``, or
    ``(bound, True)`` with ``bound > limit`` when a cheap lower bound
    proves ``f(x) > limit``; every bound returned counts in
    :attr:`screened_trials`.  A callable without a screen ignores
    ``limit`` and always returns ``(f(x), False)``.
    """

    def __init__(
        self,
        value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
        value: Callable[[np.ndarray, float], tuple[float, bool]] | None = None,
        hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        matvecs: Callable[[], int] | None = None,
    ):
        self._value_and_grad = value_and_grad
        self._value = value
        self._hess_vec = hess_vec
        self._matvecs = matvecs
        self.screened_trials = 0

    def value(self, x: np.ndarray, limit: float = math.inf) -> float:
        """``f(x)``, or, only when the objective can prove ``f(x) > limit``,
        a number above ``limit``.

        A caller that only compares the result with ``limit`` (an Armijo
        trial) gets the same answer either way; any result ``<= limit`` is
        the exact ``f(x)``.  The default ``limit = inf`` always asks for
        ``f(x)``, and objectives without a screen ignore ``limit``.
        """
        if self._value is None:
            return float(self._value_and_grad(x)[0])
        f, screened = self._value(x, limit)
        self.screened_trials += screened
        return float(f)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = self._value_and_grad(x)
        return float(f), np.asarray(g, dtype=float)

    def hess_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self._hess_vec is None:
            raise ValueError("objective has no Hessian-vector product")
        return np.asarray(self._hess_vec(x, v), dtype=float)

    def matvec_count(self) -> int:
        """Cumulative forward plus adjoint operator applications (0 if untracked)."""
        if self._matvecs is None:
            return 0
        return int(self._matvecs())
