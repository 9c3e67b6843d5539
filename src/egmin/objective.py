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
    ``(bound, screen)`` with ``bound > limit`` when a cheap lower bound
    proves ``f(x) > limit``; ``screen`` names the bound.  Every bound
    returned counts under its name in :attr:`screened_by`, and
    :attr:`screened_trials` is their sum.  A callable without a screen
    ignores ``limit`` and always returns ``(f(x), False)``.

    ``search(x)``, when given, returns a context for the trials of one
    line search from ``x`` along its e-geodesic, or ``None``; the search
    hands it, with each trial's step ``tau``, to ``value`` as
    ``value(x, limit, context, tau)``, so that a screen may bound a trial
    by the trials before it.  The context lives as long as the search.
    """

    def __init__(
        self,
        value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
        value: Callable[..., tuple[float, str | bool]] | None = None,
        hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        matvecs: Callable[[], int] | None = None,
        search: Callable[[np.ndarray], object] | None = None,
    ):
        self._value_and_grad = value_and_grad
        self._value = value
        self._hess_vec = hess_vec
        self._matvecs = matvecs
        self._search = search
        self.screened_by: dict[str, int] = {}

    @property
    def screened_trials(self) -> int:
        """How many trials got a bound instead of ``f``."""
        return sum(self.screened_by.values())

    def search(self, x: np.ndarray):
        """A context for the trials of one line search from ``x`` along its
        e-geodesic ``x * exp(tau * w)``, or ``None`` when the objective
        has no use for one."""
        return None if self._search is None else self._search(x)

    def value(self, x: np.ndarray, limit: float = math.inf, search=None, tau: float = 0.0) -> float:
        """``f(x)``, or, only when the objective can prove ``f(x) > limit``,
        a number above ``limit``.

        A caller that only compares the result with ``limit`` (an Armijo
        trial) gets the same answer either way; any result ``<= limit`` is
        the exact ``f(x)``.  The default ``limit = inf`` always asks for
        ``f(x)``, and objectives without a screen ignore ``limit``.
        ``search``, a context from :meth:`search`, says that ``x`` is the
        point at step ``tau`` of that search's geodesic.
        """
        if self._value is None:
            return float(self._value_and_grad(x)[0])
        if search is None:
            f, screened = self._value(x, limit)
        else:
            f, screened = self._value(x, limit, search, tau)
        if screened:
            self.screened_by[screened] = self.screened_by.get(screened, 0) + 1
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
