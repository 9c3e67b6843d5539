"""Objective evaluation bundle shared by line searches and solvers."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class Objective:
    """Smooth function on the positive orthant.

    Made from a combined value-and-gradient callable, an optional cheaper
    value-only callable ``value(x) -> f`` (line-search trials never need
    the gradient), an optional Hessian-vector product, and an optional
    counter of linear operator applications used for cost accounting.  A
    subclass that evaluates ``f`` itself overrides :meth:`_exact` and
    :meth:`_exact_with_grad` instead.

    :meth:`_exact` answers a trial with ``f`` and the cause ``"value"``,
    or, when a cheaper test proves ``f > limit``, with a number above the
    limit and the name of that test.  :meth:`value` counts each trial that
    ends above its limit once, under its cause: in :attr:`screened_by`
    when the cause is one of ``SCREENS`` (the names of the subclass's
    lower bounds on ``f``), else in :attr:`rejected_by`, whose causes are
    ``value`` (the exact ``f`` was above the limit), ``kl_term`` (a part of
    ``f`` computed first already was; see
    :class:`egmin.problems.InstanceObjective`) and ``unusable`` (the
    retraction reported the trial point unusable, counted by the line
    search).

    ``probes`` counts the line searches that tried a step offered by
    their :meth:`search` context before the larger ones, and
    ``probes_wasted`` those of them that accepted a larger step: the
    probe then cost an evaluation that a search from the largest step
    never makes.  ``probes_met`` counts the wasted probes whose value met
    their limit, the one kind of trial counted neither as screened nor
    as rejected.
    """

    SCREENS: tuple[str, ...] = ()

    def __init__(
        self,
        value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]] | None = None,
        value: Callable[[np.ndarray], float] | None = None,
        hess_vec: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        matvecs: Callable[[], int] | None = None,
    ):
        self._value_and_grad = value_and_grad
        self._value = value
        self._hess_vec = hess_vec
        self._matvecs = matvecs
        self.screened_by: dict[str, int] = dict.fromkeys(self.SCREENS, 0)
        self.rejected_by: dict[str, int] = dict.fromkeys(("kl_term", "value", "unusable"), 0)
        self.probes = self.probes_wasted = self.probes_met = 0

    @property
    def screened_trials(self) -> int:
        """How many trials got a bound instead of ``f``."""
        return sum(self.screened_by.values())

    def search(self, geodesic):
        """A context for the trials of one line search along ``geodesic``
        (a :class:`egmin.geometry.Geodesic`, whose steps they are; ``None``
        if they lie on no e-geodesic), or ``None`` when the objective has
        no use for one.  A context's ``probe``, when not ``None``, is a
        step the search may try before the larger ones."""
        return None

    def value(self, x: np.ndarray, limit: float = math.inf, search=None, tau: float = 0.0) -> float:
        """``f(x)``, or, only when a bound or a part of ``f`` proves
        ``f(x) > limit``, that bound or part, a number above ``limit``.

        A caller that only compares the result with ``limit`` (an Armijo
        trial) gets the same answer either way; any result ``<= limit`` is
        the exact ``f(x)``.  The default ``limit = inf`` always gets
        ``f(x)``.  ``search``, a context from :meth:`search`, says that
        ``x`` is the point at step ``tau`` of that search's geodesic.  A
        result above ``limit`` counts once, under the cause :meth:`_exact`
        gives it.
        """
        f, cause = self._exact(np.asarray(x, dtype=float), limit, search, tau)
        if not f <= limit:
            (self.screened_by if cause in self.screened_by else self.rejected_by)[cause] += 1
        return float(f)

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        f, g = self._exact_with_grad(np.asarray(x, dtype=float))
        return float(f), np.asarray(g, dtype=float)

    def _exact(self, x: np.ndarray, limit: float, search, tau: float) -> tuple[float, str]:
        """``(f(x), "value")``, or a number above ``limit`` that a bound on
        ``f(x)`` or a part of it proves, with the cause that names the test:
        one of ``SCREENS`` or a :attr:`rejected_by` key; ``limit``,
        ``search`` and ``tau`` are :meth:`value`'s."""
        if self._value is None:
            return self._value_and_grad(x)[0], "value"
        return self._value(x), "value"

    def _exact_with_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self._value_and_grad(x)

    def hess_vec(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self._hess_vec is None:
            raise ValueError("objective has no Hessian-vector product")
        return np.asarray(self._hess_vec(x, v), dtype=float)

    def matvec_count(self) -> int:
        """Cumulative forward plus adjoint operator applications (0 if untracked)."""
        if self._matvecs is None:
            return 0
        return int(self._matvecs())
