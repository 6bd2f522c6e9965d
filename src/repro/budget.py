"""Cooperative cost budgets for query execution.

The service's request deadline used to be advisory: a timed-out count
kept burning its executor thread (and a pool worker) until it finished
naturally, surfacing only as an ``abandoned`` gauge.  A
:class:`CostBudget` makes cancellation real by cooperation: the hot
loops -- the table joins of the variable elimination (∃ and Σ alike)
in :mod:`repro.structures.encoding`, the backtracking searches in
:mod:`repro.structures.homomorphism` and :mod:`repro.algorithms.csp`,
and the exhaustive oracle in :mod:`repro.algorithms.brute_force` --
charge their iteration counts against the ambient budget and raise
:class:`~repro.exceptions.BudgetExceeded` when it runs out.

The budget is *ambient*, carried in a :class:`contextvars.ContextVar`
rather than threaded through every function signature:

* the engine installs it with :func:`budget_scope` around an
  execution, so the sequential paths see it without any signature
  changes (the service's executor threads copy the context, so the
  scope crosses the thread hop);
* the executor reads :func:`current_budget` when packing pool jobs and
  ships the budget *by value* across the fork boundary; the worker
  re-installs it around the job, so budget- and deadline-exceeded
  counts abort inside the worker instead of running forever.

Charging is designed to cost nothing when no budget is set: hot loops
fetch the budget once per call (``budget = current_budget()``) and
guard each charge with ``if budget is not None``.  With a budget set,
the step counter is checked on every charge but the monotonic clock
only every ``check_interval`` steps, so deadline enforcement does not
put a syscall in the inner loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.exceptions import BudgetExceeded, ReproError

#: Steps between monotonic-clock checks while charging.
DEFAULT_CHECK_INTERVAL = 2048


class CostBudget:
    """A step counter plus an optional deadline, charged cooperatively.

    ``max_steps`` bounds the total iterations charged (``None`` for
    unlimited); ``max_seconds`` bounds wall time from :meth:`start`
    (``None`` for no deadline).  The budget is mutable, single-use
    state: it is armed once and charged from one execution (or one
    worker job) at a time.

    Pickling ships the *remaining* budget: a budget forwarded to a pool
    worker mid-execution grants the worker what is left, not a fresh
    allowance, so a requested budget is honored within a small factor
    end to end.
    """

    __slots__ = ("max_steps", "max_seconds", "check_interval", "steps",
                 "_started_at", "_deadline", "_tick")

    def __init__(
        self,
        max_steps: int | None = None,
        max_seconds: float | None = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
    ):
        if max_steps is not None and max_steps <= 0:
            raise ReproError("max_steps must be positive when set")
        if max_seconds is not None and max_seconds <= 0:
            raise ReproError("max_seconds must be positive when set")
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.check_interval = max(1, int(check_interval))
        self.steps = 0
        self._started_at: float | None = None
        self._deadline: float | None = None
        self._tick = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "CostBudget":
        """Arm the deadline clock (idempotent)."""
        if self._started_at is None:
            self._started_at = time.monotonic()
            if self.max_seconds is not None:
                self._deadline = self._started_at + self.max_seconds
        return self

    @property
    def elapsed_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def progress(self) -> dict:
        """Partial-progress stats, the 504 body's ``budget`` block."""
        out: dict = {"steps": self.steps}
        if self.max_steps is not None:
            out["max_steps"] = self.max_steps
        if self.max_seconds is not None:
            out["max_seconds"] = self.max_seconds
        if self._started_at is not None:
            out["elapsed_seconds"] = self.elapsed_seconds
        return out

    # -- charging -------------------------------------------------------
    def charge(self, steps: int = 1) -> None:
        """Charge ``steps`` iterations; raise when the budget runs out."""
        self.steps += steps
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(
                f"cost budget exhausted after {self.steps} steps "
                f"(max_steps={self.max_steps})",
                self.progress(),
            )
        if self._deadline is not None:
            self._tick += steps
            if self._tick >= self.check_interval:
                self._tick = 0
                if time.monotonic() > self._deadline:
                    raise BudgetExceeded(
                        f"cost budget deadline exceeded after "
                        f"{self.elapsed_seconds:.3f}s "
                        f"(max_seconds={self.max_seconds})",
                        self.progress(),
                    )

    def check(self) -> None:
        """An explicit deadline check for chunky (vectorized) phases."""
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(
                f"cost budget exhausted after {self.steps} steps "
                f"(max_steps={self.max_steps})",
                self.progress(),
            )
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded(
                f"cost budget deadline exceeded after "
                f"{self.elapsed_seconds:.3f}s (max_seconds={self.max_seconds})",
                self.progress(),
            )

    # -- fork transport: ship the remaining allowance -------------------
    def __getstate__(self):
        remaining_seconds = self.max_seconds
        if self._deadline is not None:
            remaining_seconds = max(0.001, self._deadline - time.monotonic())
        remaining_steps = self.max_steps
        if self.max_steps is not None:
            remaining_steps = max(1, self.max_steps - self.steps)
        return (remaining_steps, remaining_seconds, self.check_interval)

    def __setstate__(self, state) -> None:
        max_steps, max_seconds, check_interval = state
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.check_interval = check_interval
        self.steps = 0
        self._started_at = None
        self._deadline = None
        self._tick = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostBudget(max_steps={self.max_steps}, "
            f"max_seconds={self.max_seconds}, steps={self.steps})"
        )


#: The ambient budget of the current execution (``None`` = unlimited).
_current: ContextVar[CostBudget | None] = ContextVar(
    "repro_cost_budget", default=None
)


def current_budget() -> CostBudget | None:
    """The budget governing the current execution, if any."""
    return _current.get()


@contextmanager
def budget_scope(budget: CostBudget | None):
    """Install ``budget`` as the ambient budget for the ``with`` body.

    ``None`` explicitly clears any inherited budget (used by paths that
    must not be charged, e.g. registration work).
    """
    if budget is not None:
        budget.start()
    token = _current.set(budget)
    try:
        yield budget
    finally:
        _current.reset(token)
