"""Execution policies: classification-driven admission control.

The trichotomy (Chen & Mengel, PODS 2016) is the complexity theory of
this whole stack; an :class:`ExecutionPolicy` makes it load-bearing.
Every compiled plan carries a memoized
:class:`~repro.engine.plan.PlanProfile` (verdict + structural
measures); a policy decides, *at plan time*, what happens when a
request's plan falls on the wrong side of the tractability frontier:

``allow``
    Run everything unconditionally (the default -- the pre-policy
    behavior).
``reject``
    Refuse plans whose verdict is in ``reject_cases`` (by default the
    p-#Clique-hard case) with
    :class:`~repro.exceptions.PolicyRejection`, carrying the verdict
    and measures.  The query never executes; the HTTP layer maps this
    to 422.
``budget``
    Run everything, but under a cooperative
    :class:`~repro.budget.CostBudget` (step counter + deadline), so a
    count that exceeds it aborts *inside* the workers -- the HTTP layer
    maps the abort to 504 with partial-progress stats.
``degrade``
    Like ``budget``, but a budget abort returns the profile's
    documented estimator value
    (:meth:`~repro.engine.plan.PlanProfile.estimate_count`: the sound
    upper bound ``universe_size ** arity``) instead of failing.

Policies resolve per engine (``Engine(policy=...)``) with a
per-request override; requests carry either a bare mode string or the
object form ``{"mode": ..., "max_steps": ..., "max_seconds": ...,
"treewidth_bound": ...}`` (see :meth:`ExecutionPolicy.from_request`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.budget import CostBudget
from repro.exceptions import PolicyRejection, ReproError

#: The policy modes, in increasing order of interference.
POLICY_MODES = ("allow", "reject", "budget", "degrade")

#: Default step allowance for ``budget``/``degrade`` policies that do
#: not set one: generous enough that any FPT-verdict plan on serving-
#: scale data finishes untouched, small enough that a treewidth
#: explosion aborts in well under a second.
DEFAULT_MAX_STEPS = 20_000_000

#: Verdict names accepted in requests (``Case.name`` spellings).
_CASE_NAMES = ("FPT", "CLIQUE_EQUIVALENT", "SHARP_CLIQUE_HARD")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the engine routes plans by their complexity verdict.

    ``treewidth_bound`` is the bound the verdict is taken against
    (plans profiled at the default bound re-derive their verdict from
    the stored measures -- two integer comparisons).  ``reject_cases``
    names the :class:`~repro.core.classification.Case` members (by
    ``.name``) the ``reject`` mode refuses.  ``max_steps`` /
    ``max_seconds`` parameterize the budget of the ``budget`` and
    ``degrade`` modes.
    """

    mode: str = "allow"
    treewidth_bound: int = 2
    reject_cases: tuple[str, ...] = ("SHARP_CLIQUE_HARD",)
    max_steps: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.mode not in POLICY_MODES:
            raise ReproError(
                f"unknown policy mode {self.mode!r}; "
                f"choose one of {POLICY_MODES}"
            )
        for name in self.reject_cases:
            if name not in _CASE_NAMES:
                raise ReproError(
                    f"unknown verdict {name!r} in reject_cases; "
                    f"choose from {_CASE_NAMES}"
                )
        if self.treewidth_bound < 0:
            raise ReproError("treewidth_bound must be non-negative")

    # -- request parsing ------------------------------------------------
    @classmethod
    def from_request(cls, value) -> "ExecutionPolicy":
        """Build a policy from a request field.

        Accepts a bare mode string (``"reject"``), an
        :class:`ExecutionPolicy` (passed through), or an object form::

            {"mode": "budget", "max_steps": 1000000,
             "max_seconds": 2.5, "treewidth_bound": 2,
             "reject_cases": ["SHARP_CLIQUE_HARD", "CLIQUE_EQUIVALENT"]}
        """
        if isinstance(value, ExecutionPolicy):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        if not isinstance(value, dict):
            raise ReproError(
                "policy must be a mode string or an object with a 'mode'"
            )
        known = {
            "mode", "treewidth_bound", "reject_cases",
            "max_steps", "max_seconds",
        }
        unknown = set(value) - known
        if unknown:
            raise ReproError(
                f"unknown policy field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs: dict = {"mode": value.get("mode", "allow")}
        if not isinstance(kwargs["mode"], str):
            raise ReproError("policy 'mode' must be a string")
        if "treewidth_bound" in value:
            bound = value["treewidth_bound"]
            if not isinstance(bound, int) or isinstance(bound, bool):
                raise ReproError("policy 'treewidth_bound' must be an int")
            kwargs["treewidth_bound"] = bound
        if "reject_cases" in value:
            cases = value["reject_cases"]
            if not isinstance(cases, (list, tuple)) or not all(
                isinstance(c, str) for c in cases
            ):
                raise ReproError(
                    "policy 'reject_cases' must be a list of verdict names"
                )
            kwargs["reject_cases"] = tuple(cases)
        if "max_steps" in value and value["max_steps"] is not None:
            steps = value["max_steps"]
            if not isinstance(steps, int) or isinstance(steps, bool) or steps <= 0:
                raise ReproError("policy 'max_steps' must be a positive int")
            kwargs["max_steps"] = steps
        if "max_seconds" in value and value["max_seconds"] is not None:
            seconds = value["max_seconds"]
            if not isinstance(seconds, (int, float)) or isinstance(seconds, bool) or seconds <= 0:
                raise ReproError("policy 'max_seconds' must be a positive number")
            kwargs["max_seconds"] = float(seconds)
        return cls(**kwargs)

    # -- plan-time decisions --------------------------------------------
    def admit(self, profile) -> None:
        """Raise :class:`PolicyRejection` if ``profile`` is refused.

        Only the ``reject`` mode refuses; the other modes admit every
        plan (``budget``/``degrade`` interfere at execution time
        instead).
        """
        if self.mode != "reject":
            return
        case = profile.case_for(self.treewidth_bound)
        if case.name in self.reject_cases:
            raise PolicyRejection(
                f"query rejected by policy: verdict is {case.value!r} "
                f"at treewidth bound {self.treewidth_bound}",
                verdict=case.name,
                measures=profile.as_dict(),
                policy=self.mode,
            )

    def make_budget(self) -> CostBudget | None:
        """The cooperative budget this policy imposes, if any."""
        if self.mode not in ("budget", "degrade"):
            return None
        max_steps = self.max_steps
        if max_steps is None and self.max_seconds is None:
            max_steps = DEFAULT_MAX_STEPS
        return CostBudget(max_steps=max_steps, max_seconds=self.max_seconds)

    @property
    def degrades(self) -> bool:
        return self.mode == "degrade"

    def as_dict(self) -> dict:
        out: dict = {"mode": self.mode, "treewidth_bound": self.treewidth_bound}
        if self.mode == "reject":
            out["reject_cases"] = list(self.reject_cases)
        if self.mode in ("budget", "degrade"):
            out["max_steps"] = self.max_steps
            out["max_seconds"] = self.max_seconds
        return out


#: The engine's default policy when none is configured.
ALLOW = ExecutionPolicy(mode="allow")
