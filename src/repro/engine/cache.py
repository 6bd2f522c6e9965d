"""The query-side cache of the counting engine.

:class:`PlanCache` is an LRU of compiled :class:`~repro.engine.plan.
CountingPlan` objects keyed by a canonical form of the query; a plan
depends on the query alone, so this in-memory cache is all the compile
caching an engine keeps.  Query texts are additionally memoized
through a parse cache so serving the same SQL-ish string twice never
re-parses.  Both are thin wrappers over :class:`LRUCache`, which tracks
hit/miss statistics the :class:`~repro.engine.api.Engine` surfaces.

The data side is not cached here: every process keeps its execution
contexts in one :class:`~repro.engine.resident.ResidentContexts` store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

from repro.core.inclusion_exclusion import DEFAULT_MAX_DISJUNCTS
from repro.engine.plan import CountingPlan, Query, as_ep, compile_plan
from repro.exceptions import ReproError
from repro.logic.ep import EPFormula
from repro.logic.pp import PPFormula

Key = TypeVar("Key", bound=Hashable)
Value = TypeVar("Value")

#: Default capacity of the plan cache.
DEFAULT_PLAN_CACHE_SIZE = 256
#: Default capacity of the query-text parse cache.
DEFAULT_PARSE_CACHE_SIZE = 1024


class _InFlight:
    """Single-flight bookkeeping for one key being computed."""

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None


class LRUCache(Generic[Key, Value]):
    """A small thread-safe LRU cache with hit/miss counters.

    Misses are *single-flight*: concurrent ``get_or_compute`` calls on
    the same absent key elect one leader to run ``compute`` (still
    outside the lock -- compilation can be slow and reentrant) while the
    others wait for its result, so one compilation serves them all and
    the miss counter reflects exactly one computation per key.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ReproError("cache capacity must be at least 1")
        self.capacity = capacity
        self._data: OrderedDict[Key, Value] = OrderedDict()
        self._inflight: dict[Key, _InFlight] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: Key, compute: Callable[[], Value]) -> Value:
        """Return the cached value for ``key``, computing and storing on miss."""
        return self.lookup(key, compute)[0]

    def lookup(self, key: Key, compute: Callable[[], Value]) -> tuple[Value, bool]:
        """``(value, hit)``: :meth:`get_or_compute` plus whether this call
        counted as a hit (``compute`` ran in another call, or never)."""
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key], True
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = _InFlight()
                self.misses += 1
                leader = True
            else:
                leader = False
        if not leader:
            # Another thread is computing this key: wait for it.  Its
            # failure propagates (computing again would fail the same
            # way for deterministic compiles, and hiding it is worse).
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            with self._lock:
                self.hits += 1
            return flight.value, True  # type: ignore[return-value]
        try:
            value = compute()
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        flight.value = value
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
            self._inflight.pop(key, None)
        flight.event.set()
        return value, False

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def hit_rate(self) -> float:
        """Hits / lookups, or 0.0 before the first lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats_snapshot(self) -> tuple[int, int]:
        """``(hits, misses)`` read together under the cache lock.

        Reading the two attributes separately can observe a hit and its
        preceding miss from different moments (or race a concurrent
        :meth:`reset_stats`); stats reporting goes through this.
        """
        with self._lock:
            return self.hits, self.misses

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters."""
        with self._lock:
            self.hits = 0
            self.misses = 0


# ----------------------------------------------------------------------
# Canonical query keys
# ----------------------------------------------------------------------
#: Reserved prefix for canonically renamed quantified variables; no
#: parsed query can contain a NUL byte in a variable name.
_CANONICAL_PREFIX = "\x00q"


def _canonical_pp_form(formula: PPFormula) -> Hashable:
    """The (structure, liberal) pair with the quantified variables
    renamed to reserved names (``_CANONICAL_PREFIX`` and their rank) in
    name order.

    Two renamings of a formula key identically only when they keep the
    quantified variables' name order: ``exists a b. (E(x, a) & E(a, b)
    & E(b, y))`` and ``exists a b. (E(x, b) & E(b, a) & E(a, y))`` are
    alpha-equivalent and key apart, so they compile twice (soundly)."""
    quantified = sorted(formula.quantified_variables, key=lambda v: v.name)
    if quantified:
        from repro.logic.terms import Variable

        mapping = {
            v: Variable(f"{_CANONICAL_PREFIX}{i}") for i, v in enumerate(quantified)
        }
        formula = formula.rename(mapping)
    return (formula.structure, formula.liberal)


def canonical_query_form(query: Query) -> Hashable:
    """A hashable canonical form of a query, stable across call styles.

    Strings are parsed; quantified variables are renamed canonically per
    disjunct, so a pp-formula, the EP formula wrapping it, and the
    parsed text of either all key identically -- ``count(pp, B)`` after
    ``count(EPFormula.from_pp(pp), B)`` is a cache hit.  The form is
    syntactic beyond that (atom ordering is already normalized by the
    set-based structures) -- logically equivalent but syntactically
    different queries compile separately, which is sound, merely
    conservative.
    """
    if isinstance(query, PPFormula):
        return ("pp", _canonical_pp_form(query))
    ep = as_ep(query)
    if ep.is_primitive_positive():
        return ("pp", _canonical_pp_form(ep.to_pp()))
    return ("ep", tuple(_canonical_pp_form(d) for d in ep.disjuncts()), ep.liberal)


class PlanCache:
    """An LRU cache of compiled plans keyed by canonical query form.

    ``max_disjuncts`` is the inclusion-exclusion limit every plan of
    this cache compiles under.  One cache holds one limit, so the key is
    the query's :func:`canonical_query_form` alone.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_PLAN_CACHE_SIZE,
        max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    ):
        self.max_disjuncts = max_disjuncts
        self._cache: LRUCache[Hashable, CountingPlan] = LRUCache(capacity)
        self._parse_cache: LRUCache[str, EPFormula] = LRUCache(DEFAULT_PARSE_CACHE_SIZE)

    def resolve(self, query: Query) -> EPFormula | PPFormula:
        """Resolve a query to a formula, memoizing string parses."""
        if isinstance(query, str):
            return self._parse_cache.get_or_compute(query, lambda: as_ep(query))
        return query

    def get(self, query: Query) -> CountingPlan:
        """The compiled plan for the query, compiling at most once."""
        return self.lookup(query)[0]

    def lookup(self, query: Query) -> tuple[CountingPlan, bool]:
        """``(plan, hit)`` for the query, from one key computation:
        ``hit`` is false exactly when this call compiled the plan."""
        resolved = self.resolve(query)
        return self._cache.lookup(
            canonical_query_form(resolved),
            lambda: compile_plan(resolved, self.max_disjuncts),
        )

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        return self._cache.hit_rate

    def stats_snapshot(self) -> tuple[int, int]:
        """``(hits, misses)`` of the plan cache, read coherently."""
        return self._cache.stats_snapshot()

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, query: object) -> bool:
        """Whether the plan for ``query`` is cached.  A pure probe: no
        plan-cache statistics are touched and nothing is compiled."""
        try:
            key = canonical_query_form(self.resolve(query))  # type: ignore[arg-type]
        except ReproError:
            return False
        return key in self._cache

    def clear(self) -> None:
        self._cache.clear()
        self._parse_cache.clear()

    def reset_stats(self) -> None:
        self._cache.reset_stats()
        self._parse_cache.reset_stats()
