"""Disk-backed persistence of compiled counting plans.

Compiled :class:`~repro.engine.plan.CountingPlan` objects are plain
picklable values, and compiling them (cores, tree decompositions,
cancelled inclusion-exclusion) is the expensive half of a count.  A
:class:`PlanStore` pickles plans under a cache directory so a *fresh
process* starts warm: the first ``Engine(persistent_cache_dir=...)`` to
compile a query writes the plan through to disk, and every later engine
pointed at the same directory loads it instead of recompiling.

Design points, all load-bearing for serving:

* **Versioned layout** -- plans live under
  ``<directory>/<repro.__version__>/``, so bumping the library version
  invalidates every persisted plan at once (stale plan shapes are never
  unpickled into new code).  Pass ``version=`` to override.
* **Stable filenames** -- the plan-cache key (canonical query form +
  max_disjuncts) is digested through a *canonical* byte
  encoding that sorts set-typed containers, because ``repr`` of a
  ``frozenset`` (and ``pickle`` of one) depends on the per-process
  string-hash salt.  The digest is therefore identical across
  processes, which is the whole point of a shared on-disk store.
* **Atomic writes** -- plans are written to a temp file in the store
  directory and ``os.replace``-d into place, so a concurrent reader (or
  a crash) never observes a half-written file.
* **Corruption tolerance** -- any unreadable, unpicklable, truncated,
  or key-mismatched file is a cache *miss*, never an error; serving
  must not fall over because a cache file rotted.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from pathlib import Path
from typing import Iterator

from repro.structures.structure import Structure

#: Suffix of persisted plan files.
PLAN_FILE_SUFFIX = ".plan.pkl"


# ----------------------------------------------------------------------
# Canonical, process-stable key digests
# ----------------------------------------------------------------------
def _canonical_bytes(obj) -> bytes:
    """A process-stable byte encoding of a plan-cache key.

    Sorts unordered containers (whose iteration order follows the
    per-process hash salt) and falls back to ``repr`` for leaves, which
    is content-based and stable for every type that appears in a key
    (strings, ints, ``Variable``, ``RelationSymbol``).
    """
    if isinstance(obj, Structure):
        return _canonical_bytes(
            (
                "structure",
                tuple(sorted((s.name, s.arity) for s in obj.signature)),
                tuple(sorted(map(repr, obj.universe))),
                tuple(
                    (name, tuple(sorted(map(repr, tuples))))
                    for name, tuples in sorted(obj.relations.items())
                ),
            )
        )
    if isinstance(obj, (frozenset, set)):
        return b"{" + b",".join(sorted(_canonical_bytes(x) for x in obj)) + b"}"
    if isinstance(obj, (tuple, list)):
        return b"(" + b",".join(_canonical_bytes(x) for x in obj) + b")"
    if isinstance(obj, dict):
        return (
            b"<"
            + b",".join(
                sorted(
                    _canonical_bytes(k) + b":" + _canonical_bytes(v)
                    for k, v in obj.items()
                )
            )
            + b">"
        )
    return repr(obj).encode("utf-8", "backslashreplace")


def key_digest(key) -> str:
    """The hex digest naming a plan-cache key's file on disk."""
    import hashlib

    return hashlib.blake2b(_canonical_bytes(key), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class PlanStore:
    """A versioned on-disk store of compiled plans.

    Parameters
    ----------
    directory:
        Root cache directory; created on first write.  Plans are kept
        in a per-version subdirectory.
    version:
        Cache version (default: ``repro.__version__``).  Plans written
        under a different version are invisible -- a clean miss.
    """

    def __init__(self, directory: str | os.PathLike, version: str | None = None):
        if version is None:
            from repro import __version__ as version
        self.directory = Path(directory)
        self.version = str(version)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def _version_dir(self) -> Path:
        # Version strings are dotted numbers; guard path separators from
        # a caller-supplied override all the same.
        return self.directory / self.version.replace(os.sep, "_")

    def _path(self, key) -> Path:
        return self._version_dir / f"{key_digest(key)}{PLAN_FILE_SUFFIX}"

    # ------------------------------------------------------------------
    def load(self, key):
        """The persisted plan for ``key``, or ``None`` on a miss.

        A missing, corrupt, or mismatched file is a miss, never an
        error; mismatched files (a digest collision) are left in place.
        """
        path = self._path(key)
        try:
            payload = path.read_bytes()
            stored_key, plan = pickle.loads(payload)
        except Exception:
            with self._lock:
                self.misses += 1
            return None
        if stored_key != key:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return plan

    def save(self, key, plan) -> None:
        """Persist ``plan`` under ``key``, atomically.

        The ``(key, plan)`` pair is written together so :meth:`load`
        can verify the key and :meth:`load_all` can rebuild in-memory
        caches without re-deriving keys.
        """
        self._version_dir.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps((key, plan), protocol=pickle.HIGHEST_PROTOCOL)
        fd, temp_path = tempfile.mkstemp(
            dir=self._version_dir, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        with self._lock:
            self.stores += 1

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> tuple[int, int, int]:
        """``(hits, misses, stores)`` read in one lock acquisition."""
        with self._lock:
            return self.hits, self.misses, self.stores

    def reset_stats(self) -> None:
        """Zero the hit/miss/store counters under the store lock."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.stores = 0

    def load_all(self) -> Iterator[tuple]:
        """Iterate ``(key, plan)`` pairs persisted under this version.

        Unreadable files are skipped silently (corruption tolerance),
        so warming from a partially rotted store yields every plan that
        survived.
        """
        if not self._version_dir.is_dir():
            return
        for path in sorted(self._version_dir.glob(f"*{PLAN_FILE_SUFFIX}")):
            try:
                stored_key, plan = pickle.loads(path.read_bytes())
            except Exception:
                continue
            yield stored_key, plan

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The number of plan files persisted under this version."""
        if not self._version_dir.is_dir():
            return 0
        return sum(1 for _ in self._version_dir.glob(f"*{PLAN_FILE_SUFFIX}"))

    def __contains__(self, key) -> bool:
        return self._path(key).is_file()

    def clear(self) -> None:
        """Delete every plan persisted under this version."""
        if not self._version_dir.is_dir():
            return
        for path in self._version_dir.glob(f"*{PLAN_FILE_SUFFIX}"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanStore({str(self._version_dir)!r}, plans={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
