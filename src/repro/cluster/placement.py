"""Shard-to-worker placement: the cluster's generalized pinning.

Every worker of the pool forks a registered structure's shards from
the engine's store; a cluster cannot afford that (residency is the
whole point of scaling out), so placement assigns each shard fingerprint to
``replication`` distinct workers chosen least-loaded-first.  The map is
pure bookkeeping -- no I/O -- so the coordinator owns the wire traffic
and this class owns the invariants:

* every placed fingerprint has between 1 and ``replication`` holders
  (fewer only when the cluster has fewer live workers);
* a worker's death drops it from every placement, reporting which
  fingerprints lost their *last* holder (the coordinator degrades
  those to the local pool instead of guessing at data it never held);
* placement is deterministic given the same workers in the same order,
  which keeps chaos runs reproducible.
"""

from __future__ import annotations

from repro.exceptions import ReproError


class PlacementMap:
    """Which workers hold which shard fingerprints."""

    def __init__(self, replication: int = 1):
        if replication < 1:
            raise ReproError("placement replication factor must be >= 1")
        self.replication = replication
        #: fingerprint -> ordered tuple of holder worker ids.
        self._holders: dict = {}
        #: worker id -> number of fingerprints placed on it.
        self._load: dict = {}

    # ------------------------------------------------------------------
    def assign(self, fingerprints, workers) -> dict:
        """Choose holders for ``fingerprints`` among live ``workers``.

        Returns ``{worker_id: [fingerprint, ...]}`` -- the frames the
        coordinator must send.  Re-placing an already-placed
        fingerprint keeps existing holders that are still live and only
        tops the holder set back up to ``replication``, so a repeated
        registration does not reshuffle resident data.
        """
        workers = list(workers)
        if not workers:
            raise ReproError("cannot place shards on an empty cluster")
        for worker_id in workers:
            self._load.setdefault(worker_id, 0)
        outgoing: dict = {}
        for fingerprint in fingerprints:
            holders = [
                worker_id
                for worker_id in self._holders.get(fingerprint, ())
                if worker_id in self._load
            ]
            want = min(self.replication, len(workers))
            candidates = sorted(
                (w for w in workers if w not in holders),
                key=lambda w: (self._load.get(w, 0), str(w)),
            )
            for worker_id in candidates[: max(0, want - len(holders))]:
                holders.append(worker_id)
                self._load[worker_id] = self._load.get(worker_id, 0) + 1
                outgoing.setdefault(worker_id, []).append(fingerprint)
            self._holders[fingerprint] = tuple(holders)
        return outgoing

    def holders(self, fingerprint) -> tuple:
        """The live holders of ``fingerprint`` (empty if unplaced)."""
        return self._holders.get(fingerprint, ())

    def is_placed(self, fingerprint) -> bool:
        return bool(self._holders.get(fingerprint))

    def placed_fingerprints(self) -> tuple:
        return tuple(self._holders)

    def rekey(self, old_fingerprint, new_fingerprint) -> tuple:
        """Move a placement across a delta's fingerprint advance."""
        holders = self._holders.pop(old_fingerprint, ())
        if holders:
            self._holders[new_fingerprint] = holders
        return holders

    def unplace(self, fingerprints) -> dict:
        """Drop placements; returns ``{worker_id: [fingerprint, ...]}``."""
        outgoing: dict = {}
        for fingerprint in fingerprints:
            for worker_id in self._holders.pop(fingerprint, ()):
                if worker_id in self._load:
                    self._load[worker_id] -= 1
                outgoing.setdefault(worker_id, []).append(fingerprint)
        return outgoing

    def remove_holder(self, fingerprint, worker_id) -> None:
        """Forget one claimed holder (a routing miss disproved it)."""
        holders = self._holders.get(fingerprint)
        if not holders or worker_id not in holders:
            return
        self._holders[fingerprint] = tuple(
            w for w in holders if w != worker_id
        )
        if worker_id in self._load:
            self._load[worker_id] -= 1

    def drop_worker(self, worker_id) -> list:
        """Forget a dead worker; returns fingerprints left holder-less."""
        self._load.pop(worker_id, None)
        orphaned = []
        for fingerprint, holders in list(self._holders.items()):
            if worker_id not in holders:
                continue
            remaining = tuple(w for w in holders if w != worker_id)
            self._holders[fingerprint] = remaining
            if not remaining:
                orphaned.append(fingerprint)
        return orphaned

    # ------------------------------------------------------------------
    def worker_load(self) -> dict:
        return dict(self._load)

    def __len__(self) -> int:
        return len(self._holders)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlacementMap(replication={self.replication}, "
            f"placed={len(self._holders)}, workers={len(self._load)})"
        )
