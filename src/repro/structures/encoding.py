"""Dense-integer encoding of structures: the data-side representation.

Every evaluator on the data side (:mod:`repro.engine.context`,
:func:`repro.algorithms.fpt_counting.execute_pp_plan`) runs over this
module's form of a structure: the universe interned to the dense
integers ``0..n-1`` and every relation stored column-major as
lexicographically sorted ``array('q')`` columns, so joins hash machine
integers and -- when numpy is importable -- run vectorized over
zero-copy ``int64`` views of the same columns.

Exactness is by construction: the decode table is the universe sorted
by ``repr`` (deltas append new elements at the tail), encoding is a
bijection between the universe and ``range(n)``, and counting is
invariant under bijections of the domain.  Decoding happens only at
result boundaries (decoded boundary relations); counts never need
decoding at all.

Table backend
-------------
The one platform split is *derived*, never chosen:
:func:`resolve_backend` is ``"numpy"`` when numpy imports
(:class:`NumpyTableOps`: packed-key vectorized joins) and ``"array"``
otherwise (the int-tuple hash joins of
:class:`repro.engine.context._PyTableOps`).  The probe goes through
:func:`_import_numpy` so tests can monkeypatch the import to simulate a
numpy-less interpreter.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence

from repro.budget import current_budget
from repro.exceptions import SignatureError
from repro.structures.structure import Element, Structure

#: Sentinel meaning "the numpy probe has not run yet".
_UNPROBED = object()

#: Cached numpy module (or ``None`` when the probe failed).  Tests reset
#: this to ``_UNPROBED`` together with monkeypatching ``_import_numpy``.
_numpy_module: object = _UNPROBED


def _import_numpy():
    """Import and return numpy.  Monkeypatched by tests to simulate
    an interpreter without numpy; keep this a separate function."""
    import numpy

    return numpy


def get_numpy():
    """The numpy module, or ``None`` when it is not importable."""
    global _numpy_module
    if _numpy_module is _UNPROBED:
        try:
            _numpy_module = _import_numpy()
        except Exception:
            _numpy_module = None
    return _numpy_module


def numpy_available() -> bool:
    """Does the vectorized backend have its dependency?"""
    return get_numpy() is not None


def resolve_backend() -> str:
    """The table backend this interpreter runs: ``"numpy"`` when numpy
    imports, ``"array"`` (pure python) otherwise."""
    return "numpy" if numpy_available() else "array"


class TableOverflow(Exception):
    """Internal: an intermediate encoded join table exceeded the row cap."""


# ----------------------------------------------------------------------
# Columnar storage
# ----------------------------------------------------------------------
class EncodedRelation:
    """One relation stored column-major as sorted ``array('q')`` columns.

    Rows are sorted lexicographically before the columns are split, so
    ``columns[0]`` is non-decreasing and equal-prefix runs are
    contiguous -- the layout the vectorized backend's sorted-array
    probes rely on.
    """

    __slots__ = ("name", "arity", "columns", "row_count")

    def __init__(
        self,
        name: str,
        arity: int,
        columns: tuple[array, ...],
        row_count: int,
    ):
        self.name = name
        self.arity = arity
        self.columns = columns
        self.row_count = row_count

    @classmethod
    def from_rows(
        cls, name: str, arity: int, rows: Iterable[tuple[int, ...]]
    ) -> "EncodedRelation":
        ordered = sorted(rows)
        columns = tuple(
            array("q", (row[i] for row in ordered)) for i in range(arity)
        )
        return cls(name, arity, columns, len(ordered))

    def iter_rows(self) -> Iterator[tuple[int, ...]]:
        if self.arity == 0:  # pragma: no cover - arity-0 symbols unused
            return iter(() for _ in range(self.row_count))
        return zip(*self.columns)

    @property
    def nbytes(self) -> int:
        return sum(col.itemsize * len(col) for col in self.columns)


class EncodedStructure:
    """A structure interned to the dense integer universe ``0..n-1``.

    ``decode`` is the universe sorted by ``repr``, so ``decode[i]``
    inverts the encoding and counting over ``range(n)`` is exact by
    bijection.
    Relations are stored as :class:`EncodedRelation` columns; derived
    views (int-tuple frozensets, an all-integer :class:`Structure`,
    numpy column views) are built lazily and excluded from pickling, so
    a pinned encoded context ships to workers as compact machine arrays
    rather than object-tuple frozensets.
    """

    __slots__ = (
        "signature",
        "decode",
        "size",
        "relations",
        "_encode",
        "_tuple_sets",
        "_int_structure",
        "_np_columns",
    )

    def __init__(self, structure: Structure):
        decode = tuple(sorted(structure.universe, key=repr))
        arities = {symbol.name: symbol.arity for symbol in structure.signature}
        encode = {element: i for i, element in enumerate(decode)}
        relations = {
            name: EncodedRelation.from_rows(
                name,
                arities[name],
                (tuple(encode[v] for v in t) for t in tuples),
            )
            for name, tuples in structure.relations.items()
        }
        self._init_from_parts(structure.signature, decode, relations)

    def _init_from_parts(self, signature, decode, relations) -> None:
        self.signature = signature
        self.decode = decode
        self.size = len(decode)
        self.relations = relations
        self._encode: dict[Element, int] | None = None
        self._tuple_sets: dict[str, frozenset[tuple[int, ...]]] = {}
        self._int_structure: Structure | None = None
        self._np_columns: dict[str, tuple] = {}

    # -- encoding / decoding -------------------------------------------
    @property
    def encode(self) -> dict[Element, int]:
        if self._encode is None:
            self._encode = {element: i for i, element in enumerate(self.decode)}
        return self._encode

    def decode_rows(
        self, rows: Iterable[tuple[int, ...]]
    ) -> frozenset[tuple[Element, ...]]:
        """Map int-tuple rows back to object-tuple rows."""
        decode = self.decode
        return frozenset(tuple(decode[v] for v in row) for row in rows)

    # -- delta application ----------------------------------------------
    def apply_delta(self, delta: "StructureDelta") -> "EncodedStructure":
        """A new encoded structure with ``delta`` applied incrementally.

        Instead of re-encoding the whole post-delta structure, this

        * **extends the decode table**: new universe elements are
          appended (in ``repr`` order among themselves), so every
          existing code -- and with it every untouched column, memoized
          base table, and boundary relation expressed in codes -- stays
          valid;
        * **merges into the sorted columns**: each touched relation's
          columns are rebuilt by a single merge pass over its sorted
          rows (deletes tombstoned out, sorted encoded inserts merged
          in), costing ``O(|relation| + |delta|)``;
        * **reuses untouched relations' columns** by reference.

        Note the decode table of a delta-applied encoding is no longer
        globally ``repr``-sorted (appended elements sort after the base
        block).  That is safe because the execution context's ``domain``
        *is* ``decode``, so the encode/decode bijection and the count
        semantics are unchanged.
        """
        from repro.exceptions import DeltaError

        if delta.is_empty:
            return self
        encode = dict(self.encode)
        decode = list(self.decode)
        for element in sorted(
            (e for e in delta.inserted_elements() if e not in encode), key=repr
        ):
            encode[element] = len(decode)
            decode.append(element)
        relations = dict(self.relations)
        for name in delta.relations:
            if name not in relations:
                raise SignatureError(f"unknown relation {name!r}")
            rel = relations[name]
            try:
                removed = {
                    tuple(encode[v] for v in t)
                    for t in delta.deletes.get(name, ())
                }
                added = sorted(
                    tuple(encode[v] for v in t)
                    for t in delta.inserts.get(name, ())
                )
            except KeyError as error:
                raise DeltaError(
                    f"delta deletes a tuple of relation {name!r} mentioning "
                    f"unknown element {error.args[0]!r}"
                ) from None
            survivors: Iterable[tuple[int, ...]] = rel.iter_rows()
            if removed:
                survivors = (row for row in survivors if row not in removed)
            if added:
                import heapq

                merged = heapq.merge(survivors, added)
            else:
                merged = survivors
            columns = tuple(array("q") for _ in range(rel.arity))
            row_count = 0
            previous: tuple[int, ...] | None = None
            for row in merged:
                if row == previous:
                    raise DeltaError(
                        f"delta inserts a tuple already present in relation "
                        f"{name!r}"
                    )
                previous = row
                for i, value in enumerate(row):
                    columns[i].append(value)
                row_count += 1
            if row_count != rel.row_count - len(removed) + len(added):
                raise DeltaError(
                    f"delta does not apply to relation {name!r}: deletes "
                    "must name present rows and inserts absent ones"
                )
            relations[name] = EncodedRelation(name, rel.arity, columns, row_count)
        new = object.__new__(EncodedStructure)
        new._init_from_parts(self.signature, tuple(decode), relations)
        new._encode = encode
        return new

    # -- derived views --------------------------------------------------
    def relation_rows(self, name: str) -> frozenset[tuple[int, ...]]:
        """The relation as a frozenset of int tuples (lazily built).

        Raises :class:`SignatureError` for unknown names, mirroring
        :meth:`Structure.relation`.
        """
        if name not in self.relations:
            raise SignatureError(f"unknown relation {name!r}")
        if name not in self._tuple_sets:
            self._tuple_sets[name] = frozenset(self.relations[name].iter_rows())
        return self._tuple_sets[name]

    def int_structure(self) -> Structure:
        """The isomorphic all-integer structure (for backtracking and
        sentence satisfiability, which are element-agnostic)."""
        if self._int_structure is None:
            self._int_structure = Structure(
                self.signature,
                range(self.size),
                {name: self.relation_rows(name) for name in self.relations},
            )
        return self._int_structure

    def np_columns(self, name: str) -> tuple:
        """Zero-copy ``int64`` numpy views of a relation's columns."""
        if name not in self._np_columns:
            np = get_numpy()
            rel = self.relations[name]
            self._np_columns[name] = tuple(
                np.frombuffer(col, dtype=np.int64) for col in rel.columns
            )
        return self._np_columns[name]

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of the columnar storage (decode
        table counted as one pointer per element)."""
        return 8 * self.size + sum(
            rel.nbytes for rel in self.relations.values()
        )

    # -- pickling: ship only the compact columnar state -----------------
    def __getstate__(self):
        return (
            self.signature,
            self.decode,
            {
                name: (rel.name, rel.arity, rel.columns, rel.row_count)
                for name, rel in self.relations.items()
            },
        )

    def __setstate__(self, state) -> None:
        signature, decode, relations = state
        self._init_from_parts(
            signature,
            decode,
            {
                name: EncodedRelation(*parts)
                for name, parts in relations.items()
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EncodedStructure(|U|={self.size}, "
            f"{len(self.relations)} relations, {self.nbytes} bytes)"
        )


# ----------------------------------------------------------------------
# Vectorized table operations (numpy backend)
# ----------------------------------------------------------------------
class NumpyTableOps:
    """Vectorized ``(columns, int64 row matrix)`` tables for the
    semijoin sweep.

    Joins pack the shared-column values of each side into a single
    mixed-radix ``int64`` key (radix ``n``; falls back to python tuple
    keys when ``n**k`` would overflow 63 bits), sort one side, and
    expand matches with ``searchsorted`` + ``repeat`` -- no python-level
    loop over rows.  Tables keep rows unique (base tables deduplicate,
    joins of unique inputs on shared columns are unique, projections
    run through ``unique``), so row counts equal set cardinalities and
    the row cap has the same meaning as for the python set tables.
    """

    __slots__ = ("encoded", "np", "row_cap", "memo")

    def __init__(
        self,
        encoded: EncodedStructure,
        row_cap: int,
        memo: dict,
    ):
        self.encoded = encoded
        self.np = get_numpy()
        self.row_cap = row_cap
        self.memo = memo

    # -- table constructors ---------------------------------------------
    def base_table(self, name: str, scope: tuple) -> tuple[tuple, object]:
        """One atom as a (columns, rows) table; repeated scope variables
        become equality filters, memoized per ``(name, scope)``."""
        key = (name, scope)
        if key in self.memo:
            return self.memo[key]
        np = self.np
        raw = self.encoded.np_columns(name)
        columns: list = []
        first_pos: list[int] = []
        for pos, variable in enumerate(scope):
            if variable not in columns:
                columns.append(variable)
                first_pos.append(pos)
        mask = None
        for pos, variable in enumerate(scope):
            anchor = first_pos[columns.index(variable)]
            if anchor != pos:
                equal = raw[anchor] == raw[pos]
                mask = equal if mask is None else (mask & equal)
        picked = [raw[p] if mask is None else raw[p][mask] for p in first_pos]
        if picked:
            rows = np.stack(picked, axis=1)
        else:  # pragma: no cover - arity-0 symbols unused
            rows = np.empty((0, 0), dtype=np.int64)
        if len(set(scope)) != len(scope):
            # Equality filtering can leave duplicate projected rows.
            rows = self._dedup(rows)
        table = (tuple(columns), rows)
        self.memo[key] = table
        return table

    def is_empty(self, table: tuple[tuple, object]) -> bool:
        return table[1].shape[0] == 0

    # -- core operations -------------------------------------------------
    def join(
        self, left: tuple[tuple, object], right: tuple[tuple, object]
    ) -> tuple[tuple, object]:
        np = self.np
        left_cols, left_rows = left
        right_cols, right_rows = right
        shared = [c for c in right_cols if c in left_cols]
        extra = [i for i, c in enumerate(right_cols) if c not in left_cols]
        out_cols = tuple(left_cols) + tuple(right_cols[i] for i in extra)
        left_n = left_rows.shape[0]
        right_n = right_rows.shape[0]
        if left_n == 0 or right_n == 0:
            return out_cols, np.empty((0, len(out_cols)), dtype=np.int64)
        budget = current_budget()
        if not shared:
            if left_n * right_n > self.row_cap:
                raise TableOverflow
            if budget is not None:
                budget.charge(left_n * right_n)
            left_idx = np.repeat(np.arange(left_n), right_n)
            right_idx = np.tile(np.arange(right_n), left_n)
        else:
            left_key = self._pack(left_rows, [left_cols.index(c) for c in shared])
            right_key = self._pack(right_rows, [right_cols.index(c) for c in shared])
            if left_key is None or right_key is None:
                return self._join_tuples(left, right, shared, extra, out_cols)
            order = np.argsort(right_key, kind="stable")
            right_sorted = right_key[order]
            lo = np.searchsorted(right_sorted, left_key, side="left")
            hi = np.searchsorted(right_sorted, left_key, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total > self.row_cap:
                raise TableOverflow
            if budget is not None:
                budget.charge(left_n + right_n + total)
            left_idx = np.repeat(np.arange(left_n), counts)
            starts = np.repeat(lo, counts)
            offsets = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            right_idx = order[starts + offsets]
        if extra:
            out = np.concatenate(
                [left_rows[left_idx], right_rows[right_idx][:, extra]], axis=1
            )
        else:
            out = left_rows[left_idx]
        return out_cols, out

    def project(
        self, table: tuple[tuple, object], keep: tuple
    ) -> tuple[tuple, object]:
        columns, rows = table
        positions = [columns.index(c) for c in keep]
        if not positions:
            # Zero columns: the projection is {()} iff any row survives.
            return tuple(keep), rows[:0, :0] if rows.shape[0] == 0 else rows[:1, :0]
        return tuple(keep), self._dedup(rows[:, positions])

    def finalize(self, table: tuple[tuple, object], boundary: tuple) -> frozenset:
        """Decode-free exit: project and freeze into int tuples."""
        _, rows = self.project(table, tuple(boundary))
        return frozenset(map(tuple, rows.tolist()))

    # -- helpers ---------------------------------------------------------
    def _dedup(self, rows):
        np = self.np
        if rows.shape[0] <= 1:
            return rows
        key = self._pack(rows, list(range(rows.shape[1])))
        if key is None:
            return np.unique(rows, axis=0)
        _, index = np.unique(key, return_index=True)
        return rows[index]

    def _pack(self, rows, positions: Sequence[int]):
        """Mixed-radix int64 key over ``positions``; ``None`` when the
        packed width would overflow 63 bits."""
        np = self.np
        radix = max(self.encoded.size, 1)
        if radix ** len(positions) >= 2**63:
            return None
        key = rows[:, positions[0]].astype(np.int64, copy=True)
        for position in positions[1:]:
            key *= radix
            key += rows[:, position]
        return key

    def _join_tuples(self, left, right, shared, extra, out_cols):
        """Python-tuple fallback join for unpackable key widths."""
        np = self.np
        left_cols, left_rows = left
        right_cols, right_rows = right
        left_pos = [left_cols.index(c) for c in shared]
        right_pos = [right_cols.index(c) for c in shared]
        budget = current_budget()
        buckets: dict[tuple, list[tuple]] = {}
        for row in map(tuple, right_rows.tolist()):
            key = tuple(row[i] for i in right_pos)
            buckets.setdefault(key, []).append(tuple(row[i] for i in extra))
        out: list[tuple] = []
        for row in map(tuple, left_rows.tolist()):
            key = tuple(row[i] for i in left_pos)
            if budget is not None:
                budget.charge(1)
            for extras in buckets.get(key, ()):
                out.append(row + extras)
                if len(out) > self.row_cap:
                    raise TableOverflow
        if not out:
            return out_cols, np.empty((0, len(out_cols)), dtype=np.int64)
        return out_cols, np.array(out, dtype=np.int64)
