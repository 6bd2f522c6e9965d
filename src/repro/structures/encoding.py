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
otherwise (the int-tuple hash joins of :class:`_PyTableOps`).  Both
kernels live here and serve the one data-side evaluator,
:func:`repro.algorithms.csp.eliminate`, through two operations,
``join_project`` and ``project``.  The table decides what dropping a
column means: plain ``(columns, rows)`` tables dedup what it merges
(the ∃-elimination of :mod:`repro.engine.context`), weighted ones sum
their weights (the count of
:func:`repro.algorithms.csp.count_solutions_tables`).
The probe goes through :func:`_import_numpy` so tests can monkeypatch
the import to simulate a numpy-less interpreter.

Two rules hold for every weighted operation of the numpy kernel:

* **Exact integers.**  A weighted table carries a python-int upper
  bound on its weights (product of the input bounds at a join; largest
  group x bound where a dropped column merges rows, the final total
  included).  A step whose bound would reach ``2**63`` -- like a join
  or group key too wide to pack -- runs on :class:`_PyTableOps` (python
  ints) instead, so no ``int64`` ever wraps.
* **Charge before allocate.**  A join counts its matches first, charges
  the ambient :class:`~repro.budget.CostBudget` with that count, and
  only then expands them, at most :data:`SEMIJOIN_ROW_CAP` rows at a
  time -- a step or deadline budget interrupts a blow-up before its
  memory is spent.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.budget import current_budget
from repro.exceptions import DeltaError, ReproError, SignatureError
from repro.obs import trace as _trace
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


#: The piece size of the numpy joins: the most matched pairs a join
#: expands at once.  Each piece is projected and merged (deduplicated,
#: or its weights summed) before the next.
SEMIJOIN_ROW_CAP = 500_000

#: Weights stay in ``int64`` arrays only while their bound is below this.
_INT64_LIMIT = 2**63


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

    def splice(
        self,
        inserts: Sequence[tuple[int, ...]],
        deletes: Sequence[tuple[int, ...]],
    ) -> "EncodedRelation":
        """A new relation with the rows ``inserts`` added and ``deletes``
        removed, its columns still sorted; ``self`` is left as it is.

        Each row is binary-searched to its lexicographic position
        (``O(log n)`` row probes), which is also the strictness check: a
        deleted row must be present, an inserted one absent, neither
        named twice (:class:`~repro.exceptions.DeltaError` otherwise).
        The new columns are slice copies of the old ones around those
        positions, so beyond the probes the cost is a ``memcpy``.
        """
        columns, count = self.columns, self.row_count

        def row_at(position: int) -> tuple[int, ...]:
            return tuple(column[position] for column in columns)

        # (position, 0: insert before it | 1: skip it, row); sorted, the
        # inserts sharing a position come out in row order, ahead of a
        # delete of the row they precede.
        edits = []
        for skip, rows in ((1, deletes), (0, inserts)):
            for row in rows:
                if len(row) != self.arity:
                    raise DeltaError(
                        f"delta tuple of arity {len(row)} for relation "
                        f"{self.name!r} of arity {self.arity}"
                    )
                position = bisect_left(range(count), row, key=row_at)
                present = position < count and row_at(position) == row
                if present != bool(skip):
                    problem = (
                        "deletes a tuple absent from"
                        if skip
                        else "inserts a tuple already present in"
                    )
                    raise DeltaError(f"delta {problem} relation {self.name!r}")
                edits.append((position, skip, row))
        edits.sort()
        if any(edit == following for edit, following in zip(edits, edits[1:])):
            raise DeltaError(
                f"delta names a tuple of relation {self.name!r} twice"
            )
        spliced = []
        for i, column in enumerate(columns):
            out = array("q")
            cursor = 0
            for position, skip, row in edits:
                out.extend(column[cursor:position])
                if not skip:
                    out.append(row[i])
                cursor = position + skip
            out.extend(column[cursor:])
            spliced.append(out)
        return EncodedRelation(
            self.name,
            self.arity,
            tuple(spliced),
            count + len(inserts) - len(deletes),
        )

    @property
    def nbytes(self) -> int:
        return sum(col.itemsize * len(col) for col in self.columns)


def _intern_matrix(np, name: str, arity: int, tuples, encode) -> EncodedRelation:
    """A relation interned as one ``int64`` matrix, its rows in
    lexicographic order: the columns of :meth:`EncodedRelation.from_rows`
    without a python tuple per row.  Values are codes below
    ``len(encode)``, so the rows sort as their mixed-radix packed keys
    (:meth:`NumpyTableOps._pack`) do, or by one ``lexsort`` when a key
    would not fit in ``int64``."""
    count = len(tuples)
    flat = np.fromiter(
        map(encode.__getitem__, chain.from_iterable(tuples)),
        dtype=np.int64,
        count=count * arity,
    )
    matrix = flat.reshape(count, arity)
    order = None
    if count > 1 and arity:
        key = NumpyTableOps(len(encode))._pack(matrix, range(arity))
        # lexsort's last key is the primary one.
        order = np.lexsort(matrix.T[::-1]) if key is None else np.argsort(key)
    columns = tuple(_column(np, matrix[:, i], order) for i in range(arity))
    return EncodedRelation(name, arity, columns, count)


def _column(np, values, order=None) -> array:
    """``values`` (taken at the indices ``order``) written straight into
    a new ``q`` column.  No temporary copy: once a freed temporary this
    large raises glibc's mmap threshold, later ones stay in the heap
    (intermediate gathers put 2-3 MB on ``cold-cluster-25k``'s peak
    RSS)."""
    column = array("q", [0]) * len(values if order is None else order)
    if column:
        target = np.frombuffer(column, dtype=np.int64)
        if order is None:
            target[:] = values
        else:
            np.take(values, order, out=target)
    return column


def _little_endian(column: array) -> array:
    """A ``q`` column whose bytes are little-endian ``int64``."""
    if sys.byteorder == "big":  # pragma: no cover - no such host in CI
        column = array("q", column)
        column.byteswap()
    return column


def _split_rows(columns, owner, local, parts: int) -> list[tuple]:
    """:meth:`EncodedStructure.split` of one relation on python ints:
    ``(columns, row count)`` per part."""
    rows: list[list[tuple[int, ...]]] = [[] for _ in range(parts)]
    for row in zip(*columns):
        rows[owner[row[0]]].append(tuple(map(local.__getitem__, row)))
    return [
        (
            tuple(array("q", (row[i] for row in piece)) for i in range(len(columns))),
            len(piece),
        )
        for piece in rows
    ]


def _split_columns(np, columns, owner, local, parts: int) -> list[tuple]:
    """:func:`_split_rows` on ``int64`` column views: a stable sort of
    the rows by part keeps each part's rows in order."""
    row_owner = owner[columns[0]]
    order = np.argsort(row_owner, kind="stable")
    bounds = np.cumsum(np.bincount(row_owner, minlength=parts)).tolist()
    grouped = [column[order] for column in columns]
    return [
        (tuple(_column(np, local, column[low:high]) for column in grouped), high - low)
        for low, high in zip([0] + bounds, bounds)
    ]


class EncodedStructure:
    """A structure interned to the dense integer universe ``0..n-1``.

    ``decode`` is the universe sorted by ``repr``, so ``decode[i]``
    inverts the encoding and counting over ``range(n)`` is exact by
    bijection.
    Relations are stored as :class:`EncodedRelation` columns; the numpy
    column views are built lazily and excluded from pickling, so a
    pinned encoded context ships to workers as compact machine arrays
    rather than object-tuple frozensets.

    Under numpy a relation is interned as one ``int64`` matrix
    (``np.fromiter`` over the interned values) ordered by one sort of
    its packed rows; without it, as sorted int tuples.  Both give the
    same columns byte for byte.  ``canonical`` says the decode table is
    globally ``repr``-sorted -- true for a fresh encoding and for the
    slices of :meth:`split`, false once a delta appended elements --
    which is what :meth:`fingerprint` and :meth:`split` need.
    """

    __slots__ = (
        "signature",
        "decode",
        "size",
        "relations",
        "canonical",
        "_encode",
        "_np_columns",
    )

    def __init__(self, structure: Structure):
        np = get_numpy()
        with _trace.span(
            "context.encode",
            universe=len(structure),
            tuples=structure.total_tuples,
            backend="array" if np is None else "numpy",
        ):
            decode = tuple(sorted(structure.universe, key=repr))
            arities = {symbol.name: symbol.arity for symbol in structure.signature}
            encode = dict(zip(decode, range(len(decode))))
            relations = {
                name: (
                    _intern_matrix(np, name, arities[name], tuples, encode)
                    if np is not None
                    else EncodedRelation.from_rows(
                        name,
                        arities[name],
                        (tuple(map(encode.__getitem__, t)) for t in tuples),
                    )
                )
                for name, tuples in structure.relations.items()
            }
        self._init_from_parts(structure.signature, decode, relations)

    def _init_from_parts(self, signature, decode, relations, canonical=True) -> None:
        self.signature = signature
        self.decode = decode
        self.size = len(decode)
        self.relations = relations
        self.canonical = canonical
        self._encode: dict[Element, int] | None = None
        self._np_columns: dict[str, tuple] = {}

    @classmethod
    def _from_parts(
        cls, signature, decode, relations, canonical=True
    ) -> "EncodedStructure":
        new = object.__new__(cls)
        new._init_from_parts(signature, decode, relations, canonical)
        return new

    # -- content fingerprint ----------------------------------------------
    def fingerprint(self) -> tuple[int, tuple, str]:
        """The content fingerprint of the structure this encodes:
        ``(universe size, per-relation (name, arity, row count)s,
        digest)``, the digest a 16-byte BLAKE2 over

        * the ``repr`` of every decode-table entry, in code order,
          joined by NUL (UTF-8, backslash-escaped);
        * then, per relation in name order, ``\\x01name/arity/rows`` and
          each column as little-endian ``int64``.

        Only a canonical encoding (fresh, or a :meth:`split` slice)
        fingerprints the content: its codes are ``repr`` ranks, so
        equal structures encode, and digest, identically in every
        process.
        """
        import hashlib

        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            "\x00".join(map(repr, self.decode)).encode("utf-8", "backslashreplace")
        )
        counts = []
        for name in sorted(self.relations):
            relation = self.relations[name]
            counts.append((name, relation.arity, relation.row_count))
            digest.update(
                f"\x01{name}/{relation.arity}/{relation.row_count}".encode("utf-8")
            )
            for column in relation.columns:
                digest.update(_little_endian(column))
        return self.size, tuple(counts), digest.hexdigest()

    # -- component-aligned slices ----------------------------------------
    def split(self, owner: Sequence[int], parts: int) -> list["EncodedStructure"]:
        """One encoding per part, ``owner[code]`` naming each code's
        part, for an ``owner`` that never splits a row (every value of
        a row has its first value's part).

        A part's decode table is this one's, masked in code order; its
        rows are the rows whose first value it owns, each value
        renumbered by its rank among the part's codes.  The renumbering
        is monotone, so the rows stay sorted, and a slice of a
        canonical encoding equals the fresh encoding of the part's
        substructure byte for byte.
        """
        local, decodes = [0] * self.size, [[] for _ in range(parts)]
        for code, (part, element) in enumerate(zip(owner, self.decode)):
            local[code] = len(decodes[part])
            decodes[part].append(element)
        np = get_numpy()
        if np is not None:
            owner, local = (np.asarray(v, dtype=np.int64) for v in (owner, local))
        relations: list[dict[str, EncodedRelation]] = [{} for _ in range(parts)]
        for name, relation in self.relations.items():
            pieces = (
                _split_rows(relation.columns, owner, local, parts)
                if np is None
                else _split_columns(np, self.np_columns(name), owner, local, parts)
            )
            for part, (columns, count) in enumerate(pieces):
                relations[part][name] = EncodedRelation(
                    name, relation.arity, columns, count
                )
        return [
            EncodedStructure._from_parts(self.signature, tuple(decode), part)
            for decode, part in zip(decodes, relations)
        ]

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
        * **splices into the sorted columns**: each delta row is
          binary-searched to its lexicographic position in the touched
          relation (``O(log |relation|)`` row probes), and the new
          columns are slice copies of the old ones with the inserted
          values in place and the deleted positions skipped -- so the
          python work is ``O(|delta| log |relation|)`` and the rest is
          a ``memcpy`` of the touched columns;
        * **reuses untouched relations' columns** by reference, and the
          ``encode`` / ``decode`` tables too when the delta brings no
          new element.

        The delta is strict here as everywhere: a delete must hit a
        present row and an insert an absent one
        (:class:`~repro.exceptions.DeltaError` otherwise; ``self`` is
        never mutated).

        Note the decode table of a delta-applied encoding is no longer
        globally ``repr``-sorted (appended elements sort after the base
        block).  That is safe because the execution context's ``domain``
        *is* ``decode``, so the encode/decode bijection and the count
        semantics are unchanged.
        """
        if delta.is_empty:
            return self
        encode, decode = self.encode, self.decode
        fresh = sorted(
            (e for e in delta.inserted_elements() if e not in encode), key=repr
        )
        if fresh:
            encode = dict(encode)
            for code, element in enumerate(fresh, len(decode)):
                encode[element] = code
            decode = decode + tuple(fresh)
        inserts, deletes = delta.inserts, delta.deletes
        relations = dict(self.relations)
        for name in delta.relations:
            if name not in relations:
                raise SignatureError(f"unknown relation {name!r}")
            try:
                removed = [
                    tuple(encode[v] for v in t) for t in deletes.get(name, ())
                ]
            except KeyError as error:
                raise DeltaError(
                    f"delta deletes a tuple of relation {name!r} mentioning "
                    f"unknown element {error.args[0]!r}"
                ) from None
            added = [tuple(encode[v] for v in t) for t in inserts.get(name, ())]
            relations[name] = relations[name].splice(added, removed)
        new = EncodedStructure._from_parts(
            self.signature, decode, relations, self.canonical and not fresh
        )
        new._encode = encode
        return new

    # -- derived views --------------------------------------------------
    def check_atom(self, name: str, scope: tuple) -> None:
        """Raise :class:`SignatureError` unless ``name(scope)`` is an
        atom over this structure's signature."""
        if name not in self.relations:
            raise SignatureError(f"unknown relation {name!r}")
        arity = self.relations[name].arity
        if len(scope) != arity:
            raise SignatureError(
                f"relation {name!r} has arity {arity}, not {len(scope)}"
            )

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
            canonical=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EncodedStructure(|U|={self.size}, "
            f"{len(self.relations)} relations, {self.nbytes} bytes)"
        )


# ----------------------------------------------------------------------
# Python table operations (array backend, and the exact kernel)
# ----------------------------------------------------------------------
def _base_table(relation: EncodedRelation, scope: tuple) -> tuple[tuple, set]:
    """Materialize one atom as a (columns, rows) table.

    Repeated variables in the scope become equality filters; columns are
    the distinct variables in first-occurrence order.
    """
    columns: list = []
    for variable in scope:
        if variable not in columns:
            columns.append(variable)
    rows: set[tuple] = set()
    for t in relation.iter_rows():
        values: dict = {}
        consistent = True
        for variable, value in zip(scope, t):
            if values.setdefault(variable, value) != value:
                consistent = False
                break
        if consistent:
            rows.add(tuple(values[c] for c in columns))
    return tuple(columns), rows


def _join_project(left: tuple, right: tuple, keep: tuple) -> tuple:
    """Hash join of two tables on their shared columns, projected onto
    ``keep``: each joined row is projected as it is made, so only the
    output is held.  Plain tables (row sets) dedup what the projection
    merges; weighted ones (``{row: weight}``) sum it, a joined row
    weighing the product of its two sources."""
    left_cols, left_rows = left
    right_cols, right_rows = right
    weighted = isinstance(left_rows, dict)
    shared = [c for c in right_cols if c in left_cols]
    left_positions = [left_cols.index(c) for c in shared]
    right_positions = [right_cols.index(c) for c in shared]
    extra_positions = [
        i for i, c in enumerate(right_cols) if c not in left_cols
    ]
    joined_cols = tuple(left_cols) + tuple(right_cols[i] for i in extra_positions)
    positions = [joined_cols.index(c) for c in keep]
    buckets: dict[tuple, list[tuple]] = {}
    for row in right_rows:
        key = tuple(row[i] for i in right_positions)
        weight = right_rows[row] if weighted else 1
        buckets.setdefault(key, []).append(
            (tuple(row[i] for i in extra_positions), weight)
        )
    out = {} if weighted else set()
    budget = current_budget()
    for row in left_rows:
        key = tuple(row[i] for i in left_positions)
        matches = buckets.get(key, ())
        if budget is not None:
            budget.charge(1 + len(matches))
        if weighted:
            weight = left_rows[row]
            for extra, right_weight in matches:
                joined = row + extra
                projected = tuple(joined[i] for i in positions)
                out[projected] = out.get(projected, 0) + weight * right_weight
        else:
            for extra, _ in matches:
                joined = row + extra
                out.add(tuple(joined[i] for i in positions))
    return tuple(keep), out


def _project(table: tuple, keep: tuple) -> tuple:
    """``table`` projected onto ``keep``: a plain table dedups, a
    weighted one sums the weights of the rows agreeing on ``keep``."""
    columns, rows = table
    if tuple(keep) == columns:
        return table
    positions = [columns.index(c) for c in keep]
    if not isinstance(rows, dict):
        return tuple(keep), {tuple(row[i] for i in positions) for row in rows}
    out: dict[tuple, int] = {}
    for row, weight in rows.items():
        key = tuple(row[i] for i in positions)
        out[key] = out.get(key, 0) + weight
    return tuple(keep), out


class _PyTableOps:
    """Python int-tuple tables: the backend when numpy does not import,
    and the exact kernel the numpy backend hands overflowing steps to.

    A plain table is ``(columns, set of rows)``, a weighted one
    ``(columns, {row: weight})`` with python-int weights.  ``memo``
    caches base tables per ``(relation_name, scope)`` -- the relations
    are immutable and joins never mutate their inputs, so cached tables
    are safe to share across components and calls.  ``encoded`` is the
    row source of :meth:`base_table`; a kernel over hand-made tables
    (:func:`table_ops`) has none.
    """

    __slots__ = ("encoded", "memo")

    def __init__(
        self, encoded: EncodedStructure | None = None, memo: dict | None = None
    ):
        self.encoded = encoded
        self.memo = {} if memo is None else memo

    # -- plain tables ------------------------------------------------------
    def base_table(self, name: str, scope: tuple) -> tuple[tuple, set]:
        key = (name, scope)
        if key not in self.memo:
            self.encoded.check_atom(name, scope)
            self.memo[key] = _base_table(self.encoded.relations[name], scope)
        return self.memo[key]

    @staticmethod
    def table(columns: tuple, rows) -> tuple[tuple, set]:
        """A table from hand-made rows (any iterable of int tuples)."""
        if not isinstance(rows, (set, frozenset)):
            rows = set(rows)
        return tuple(columns), rows

    @staticmethod
    def is_empty(table) -> bool:
        return not table[1]

    @staticmethod
    def iter_rows(table) -> Iterable[tuple[int, ...]]:
        return table[1]

    join_project = staticmethod(_join_project)
    project = staticmethod(_project)

    # -- weighted tables (the Σ pass) --------------------------------------
    @staticmethod
    def weighted(table: tuple[tuple, set]) -> tuple[tuple, dict]:
        columns, rows = table
        return columns, dict.fromkeys(rows, 1)

    @staticmethod
    def is_weighted(table) -> bool:
        return isinstance(table[1], dict)

    @staticmethod
    def total(table: tuple[tuple, dict]) -> int:
        return sum(table[1].values())


# ----------------------------------------------------------------------
# Vectorized table operations (numpy backend)
# ----------------------------------------------------------------------
class WeightedRows(NamedTuple):
    """A weighted table of the numpy kernel: unique ``int64`` rows, one
    ``int64`` weight per row, and a python-int upper bound on every
    weight (the exactness guard, see the module docstring)."""

    columns: tuple
    rows: object
    weights: object
    bound: int


class NumpyTableOps:
    """Vectorized ``(columns, int64 row matrix)`` tables.

    Joins pack the shared-column values of each side into a single
    mixed-radix ``int64`` key (radix ``size``), sort one side, and
    expand matches with ``searchsorted`` + ``repeat`` -- no python-level
    loop over rows.  Tables keep rows unique (base tables deduplicate,
    joins of unique inputs on shared columns are unique, projections
    run through ``unique``), so row counts equal set cardinalities and
    the row cap has the same meaning as for the python set tables.

    The same operations run over :class:`WeightedRows` (weights
    multiply through the gathered indices, group sums are
    ``add.reduceat`` over sorted keys); a weighted table may instead be
    in :class:`_PyTableOps` weighted form, which is what a step that
    fails the exactness guard produces and every later step accepts.

    ``size`` bounds the values (and is the packing radix); ``encoded``
    is the column source of :meth:`base_table` -- a kernel over
    hand-made tables (:func:`table_ops`) has none.
    """

    __slots__ = ("size", "encoded", "np", "memo")

    def __init__(
        self,
        size: int,
        encoded: EncodedStructure | None = None,
        memo: dict | None = None,
    ):
        self.size = size
        self.encoded = encoded
        self.np = get_numpy()
        self.memo = {} if memo is None else memo

    # -- table constructors ---------------------------------------------
    def base_table(self, name: str, scope: tuple) -> tuple[tuple, object]:
        """One atom as a (columns, rows) table; repeated scope variables
        become equality filters, memoized per ``(name, scope)``."""
        key = (name, scope)
        if key in self.memo:
            return self.memo[key]
        np = self.np
        self.encoded.check_atom(name, scope)
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

    def table(self, columns: tuple, rows) -> tuple[tuple, object]:
        """A table from hand-made rows (any iterable of int tuples over
        ``range(size)``); a row matrix passes through."""
        np = self.np
        if not isinstance(rows, np.ndarray):
            unique = list(set(rows))
            rows = np.array(unique, dtype=np.int64).reshape(
                len(unique), len(columns)
            )
            if rows.size and (rows.min() < 0 or rows.max() >= self.size):
                raise ReproError(
                    f"table over {columns!r} has values outside "
                    f"range({self.size})"
                )
        return tuple(columns), rows

    @staticmethod
    def is_empty(table) -> bool:
        return len(table[1]) == 0

    @staticmethod
    def iter_rows(table: tuple[tuple, object]) -> Iterable[list[int]]:
        return table[1].tolist()

    # -- the join-project kernel ------------------------------------------
    def join_project(self, left, right, keep: tuple):
        """The join of two tables on their shared columns, projected onto
        ``keep``: a plain table dedups what the projection merges, a
        weighted one sums its weights (a joined row weighs the product
        of its two sources).  Matches expand in pieces of at most
        :data:`SEMIJOIN_ROW_CAP` pairs; each piece gathers only the kept
        columns and is merged before the next, so beyond the output
        only one piece is ever held."""
        np = self.np
        keep = tuple(keep)
        weighted = self.is_weighted(left)
        if weighted and not (
            isinstance(left, WeightedRows)
            and isinstance(right, WeightedRows)
            and left.bound * right.bound < _INT64_LIMIT
        ):
            return _join_project(self._exact(left), self._exact(right), keep)
        left_cols, left_rows = left[:2]
        right_cols, right_rows = right[:2]
        if left_rows.shape[0] == 0 or right_rows.shape[0] == 0:
            empty = np.empty((0, len(keep)), dtype=np.int64)
            return self.weighted((keep, empty)) if weighted else (keep, empty)
        matches = self._match(left_cols, left_rows, right_cols, right_rows)
        if matches is None:  # shared columns too wide to pack: python rows
            if weighted:
                return _join_project(self._exact(left), self._exact(right), keep)
            return self.table(
                *_join_project(
                    (left_cols, map(tuple, left_rows.tolist())),
                    (right_cols, map(tuple, right_rows.tolist())),
                    keep,
                )
            )
        left_keep = [i for i, c in enumerate(left_cols) if c in keep]
        extra = [
            i for i, c in enumerate(right_cols) if c in keep and c not in left_cols
        ]
        gathered = tuple(left_cols[i] for i in left_keep) + tuple(
            right_cols[i] for i in extra
        )
        # Distinct joined rows stay distinct unless a column is dropped.
        drops = len(keep) < len(set(left_cols).union(right_cols))
        narrow = left_rows[:, left_keep]
        pieces = []
        for left_idx, right_idx in self._pairs(*matches):
            rows = self._gather(narrow, left_idx, right_rows, right_idx, extra)
            piece = (
                WeightedRows(
                    gathered,
                    rows,
                    left.weights[left_idx] * right.weights[right_idx],
                    left.bound * right.bound,
                )
                if weighted
                else (gathered, rows)
            )
            pieces.append(self._merge(piece) if drops else piece)
        if len(pieces) > 1:
            pieces = [self._stack(pieces, drops)]
        return self.project(pieces[0], keep)

    def project(self, table, keep: tuple):
        """``table`` projected onto ``keep``: a plain table dedups, a
        weighted one sums the weights of the rows agreeing on ``keep``."""
        columns, rows = table[:2]
        keep = tuple(keep)
        if keep == columns:
            return table  # rows are unique already
        if isinstance(rows, dict):
            return _project(table, keep)
        positions = [columns.index(c) for c in keep]
        if isinstance(table, WeightedRows):
            picked = WeightedRows(
                keep, rows[:, positions], table.weights, table.bound
            )
            return picked if len(keep) == len(columns) else self._merge(picked)
        if not positions:
            # Zero columns: the projection is {()} iff any row survives.
            return keep, rows[:1, :0]
        rows = rows[:, positions]
        # A reordering of the columns keeps the rows unique.
        return keep, rows if len(keep) == len(columns) else self._dedup(rows)

    # -- weighted tables (the Σ pass) --------------------------------------
    def weighted(self, table: tuple[tuple, object]) -> WeightedRows:
        columns, rows = table
        return WeightedRows(
            columns, rows, self.np.ones(rows.shape[0], dtype=self.np.int64), 1
        )

    @staticmethod
    def is_weighted(table) -> bool:
        return isinstance(table, WeightedRows) or isinstance(table[1], dict)

    def total(self, table) -> int:
        if isinstance(table, WeightedRows):
            return sum(table.weights.tolist())
        return _PyTableOps.total(table)

    # -- helpers ---------------------------------------------------------
    def _exact(self, table) -> tuple[tuple, dict]:
        """``table`` in :class:`_PyTableOps` weighted form, equal rows
        summed."""
        if not isinstance(table, WeightedRows):
            return table
        rows: dict[tuple, int] = {}
        pairs = zip(map(tuple, table.rows.tolist()), table.weights.tolist())
        for row, weight in pairs:
            rows[row] = rows.get(row, 0) + weight
        return table.columns, rows

    def _merge(self, table):
        """Collapse the equal rows of a table: dedup a plain one, sum the
        weights of a weighted one -- in python ints when a group's bound
        would reach ``2**63`` or the rows are too wide to pack."""
        np = self.np
        if not isinstance(table, WeightedRows):
            return table[0], self._dedup(table[1])
        columns, rows, weights, bound = table
        if rows.shape[0] <= 1:
            return table
        key = self._pack(rows, list(range(len(columns))))
        if key is not None:
            order = np.argsort(key, kind="stable")
            key = key[order]
            starts = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1))
            out_bound = int(np.diff(starts, append=key.shape[0]).max()) * bound
            if out_bound < _INT64_LIMIT:
                # Never bincount(weights=): it accumulates in floats.
                sums = np.add.reduceat(weights[order], starts)
                return WeightedRows(columns, rows[order[starts]], sums, out_bound)
        return self._exact(table)

    def _stack(self, pieces: list, drops: bool):
        """One table from the pieces of a join, merged across pieces
        when the join drops a column."""
        np = self.np
        columns = pieces[0][0]
        if not self.is_weighted(pieces[0]):
            rows = np.concatenate([piece[1] for piece in pieces])
            return columns, self._dedup(rows) if drops else rows
        if all(isinstance(piece, WeightedRows) for piece in pieces):
            stacked = WeightedRows(
                columns,
                np.concatenate([piece.rows for piece in pieces]),
                np.concatenate([piece.weights for piece in pieces]),
                max(piece.bound for piece in pieces),
            )
            return self._merge(stacked) if drops else stacked
        # A piece was summed in python ints: so are the rest.
        out: dict[tuple, int] = {}
        for piece in pieces:
            for row, weight in self._exact(piece)[1].items():
                out[row] = out.get(row, 0) + weight
        return columns, out

    def _match(self, left_cols, left_rows, right_cols, right_rows):
        """Count the matches of a join on the shared columns without
        expanding them.

        Returns ``(lo, counts, order, total)`` -- left row ``i`` matches
        the right rows ``order[lo[i] : lo[i] + counts[i]]`` -- or
        ``None`` when the shared columns are too wide to pack into one
        key.
        """
        np = self.np
        left_n, right_n = left_rows.shape[0], right_rows.shape[0]
        shared = [c for c in right_cols if c in left_cols]
        if not shared:
            return (
                np.zeros(left_n, dtype=np.int64),
                np.full(left_n, right_n, dtype=np.int64),
                np.arange(right_n),
                left_n * right_n,
            )
        left_key = self._pack(left_rows, [left_cols.index(c) for c in shared])
        right_key = self._pack(right_rows, [right_cols.index(c) for c in shared])
        if left_key is None:
            return None
        order = np.argsort(right_key, kind="stable")
        right_key = right_key[order]
        lo = np.searchsorted(right_key, left_key, side="left")
        counts = np.searchsorted(right_key, left_key, side="right") - lo
        return lo, counts, order, int(counts.sum())

    def _pairs(self, lo, counts, order, total):
        """Expand counted matches into ``(left_idx, right_idx)`` index
        arrays, in pieces of at most :data:`SEMIJOIN_ROW_CAP` pairs.

        The ambient budget is charged with the sizes read and the
        ``total`` about to be written before anything is allocated,
        and its deadline re-checked between pieces.
        """
        np = self.np
        budget = current_budget()
        if budget is not None:
            budget.charge(counts.shape[0] + order.shape[0] + total)
        ends = np.cumsum(counts)
        # Pair p, of left row i, sits at sorted-right position
        # lo[i] + (p - first pair of i) = shift[i] + p.
        shift = lo - ends + counts
        if total <= SEMIJOIN_ROW_CAP:
            left_idx = np.repeat(np.arange(counts.shape[0]), counts)
            yield left_idx, order[shift[left_idx] + np.arange(total)]
            return
        for start in range(0, total, SEMIJOIN_ROW_CAP):
            if budget is not None:
                budget.check()
            pair = np.arange(start, min(start + SEMIJOIN_ROW_CAP, total))
            left_idx = np.searchsorted(ends, pair, side="right")
            yield left_idx, order[shift[left_idx] + pair]

    def _gather(self, left_rows, left_idx, right_rows, right_idx, extra):
        if not extra:
            return left_rows[left_idx]
        return self.np.concatenate(
            [left_rows[left_idx], right_rows[right_idx][:, extra]], axis=1
        )

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
        radix = max(self.size, 1)
        if radix ** len(positions) >= _INT64_LIMIT:
            return None
        if not positions:
            return np.zeros(rows.shape[0], dtype=np.int64)
        key = rows[:, positions[0]].astype(np.int64, copy=True)
        for position in positions[1:]:
            key *= radix
            key += rows[:, position]
        return key


def table_ops(size: int):
    """This interpreter's table kernel over ``range(size)`` with no
    structure behind it: every operation but ``base_table`` works.
    For hand-made tables; a context builds its own
    (:meth:`repro.engine.context.ExecutionContext.table_ops`)."""
    if numpy_available():
        return NumpyTableOps(size)
    return _PyTableOps()
