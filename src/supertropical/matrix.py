"""Dense square matrices over the ghost-extended max-plus scalars.

The determinant here is the permanent: the max over all permutation tracks
of the track product. The scalars form a commutative semiring in which a
tie comes out ghost through addition itself, so the permanent, ghost-by-tie
included, is computed exactly by a row-by-column-subset dynamic program in
``O(n * 2^n)`` semiring operations (Held and Karp, 1962) rather than by
enumerating all ``n!`` tracks. A matrix builds one such table, over the
polynomial entries of ``A + xI``, and keeps two things from it: the top
entry, which is the characteristic polynomial, and the column of degree-0
coefficients, whose last entry is the determinant. The table is built one
subset size at a time (`_permanent_table`): the unit ``x`` on the diagonal
is a shift of a list by one degree, each entry keeps only the degrees that
its tracks can reach, and a layer is dropped once the next is built, so two
layers of it are held at once, beside the column. A reader that needs only
determinants, such as the product rule or the adjoint in `spectral`, builds
that column alone (`_det_column`): the same recurrence with no ``x`` terms
and one integer per subset. So a campaign trial builds two polynomial
tables, of A and A^m, and two determinant columns, of AB and B. The public
`det` reads the matrix's table, so `det` and `char_poly` of one matrix
share it. The dominant tracks are counted from that column: the count
through a column subset is the sum of the counts through the subsets that
its dominant steps leave, and the classification reads the count. The
tracks are listed, by a depth-first search over those steps, only when a
report's ``dominant_tracks`` is iterated or indexed; a report's text and
JSON list at most ``MAX_LISTED_TRACKS`` (8!) of them. Both computations
are guarded by an explicit dimension bound (default 9, set per call with
``bound=``, or with ``--bound`` on the command line); a bound above
``MAX_DIM_BOUND`` is refused.

The table, the column and the dominant steps visit, for a subset, only the
columns in it, read off one shared column index (`_members`): the
``(j, 1 << j)`` pairs of each subset mask, kept in chunks of 9 columns, 512
tuples each, each chunk built on first use. Every matrix up to the default
bound reads chunk 0 directly; a larger one joins the chunks' tuples for one
subset at a time, so no walk holds ``2^n`` of them.

The kernels (the permanent table, the determinant column and the matrix
product) run on plain integers, the keys that ``scalar.py`` describes. A
`Matrix` holds either form: ``Matrix(rows)`` encodes its rows once, at its
own scale, when the keys are first read, and a product or a power is
returned as keys (`Matrix._from_keys`) and decodes its rows only when they
are read, so ``char_poly(mat_pow(a, m))`` decodes nothing. Two matrices of
different scales are multiplied at the LCM of the two. `mat_mul` and
`mat_pow` run the one key-space product, ``_key_product``. The
characteristic polynomial keeps its keys and decodes its coefficients on
their first read. ``Matrix._keys``, ``Matrix._table`` (the top entry and
the column) and ``Matrix._char_poly`` are cached on the object, so ``det``,
``char_poly``, ``mat_pow`` and ``eigenvalues`` on one matrix share one
encoding and one table, built once however often it is asked for. Nothing
is cached across matrix objects, and a pickle holds only the rows. A scale
of more than ``2 * MAX_LITERAL_DIGITS`` digits and a power above
``MAX_POWER`` are refused with ``BoundExceededError``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from functools import cached_property
from itertools import islice

from .defaults import DEFAULT_DET_BOUND
from .errors import BoundExceededError, DomainError, ParseError, ShapeError
from .polynomial import Polynomial
from .scalar import Kind, ONE, Scalar, ZERO, parse_scalar
from .scalar import _Record, _decode, _encode_keys, _key_pow, _key_scale

# The largest matrix power computed: its magnitudes grow m-fold.
MAX_POWER = 10**6

# The largest dimension bound accepted: one 18x18 `char_poly` peaked at 26 MB
# and took 3 s, each growing four- to sixfold per two more columns.
MAX_DIM_BOUND = 20

# The most dominant tracks that a report's text or JSON lists: 8!, so every
# report up to 8x8 is listed in full.
MAX_LISTED_TRACKS = 40320

# A matrix's entries as kernel keys, row by row (see the module docstring).
_Keys = Sequence[Sequence[int | None]]


def check_dim_bound(
    what: str, n: int, bound: int | None, default: int = DEFAULT_DET_BOUND
) -> int:
    """Refuse ``what`` for an n-by-n matrix above ``bound`` (``default``
    when None), and any bound above `MAX_DIM_BOUND`; return the bound."""
    if bound is not None and bound > MAX_DIM_BOUND:
        raise BoundExceededError("dimension bound", bound, MAX_DIM_BOUND)
    limit = default if bound is None else bound
    if n > limit:
        raise BoundExceededError(what, n, limit)
    return limit


def check_power(m: int) -> None:
    """Refuse a negative matrix power, or one above `MAX_POWER`."""
    if m < 0:
        raise DomainError("negative matrix powers are not defined")
    if m > MAX_POWER:
        raise BoundExceededError("matrix power", m, MAX_POWER)


class Matrix(_Record):
    """An n-by-n array of scalars, indexed from 0 in the API.

    A matrix holds its ``rows``, or its keys (`Matrix._from_keys`, as the
    kernels return them), and derives the other form on first read; neither
    is changed once built. Equality, hash, repr and pickles are those of
    ``rows``.
    """

    _fields = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ShapeError("matrix must be square and nonempty")
        self.rows = rows
        self.n = len(rows)

    @classmethod
    def _from_keys(cls, scale: int, keys: _Keys) -> Matrix:
        """The square matrix whose entries have keys ``keys`` at ``scale``;
        nothing is decoded."""
        a = object.__new__(cls)
        a._keys = (scale, keys)
        a.n = len(keys)
        return a

    @cached_property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries as `Scalar` values, decoded on their first read."""
        scale, keys = self._keys
        return tuple(tuple(_decode(k, scale) for k in row) for row in keys)

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        return self.rows[i][j]

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(
            tuple(
                tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
            )
        )

    def __str__(self) -> str:
        return format_matrix(self)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": [[str(e) for e in row] for row in self.rows]}

    def __getstate__(self) -> dict:
        """A pickle holds ``rows`` only, not the keys and characteristic polynomial."""
        return {"rows": self.rows}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["rows"])

    @cached_property
    def _keys(self) -> tuple[int, _Keys]:
        """The scale (see `scalar._key_scale`) and the entries as keys,
        encoded once from the rows and shared by `det`, `char_poly` and
        `mat_pow`; tuples, so no reader can change them."""
        scale = _key_scale(
            (e.value.denominator for row in self.rows for e in row if not e.is_zero), "matrix"
        )
        return scale, tuple(tuple(_encode_keys(row, scale)) for row in self.rows)

    @cached_property
    def _table(self) -> tuple[list[int | None], list[int | None]]:
        """The top entry and the determinant column of ``A + xI``'s subset
        table (`_permanent_table`), built once and read by `det` and
        `char_poly`, which check the dimension bound on every call first."""
        return _permanent_table(self._keys[1])

    @cached_property
    def _char_poly(self) -> Polynomial:
        """The characteristic polynomial, the table's top entry."""
        return Polynomial._from_keys(self._keys[0], self._table[0])


def _key_product(x: _Keys, y: _Keys) -> _Keys:
    """Matrix product in key space."""
    cols = list(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in cols:
            acc = None
            for p, q in zip(row, col):
                if p is None or q is None:
                    continue
                term = p + q - (p & q & 1)
                if acc is None or term > acc | 1:
                    acc = term
                elif term >> 1 == acc >> 1:
                    acc |= 1
            out_row.append(acc)
        out.append(out_row)
    return out


def _check_product_shape(n: int, k: int) -> None:
    """Refuse the product of an n-by-n and a k-by-k matrix unless n = k."""
    if n != k:
        raise ShapeError(f"cannot multiply {n}x{n} by {k}x{k}")


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product AB, returned as keys. A and B are multiplied at the LCM
    of their scales: a key is rescaled by multiplying its magnitude, ghost
    bit kept; equal scales pass through with no rescale."""
    _check_product_shape(a.n, b.n)
    (s, x), (t, y) = a._keys, b._keys
    scale = s
    if s != t:
        scale = _key_scale((s, t), "matrix")
        f, g = scale // s, scale // t
        x = [[_key_pow(k, f) for k in r] for r in x]
        y = [[_key_pow(k, g) for k in r] for r in y]
    return Matrix._from_keys(scale, _key_product(x, y))


def mat_pow(a: Matrix, m: int) -> Matrix:
    """A^m at A's scale, as keys, by repeated squaring: m = 2 takes one
    product, m = 3 two. The keys are read first, so a scale past the cap is
    refused before a power that `check_power` refuses."""
    scale, keys = a._keys
    check_power(m)
    square = keys
    result = None if m else [[0 if i == j else None for j in range(a.n)] for i in range(a.n)]
    while m:
        if m & 1:
            result = square if result is None else _key_product(result, square)
        m >>= 1
        if m:
            square = _key_product(square, square)
    return Matrix._from_keys(scale, result)


def mat_vec(a: Matrix, v: Sequence[Scalar]) -> tuple[Scalar, ...]:
    if len(v) != a.n:
        raise ShapeError(f"vector length {len(v)} does not match dimension {a.n}")
    out = []
    for i in range(a.n):
        acc = ZERO
        for t in range(a.n):
            acc = acc + a.rows[i][t] * v[t]
        out.append(acc)
    return tuple(out)


def trace(a: Matrix) -> Scalar:
    acc = ZERO
    for i in range(a.n):
        acc = acc + a.rows[i][i]
    return acc


def principal_minor(a: Matrix, indices: Iterable[int]) -> Matrix:
    """Submatrix on the given rows and the same columns, order preserved."""
    idx = sorted(set(indices))
    if not idx:
        raise DomainError("a principal minor needs at least one index")
    if idx[0] < 0 or idx[-1] >= a.n:
        raise DomainError(f"indices {idx} out of range for dimension {a.n}")
    return Matrix(tuple(tuple(a.rows[i][j] for j in idx) for i in idx))


def mat_surpasses(a: Matrix, b: Matrix) -> bool:
    if a.n != b.n:
        raise ShapeError("shape mismatch in entrywise comparison")
    return all(
        a.rows[i][j].surpasses(b.rows[i][j]) for i in range(a.n) for j in range(a.n)
    )


class PermutationTrack(_Record):
    """The entries a permutation selects, one per row, and their product.
    A pickle holds the list ``[perm, product]``."""

    __slots__ = _fields = ("perm", "product")

    def __init__(self, perm: tuple[int, ...], product: Scalar):
        self.perm = perm
        self.product = product

    def __getstate__(self) -> list:
        return [self.perm, self.product]

    def __setstate__(self, state: list) -> None:
        self.perm, self.product = state

    @property
    def name(self) -> str:
        n = len(self.perm)
        if self.perm == tuple(range(n)):
            return "Id"
        if self.perm == tuple(range(n - 1, -1, -1)):
            return "-Id"
        return "(" + " ".join(str(j + 1) for j in self.perm) + ")"

    def to_json_dict(self) -> dict:
        return {
            "perm": [j + 1 for j in self.perm],
            "name": self.name,
            "product": str(self.product),
        }


class DetClass(Enum):
    TANGIBLE = "tangible"
    GHOST_BY_TIE = "ghost-by-tie"
    GHOST_BY_GHOST_TRACK = "ghost-by-ghost-track"
    ZERO = "zero"


class DetReport(_Record):
    """Determinant value, its dominant tracks, and how the value arose.

    ``dominant_tracks`` is a `DominantTracks` sequence whose length the
    subset table counted and whose tracks are built only when read; it is
    ``()`` when the value is zero (no track has a finite product).
    Its text and `to_json_dict` list at most ``MAX_LISTED_TRACKS`` of them.
    """

    _fields = ("value", "dominant_tracks", "classification")

    def __init__(
        self,
        value: Scalar,
        dominant_tracks: Sequence[PermutationTrack],
        classification: DetClass,
    ):
        self.value = value
        self.dominant_tracks = dominant_tracks
        self.classification = classification

    def to_json_dict(self) -> dict:
        tracks = self.dominant_tracks
        data = {
            "value": str(self.value),
            "classification": self.classification.value,
            "dominant": [t.to_json_dict() for t in islice(tracks, MAX_LISTED_TRACKS)],
        }
        if len(tracks) > MAX_LISTED_TRACKS:
            data["track_count"] = len(tracks)
            data["truncated"] = True
        return data

    def __str__(self) -> str:
        tracks = self.dominant_tracks
        names = ", ".join(t.name for t in islice(tracks, MAX_LISTED_TRACKS)) or "none"
        if len(tracks) > MAX_LISTED_TRACKS:
            names += f" (first {MAX_LISTED_TRACKS} of {len(tracks)} listed)"
        return f"{self.value} ({self.classification.value}), dominant: {names}"


# The (column, bit) pairs of the columns in each subset mask, a chunk of
# `_CHUNK_BITS` columns at a time: ``_CHUNKS[c][mask]`` holds
# ``(j, 1 << j)`` for j = 9c + b and each bit b of the 9-bit ``mask``, in
# ascending order. Chunk 0 alone indexes every subset of up to 9 columns, the
# default dimension bound; each chunk is built on first use (`_chunk`) and
# kept: 512 tuples over nine shared pairs.
_CHUNK_BITS = 9
_CHUNKS: list[list[tuple[tuple[int, int], ...]]] = []


def _chunk(c: int) -> list[tuple[tuple[int, int], ...]]:
    """Chunk ``c`` of the column index, built on first use."""
    while len(_CHUNKS) <= c:
        base = len(_CHUNKS) * _CHUNK_BITS
        table: list[tuple[tuple[int, int], ...]] = [()]
        for j in range(base, base + _CHUNK_BITS):
            pair = (j, 1 << j)
            table += [members + (pair,) for members in table]
        _CHUNKS.append(table)
    return _CHUNKS[c]


class _JoinedMembers:
    """The column index past one chunk: ``members[S]`` joins the low chunk's
    tuple for S's low 9 bits to the index of the columns above them, so a
    walk over 2^n subsets holds one joined tuple at a time, never 2^n."""

    __slots__ = ("_low", "_high")

    def __init__(self, low: list, high: Sequence):
        self._low = low
        self._high = high

    def __getitem__(self, subset: int) -> tuple[tuple[int, int], ...]:
        # 9 is _CHUNK_BITS and 511 its mask, written out as constants.
        return self._low[subset & 511] + self._high[subset >> 9]


def _members(n: int, c: int = 0) -> Sequence[tuple[tuple[int, int], ...]]:
    """The ``(j, 1 << j)`` pairs of the columns in each subset of ``n``
    columns from column ``9c`` on, indexed by the subset's mask over them:
    chunk ``c`` itself for n up to 9, else that chunk joined to the index of
    the columns above it."""
    if n <= _CHUNK_BITS:
        return _chunk(c)
    return _JoinedMembers(_chunk(c), _members(n - _CHUNK_BITS, c + 1))


# The subset masks by size for each n up to the default dimension bound, built
# on first use by `_size_layers`: 2^10 - 1 small ints in all.
_LAYERS: dict[int, tuple[tuple[int, ...], ...]] = {}


def _size_layers(n: int) -> tuple[tuple[int, ...], ...]:
    """The bitmasks of the subsets of ``n`` columns, grouped by size, each
    group in ascending order; kept for ``n`` up to the default dimension
    bound, where building them for each table would add a fifth to its time
    at n = 2 and a sixteenth at n = 4, and built afresh above it."""
    if n in _LAYERS:
        return _LAYERS[n]
    groups: list[list[int]] = [[] for _ in range(n + 1)]
    for subset in range(1 << n):
        groups[subset.bit_count()].append(subset)
    layers = tuple(map(tuple, groups))
    if n <= DEFAULT_DET_BOUND:
        _LAYERS[n] = layers
    return layers


def _permanent_table(keys: _Keys) -> tuple[list[int | None], list[int | None]]:
    """The top entry and the determinant column of the subset table of
    partial permanents of ``A + xI``, over key coefficient lists by degree
    in ``x``.

    ``table[S]`` is the permanent of the bottom ``|S|`` rows restricted to
    the columns in bitmask ``S``: row ``i = n - |S|`` picks a column ``j`` in
    ``S`` and the rows below share out the rest, so ``table[S]`` is the sum
    over ``j`` of ``(A + xI)[i][j] * table[S - {j}]``. By distributivity this
    is the sum of the same track products that permutation enumeration adds
    up: ``table[2^n - 1]`` is the characteristic polynomial, and the
    degree-0 coefficient of ``table[S]`` is the partial permanent of ``A``
    alone. Zero terms are skipped, and ``table[S]`` is ``None`` when every
    track through ``S`` is ``-inf``.

    The table is built one size layer at a time, so row ``i`` is fixed for
    a whole layer, and each entry loops over the columns ``j`` in ``S``
    alone, from the shared column index (`_members`), reading ``row[j]``.
    The unit ``x`` on the diagonal has key 0 at degree 1, so its term is
    ``table[S - {i}]`` shifted up one degree, a list copy with no
    arithmetic. That term comes first; without
    it, the first finite term is one list comprehension, padded to the
    entry's width, and only the later terms are merged entry by entry. Only
    a track's rows ``i..n-1`` that are also among ``S``'s columns can take
    ``x``, so ``table[S]`` holds the reachable degrees
    ``0..popcount(S >> i)`` and no more. A
    layer's lists are dropped once the next layer is built, so at most two
    layers of lists are held, beside the column, the subset masks and the
    column index (512 tuples per 9 columns): at n = 15, the widest layers
    have 6,435 subsets each, of 32,768.

    The column entry ``dets[S]`` is coefficient 0 of ``table[S]``, ``None``
    when no finite track through ``S`` avoids ``x``; it is filled in as each
    entry is made. The column reads no x term, so a caller may pass the rows
    in any order; `_det_column` builds it alone, for a reader that needs no
    other coefficient.
    """
    n = len(keys)
    members = _members(n)
    layers = _size_layers(n)
    table: list[list[int | None] | None] = [None] * (1 << n)
    dets: list[int | None] = [None] * (1 << n)
    table[0] = [0]
    dets[0] = 0
    for size in range(1, n + 1):
        i = n - size
        row = keys[i]
        diag = 1 << i
        for subset in layers[size]:
            acc = None
            if subset & diag:
                rest = table[subset ^ diag]
                if rest is not None:
                    acc = [None, *rest]
            for j, bit in members[subset]:
                p = row[j]
                if p is None:
                    continue
                rest = table[subset ^ bit]
                if rest is None:
                    continue
                if acc is None:
                    acc = [None if q is None else p + q - (p & q & 1) for q in rest]
                    acc += [None] * (1 + (subset >> i).bit_count() - len(acc))
                    continue
                for d, q in enumerate(rest):
                    if q is None:
                        continue
                    term = p + q - (p & q & 1)
                    old = acc[d]
                    if old is None or term > old | 1:
                        acc[d] = term
                    elif term >> 1 == old >> 1:
                        acc[d] = old | 1
            if acc is not None:
                table[subset] = acc
                dets[subset] = acc[0]
        for subset in layers[size - 1]:
            table[subset] = None
    return table[-1], dets


def _det_column(keys: _Keys) -> list[int | None]:
    """The determinant column of `_permanent_table`, built alone: the same
    subset recurrence over the keys of ``A``, over the columns in each
    subset from the same column index, with no ``x`` terms, so each entry
    is one key or ``None`` rather than a coefficient list; it holds nothing
    beside the column but that index. ``dets[S]`` is the partial permanent
    of the bottom ``|S|`` rows on the columns in ``S``, and ``dets[-1]``
    the determinant."""
    n = len(keys)
    members = _members(n)
    dets: list[int | None] = [None] * (1 << n)
    dets[0] = 0
    for subset in range(1, 1 << n):
        row = keys[n - subset.bit_count()]
        acc = None
        for j, bit in members[subset]:
            p = row[j]
            if p is None:
                continue
            q = dets[subset ^ bit]
            if q is None:
                continue
            term = p + q - (p & q & 1)
            if acc is None or term > acc | 1:
                acc = term
            elif term >> 1 == acc >> 1:
                acc |= 1
        dets[subset] = acc
    return dets


class DominantTracks(Sequence[PermutationTrack]):
    """The dominant tracks of a nonzero permanent, in the lexicographic
    order of their permutations, counted by the subset table and built only
    when read.

    ``steps[S]`` holds the (column, entry's ghost bit) choices for the row
    of S whose entry plus the best completion of S - {column} attains
    ``dets[S]``, the partial permanent of A alone (`_permanent_table`), and
    ``ways[S]`` counts the dominant completions of S: the sum of
    ``ways[S - {column}]`` over those steps, which are sought among S's
    columns alone, from the column index. Both are filled in, once each,
    for the subsets that some dominant track passes through, so `len` builds
    no track. Iterating pops (subset left, ghost bit, prefix) states off
    one stack, depth first in ascending column order, and builds each track
    as it is reached; indexing goes straight to the track of that rank by
    the counts. The sequence equals a tuple of the same tracks.
    """

    __slots__ = ("_steps", "_ways", "_products", "_full")

    def __init__(self, keys: _Keys, dets: list[int | None], value: Scalar):
        n = len(keys)
        members = _members(n)
        steps: dict[int, list[tuple[int, int]]] = {0: []}
        ways = {0: 1}

        def count(subset: int) -> int:
            if subset not in ways:
                row = keys[n - subset.bit_count()]
                target = dets[subset] >> 1
                steps[subset] = [
                    (j, k & 1)
                    for j, bit in members[subset]
                    if (k := row[j]) is not None
                    and (rest := dets[subset ^ bit]) is not None
                    and (k >> 1) + (rest >> 1) == target
                ]
                ways[subset] = sum(count(subset ^ (1 << j)) for j, _ in steps[subset])
            return ways[subset]

        self._full = (1 << n) - 1
        count(self._full)
        self._steps = steps
        self._ways = ways
        # A dominant track's product has the determinant's magnitude; it is
        # ghost exactly when one of its entries is.
        self._products = (Scalar(Kind.TANGIBLE, value.value), value.as_ghost())

    def __len__(self) -> int:
        return self._ways[self._full]

    def __iter__(self) -> Iterator[PermutationTrack]:
        # A row's steps are pushed in reverse, so the lowest column comes off first.
        stack = [(self._full, 0, ())]
        while stack:
            subset, ghosted, perm = stack.pop()
            if not subset:
                yield PermutationTrack(perm, self._products[ghosted])
                continue
            for j, ghost_bit in reversed(self._steps[subset]):
                stack.append((subset ^ (1 << j), ghosted | ghost_bit, perm + (j,)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        rank = operator.index(index)
        if rank < 0:
            rank += len(self)
        if not 0 <= rank < len(self):
            raise IndexError("dominant track index out of range")
        perm = []
        ghosted = 0
        subset = self._full
        while subset:
            for j, ghost_bit in self._steps[subset]:
                rest = subset ^ (1 << j)
                if rank < self._ways[rest]:
                    break
                rank -= self._ways[rest]
            perm.append(j)
            ghosted |= ghost_bit
            subset = rest
        return PermutationTrack(tuple(perm), self._products[ghosted])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, DominantTracks)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<{len(self)} dominant tracks>"


def det(a: Matrix, bound: int | None = None) -> DetReport:
    """Permanent by the subset table, with its dominant tracks counted.

    The value is the last entry of the matrix's determinant column, which is
    coefficient 0 of the characteristic polynomial. The count comes from the
    same column (see `DominantTracks`), and the classification reads it:
    more than one dominant track is a tie, and a single one is ghost exactly
    when the value is. The tracks are listed, in the lexicographic order of
    their permutations, only when ``dominant_tracks`` is iterated or indexed.
    """
    check_dim_bound("determinant", a.n, bound)
    scale, keys = a._keys
    dets = a._table[1]
    if dets[-1] is None:
        return DetReport(ZERO, (), DetClass.ZERO)
    value = _decode(dets[-1], scale)
    tracks = DominantTracks(keys, dets, value)
    if len(tracks) > 1:
        cls = DetClass.GHOST_BY_TIE
    elif value.is_ghost:
        cls = DetClass.GHOST_BY_GHOST_TRACK
    else:
        cls = DetClass.TANGIBLE
    return DetReport(value, tracks, cls)


def char_poly(a: Matrix, bound: int | None = None) -> Polynomial:
    """Characteristic polynomial: the permanent of ``A + xI``.

    The coefficient of x^(n-k) is the max over all k-subsets of rows of the
    determinant of the corresponding principal minor; the top coefficient
    is the unit. Each track of a principal minor, joined with x on the
    remaining diagonal, is exactly one permutation track of ``A + xI``, so
    one permanent over polynomial entries gives every coefficient.

    The bound is checked on every call, but a matrix computes its
    characteristic polynomial once: later calls on the same object, and
    `eigenvalues`, read the cached result, `det` reads the same table, and
    `mat_pow` shares its encoding.
    """
    check_dim_bound("characteristic polynomial", a.n, bound)
    return a._char_poly


# ---------------------------------------------------------------------------
# Text and JSON formats.


def parse_matrix(text: str) -> Matrix:
    """One row per line, entries whitespace-separated in the scalar grammar."""
    rows: list[tuple[Scalar, ...]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for col, token in enumerate(line.split(), start=1):
            try:
                row.append(parse_scalar(token))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno, col=col) from exc
        rows.append(tuple(row))
    if not rows:
        raise ParseError("no matrix rows found")
    widths = {len(r) for r in rows}
    if widths != {len(rows)}:
        raise ParseError(
            f"expected a square matrix, got {len(rows)} rows of widths {sorted(widths)}"
        )
    return Matrix(tuple(rows))


def format_matrix(a: Matrix) -> str:
    return "\n".join(" ".join(str(e) for e in row) for row in a.rows)


def matrix_from_json_dict(data: dict) -> Matrix:
    try:
        n = data["n"]
        rows = data["rows"]
    except (TypeError, KeyError) as exc:
        raise ParseError("matrix JSON needs keys 'n' and 'rows'") from exc
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(r, (list, tuple)) for r in rows
    ):
        raise ParseError("matrix JSON 'rows' must be a list of lists")
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"matrix JSON rows do not form an {n}x{n} array")
    # Checked after the shape, so that input refused before keeps its message.
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError("matrix JSON 'n' must be an integer")
    return Matrix(tuple(tuple(parse_scalar(e) for e in row) for row in rows))
