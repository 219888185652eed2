"""Value types and primitive operations for rank-r subshifts of finite type.

A *tile system* is a finite alphabet A together with r nonzero boolean
transition matrices M_1, ..., M_r.  The entry convention throughout this
package is

    M_j(b, a) = 1   <=>   the step  a -> b  in direction j is allowed.

A *word* of shape m (m a vector of r nonnegative integers) is a letter
assignment on the integer box [0, m] such that every unit step in direction j
is allowed by M_j.  Words of shape 0 are identified with letters.
A *decorated word* is a pair (d, w) where d belongs to a finite decoration
set D, delta(d) is the origin letter of w.

All types in this module are immutable values and all operations are pure
functions, so everything is safe to share between threads.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence, Union

Shape = tuple[int, ...]
Translate = tuple[int, ...]


class SubshiftError(Exception):
    """Base class for errors raised by this package."""


class UnknownLetterError(SubshiftError):
    pass


class InvalidWordError(SubshiftError):
    """A letter grid violates a transition matrix.

    ``violations`` lists pairs ``(cell, direction)`` where cell is the source
    cell l of a bad unit step l -> l + e_j.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class TransitionError(SubshiftError):
    """A single requested step or product junction is not allowed."""


class CompletionError(SubshiftError):
    """A forced fill found no (or more than one) consistent letter.

    This can only happen when the system violates the local product
    conditions (H1a)-(H1c); the offending cell is reported.
    """

    def __init__(self, message, cell=None, candidates=()):
        super().__init__(message)
        self.cell = cell
        self.candidates = tuple(candidates)


class WitnessSearchError(SubshiftError):
    """A bounded witness search exhausted its configured bound."""


# ---------------------------------------------------------------------------
# shape / translate arithmetic
# ---------------------------------------------------------------------------

def zero(rank: int) -> Shape:
    return (0,) * rank


def unit(rank: int, j: int) -> Shape:
    """The unit vector e_j (directions are 1-based)."""
    check_direction(rank, j)
    return tuple(1 if i == j - 1 else 0 for i in range(rank))


def _same_rank(l, m):
    if len(l) != len(m):
        raise ValueError(f"rank mismatch: {l} vs {m}")


def add(l, m):
    _same_rank(l, m)
    return tuple(a + b for a, b in zip(l, m))


def sub(l, m):
    _same_rank(l, m)
    return tuple(a - b for a, b in zip(l, m))


def neg(l):
    return tuple(-a for a in l)


def meet(l, m):
    """Componentwise minimum."""
    _same_rank(l, m)
    return tuple(min(a, b) for a, b in zip(l, m))


def join(l, m):
    """Componentwise maximum."""
    _same_rank(l, m)
    return tuple(max(a, b) for a, b in zip(l, m))


def absv(l):
    """|l| = l v (-l), componentwise absolute value."""
    return tuple(abs(a) for a in l)


def dominates(l, m) -> bool:
    """True iff m <= l componentwise."""
    _same_rank(l, m)
    return all(a >= b for a, b in zip(l, m))


def is_zero(l) -> bool:
    return all(a == 0 for a in l)


def shape_key(s: Shape):
    """Canonical ordering key for shapes: grade first, direction 1 major."""
    return (sum(s), tuple(reversed(s)))


def box_cells(shape: Shape) -> Iterator[tuple[int, ...]]:
    """Cells of [0, shape] in row-major order."""
    return itertools.product(*(range(m + 1) for m in shape))


def box_size(shape: Shape) -> int:
    n = 1
    for m in shape:
        n *= m + 1
    return n


def strides(shape: Shape) -> tuple[int, ...]:
    """Row-major strides for the box [0, shape]."""
    out = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        out[i] = out[i + 1] * (shape[i + 1] + 1)
    return tuple(out)


def box_offsets(shape: Shape, lo: Sequence[int], hi: Sequence[int]) -> list[int]:
    """Row-major positions in [0, shape] of the cells of [lo, hi], in order.
    No position costs a multiply: a varying direction steps through range(lo·s,
    hi·s + 1, s), and the directions with lo = hi add their lo·s in one last pass."""
    offsets, fixed = [0], 0
    for a, b, s in zip(lo, hi, strides(shape)):
        if a != b:
            offsets = [o + c for o in offsets for c in range(a * s, b * s + 1, s)]
        else:
            fixed += a * s
    return [o + fixed for o in offsets] if fixed else offsets


def shapes_upto(bound: Shape) -> list[Shape]:
    """All shapes 0 <= s <= bound in canonical (`shape_key`) order: row-major
    cells of the reversed bound, stably sorted by grade."""
    return [c[::-1] for c in sorted(box_cells(bound[::-1]), key=sum)]


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def translate_reps(bound: Shape) -> list[Translate]:
    """Canonical representatives of p <-> -p classes: p != 0, |p| <= bound.

    The representative has its first nonzero component positive.  Sorted by
    grade of |p|, then canonically.
    """
    z = zero(len(bound))  # p > z iff the first nonzero component of p is positive
    reps = [p for p in itertools.product(*(range(-b, b + 1) for b in bound)) if p > z]
    return sorted(reps, key=lambda p: (shape_key(absv(p)), p[::-1]))


# ---------------------------------------------------------------------------
# alphabets and tile systems
# ---------------------------------------------------------------------------

class Alphabet:
    """An ordered finite set of distinct letter names.

    Declaration order is canonical: every enumeration and tie-break in this
    package uses it, which makes all operations deterministic.  A name is a
    nonempty string with no ',' or whitespace, the rule of the system file
    and of the CLI's comma-separated cells.  Nothing is coerced: an index is
    an ``int``, not a ``bool``, in range.
    """

    __slots__ = ("letters", "_index")

    def __init__(self, letters: Iterable[str]):
        self.letters = tuple(letters)
        if not self.letters or not all(isinstance(a, str) for a in self.letters):
            raise ValueError("'alphabet' must be a nonempty list of strings")
        for i, a in enumerate(self.letters):
            if not a or any(c == "," or c.isspace() for c in a):
                raise ValueError(f"alphabet[{i}] is {a!r}, letter names must be "
                                 f"nonempty with no ',' or whitespace")
        self._index = {a: i for i, a in enumerate(self.letters)}
        if len(self._index) != len(self.letters):
            raise ValueError("'alphabet' has duplicate letters")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Alphabet({list(self.letters)!r})"

    def name(self, index: int) -> str:
        return self.letters[index]

    def resolve(self, letter: Union[int, str]) -> int:
        """Map a letter name or index to its index."""
        if isinstance(letter, str):
            try:
                return self._index[letter]
            except KeyError:
                raise UnknownLetterError(f"unknown letter {letter!r}") from None
        if type(letter) is not int or not 0 <= letter < len(self.letters):
            raise UnknownLetterError(f"letter index {letter!r} out of range")
        return letter


class TileSystem:
    """Alphabet plus r boolean transition matrices; the whole subshift.

    ``matrices[j-1][b][a] == 1`` means the step a -> b in direction j is
    allowed.  Construction checks well-formedness only, with no coercion and
    the system file's field paths in its errors; whether the system
    satisfies (H0)-(H3) is decided by :mod:`rankshift.verify`, so failing
    systems can be loaded and diagnosed.
    """

    __slots__ = ("alphabet", "matrices", "rank", "_succ", "_pred",
                 "_succ_mask", "_pred_mask")

    def __init__(self, alphabet: Alphabet, matrices: Sequence[Sequence[Sequence[int]]]):
        matrices = tuple(matrices)
        if not matrices:
            raise ValueError("rank must be >= 1 (no matrices given)")
        self.alphabet = alphabet
        n = len(alphabet)
        for j, mat in enumerate(matrices):
            if not isinstance(mat, (list, tuple)) or len(mat) != n:
                raise ValueError(f"matrices[{j}] is not {n}x{n}")
            for b, row in enumerate(mat):
                if not isinstance(row, (list, tuple)) or len(row) != n:
                    raise ValueError(f"matrices[{j}][{b}] is not a row of length {n}")
                for a, e in enumerate(row):
                    if not (type(e) is int and e in (0, 1)):
                        raise ValueError(f"matrices[{j}][{b}][{a}] is {e!r}, "
                                         f"entries must be the integers 0 or 1")
        self.matrices = tuple(tuple(map(tuple, mat)) for mat in matrices)
        self.rank = len(self.matrices)
        # successor / predecessor tables per direction, as lists and bitmasks
        self._succ = []
        self._pred = []
        self._succ_mask = []
        self._pred_mask = []
        for mat in self.matrices:
            succ = [tuple(b for b in range(n) if mat[b][a]) for a in range(n)]
            pred = [tuple(a for a in range(n) if mat[b][a]) for b in range(n)]
            self._succ.append(succ)
            self._pred.append(pred)
            self._succ_mask.append(tuple(_mask(s) for s in succ))
            self._pred_mask.append(tuple(_mask(p) for p in pred))

    @property
    def n_letters(self) -> int:
        return len(self.alphabet)

    def transition(self, j: int, a: int, b: int) -> bool:
        """True iff the step a -> b in direction j is allowed."""
        return bool(self.matrices[j - 1][b][a])

    def successors(self, j: int, a: int) -> tuple[int, ...]:
        return self._succ[j - 1][a]

    def predecessors(self, j: int, b: int) -> tuple[int, ...]:
        return self._pred[j - 1][b]

    def successor_mask(self, j: int, a: int) -> int:
        return self._succ_mask[j - 1][a]

    def predecessor_mask(self, j: int, b: int) -> int:
        return self._pred_mask[j - 1][b]

    def successor_masks(self, j: int) -> tuple[int, ...]:
        """successor_mask(j, a) for every letter a, indexed by a."""
        return self._succ_mask[j - 1]

    def predecessor_masks(self, j: int) -> tuple[int, ...]:
        """predecessor_mask(j, b) for every letter b, indexed by b."""
        return self._pred_mask[j - 1]

    def __eq__(self, other):
        return (isinstance(other, TileSystem)
                and self.alphabet == other.alphabet
                and self.matrices == other.matrices)

    def __hash__(self):
        return hash((self.alphabet, self.matrices))

    def __repr__(self):
        return (f"TileSystem(rank={self.rank}, "
                f"letters={list(self.alphabet.letters)!r})")


def check_shape(ts: TileSystem, shape: Iterable[int], what: str) -> Shape:
    """The shape or bound given as ``what``, as a tuple; :class:`ValueError`
    unless its rank is ts.rank and each component an ``int`` >= 0, not a bool."""
    shape = tuple(shape)
    if len(shape) != ts.rank:
        raise ValueError(f"{what} {shape} has wrong rank; system rank is {ts.rank}")
    if any(type(c) is not int for c in shape):
        raise ValueError(f"{what} {shape} has a component that is not an integer")
    if any(c < 0 for c in shape):
        raise ValueError(f"{what} {shape} has a negative component")
    return shape


def check_direction(rank: int, j: int, what: str = "direction") -> None:
    """:class:`ValueError` unless the direction ``what`` is an ``int`` in 1..rank,
    not a bool or a float equal to one."""
    if type(j) is not int or not 1 <= j <= rank:
        raise ValueError(f"{what} {j} out of range 1..{rank}")


def check_floor(value: int, floor: int, what: str) -> None:
    """:class:`ValueError` unless the search bound ``what`` is an ``int`` of at
    least ``floor``, not a bool or None."""
    if type(value) is not int or value < floor:
        raise ValueError(f"{what} must be at least {floor}, not {value}")


def _ints(v: Iterable[int], what: str) -> tuple[int, ...]:
    """The corner or translate ``what`` as a tuple; TypeError unless its
    components are ints, not bools (1.0 and True pass as 1 in a cache key)."""
    v = tuple(v)
    if any(type(c) is not int for c in v):
        raise TypeError(f"{what} {v} has a component that is not an integer")
    return v


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

class _Value:
    """Frozen values whose fields are their ``__slots__``: ``==`` (same class
    only) and ``hash`` use the first ``_compared`` fields (all if None), and
    copy and pickle rebuild an instance through its constructor."""

    __slots__ = ()
    _compared = None

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self, stop=None):
        return tuple([getattr(self, name) for name in self.__slots__[:stop]])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self._compared) == other._fields(self._compared)

    def __hash__(self):
        return hash(self._fields(self._compared))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            [f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())]))

    def __reduce__(self):
        return self.__class__, self._fields()


class Word(_Value):
    """A letter assignment on the box [0, shape], stored row-major.

    Letters are alphabet indices.  Instances are plain values: two words are
    equal iff they have the same shape and letters, independently of any tile
    system.  Transition validity is checked by :func:`validate_word`.
    """

    __slots__ = ("shape", "letters")

    def __init__(self, shape: Shape, letters: tuple[int, ...]):
        _Value.__init__(self, shape, letters)
        if any(m < 0 for m in self.shape):
            raise ValueError(f"negative shape {self.shape}")
        if len(self.letters) != box_size(self.shape):
            raise ValueError(
                f"{len(self.letters)} letters do not fill a box of shape {self.shape}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def origin(self) -> int:
        """o(w): the letter at cell 0."""
        return self.letters[0]

    @property
    def terminus(self) -> int:
        """t(w): the letter at cell m."""
        return self.letters[-1]

    def at(self, cell: Sequence[int]) -> int:
        cell = _ints(cell, "cell")
        if len(cell) != len(self.shape):
            raise ValueError(f"cell {cell} has wrong rank")
        if any(not 0 <= c <= m for c, m in zip(cell, self.shape)):
            raise ValueError(f"cell {cell} outside box [0, {self.shape}]")
        return self.letters[sum(c * s for c, s in zip(cell, strides(self.shape)))]

    def render(self, alphabet: Alphabet) -> str:
        names = alphabet.letters
        return ",".join([names[a] for a in self.letters])


def letter_word(rank: int, a: int) -> Word:
    """The shape-0 word identified with the letter a."""
    return Word(zero(rank), (a,))


class DecorationMap(_Value):
    """A finite ordered decoration set D with delta: D -> A.

    ``delta[i]``, the letter index of decoration ``names[i]``, is checked
    against a system by :meth:`by_letter`; a name is nonempty with no whitespace.
    """

    __slots__ = ("names", "delta")

    def __init__(self, names: tuple[str, ...], delta: tuple[int, ...]):
        _Value.__init__(self, names, delta)
        if not self.names or not all(isinstance(d, str) for d in self.names):
            raise ValueError("decorations.names must be a nonempty string list")
        for i, d in enumerate(self.names):
            if not d or any(c.isspace() for c in d):
                raise ValueError(f"decorations.names[{i}] is {d!r}, decoration "
                                 f"names must be nonempty with no whitespace")
        if len(set(self.names)) != len(self.names):
            raise ValueError("decorations.names has duplicate names")
        if len(self.delta) != len(self.names):
            raise ValueError("decorations.delta must align with decorations.names")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "DecorationMap":
        """D = A with delta the identity."""
        return cls(alphabet.letters, tuple(range(len(alphabet))))

    def __len__(self):
        return len(self.names)

    def resolve(self, decoration: Union[int, str]) -> int:
        if isinstance(decoration, str):
            try:
                return self.names.index(decoration)
            except ValueError:
                raise UnknownLetterError(f"unknown decoration {decoration!r}") from None
        if type(decoration) is not int or not 0 <= decoration < len(self.names):
            raise UnknownLetterError(f"decoration index {decoration!r} out of range")
        return decoration

    def attach(self, decoration: Union[int, str], word: Word) -> "DecoratedWord":
        """Pair a decoration with a word, enforcing delta(d) = o(w)."""
        d = self.resolve(decoration)
        if self.delta[d] != word.origin:
            raise ValueError(
                f"decoration {self.names[d]!r} maps to letter {self.delta[d]}, "
                f"but the word starts with letter {word.origin}")
        return DecoratedWord(d, word)

    def by_letter(self, n_letters: int) -> list[tuple[int, ...]]:
        """Decoration indices grouped by their delta letter; the one check
        that each delta entry is an ``int`` (not a ``bool``) in 0..n_letters-1."""
        groups: list[list[int]] = [[] for _ in range(n_letters)]
        for d, a in enumerate(self.delta):
            if type(a) is not int or not 0 <= a < n_letters:
                raise ValueError(f"decorations.delta[{d}] is {a!r}, not a letter "
                                 f"index of a {n_letters}-letter system")
            groups[a].append(d)
        return [tuple(g) for g in groups]


class DecoratedWord(_Value):
    """A pair (d, w); ``decoration`` is an index into a DecorationMap."""

    __slots__ = ("decoration", "word")

    def __init__(self, decoration: int, word: Word):
        _Value.__init__(self, decoration, word)

    @property
    def shape(self) -> Shape:
        return self.word.shape

    @property
    def terminus(self) -> int:
        return self.word.terminus


WordLike = Union[Word, DecoratedWord]


# ---------------------------------------------------------------------------
# validation, restriction, periodicity
# ---------------------------------------------------------------------------

def word_violations(ts: TileSystem, shape: Shape, letters: Sequence[int]):
    """All (cell, direction) pairs where a unit step fails its matrix."""
    st = strides(shape)
    out = []
    for idx, cell in enumerate(box_cells(shape)):
        a = letters[idx]
        for j in range(1, len(shape) + 1):
            if cell[j - 1] < shape[j - 1]:
                b = letters[idx + st[j - 1]]
                if not ts.matrices[j - 1][b][a]:
                    out.append((cell, j))
    return out


def validate_word(ts: TileSystem, cells, shape: Shape | None = None) -> Word:
    """Build a Word from a raw letter grid, checking every unit transition.

    ``cells`` is either a nested sequence (outermost level = direction 1) of
    letter names/indices, or a flat row-major sequence together with an
    explicit ``shape``.  Raises :class:`InvalidWordError` carrying the full
    violation list if any transition fails.
    """
    if shape is None:
        if isinstance(cells, (str, int)):
            shape, cells = zero(ts.rank), [cells]
        else:
            shape, cells = _parse_nested(cells)
    shape = check_shape(ts, shape, "shape")
    word = Word(shape, tuple(ts.alphabet.resolve(c) for c in cells))
    violations = word_violations(ts, shape, word.letters)
    if violations:
        head = ", ".join(f"cell {c} direction {j}" for c, j in violations[:3])
        raise InvalidWordError(
            f"{len(violations)} forbidden transition(s): {head}", violations)
    return word


def _parse_nested(cells):
    """Shape and row-major flat list of a rectangular nested sequence."""
    dims = []
    probe = cells
    while isinstance(probe, (list, tuple)):
        dims.append(len(probe))
        if dims[-1] == 0:
            raise ValueError("empty axis in letter grid")
        probe = probe[0]
    shape = tuple(d - 1 for d in dims)

    flat = []

    def walk(node, depth):
        if depth == len(dims):
            if isinstance(node, (list, tuple)):
                raise ValueError("ragged letter grid")
            flat.append(node)
            return
        if not isinstance(node, (list, tuple)) or len(node) != dims[depth]:
            raise ValueError("ragged letter grid")
        for child in node:
            walk(child, depth + 1)

    walk(cells, 0)
    return shape, flat


def restrict(w: WordLike, k: Shape, l: Shape) -> WordLike:
    """The sub-box [k, l] of w, reindexed to a word of shape l - k.

    For a decorated word, k = 0 keeps the decoration and k != 0 drops it.
    Requires 0 <= k <= l <= shape(w).
    """
    if isinstance(w, DecoratedWord):
        inner = restrict(w.word, k, l)
        if is_zero(k):
            return DecoratedWord(w.decoration, inner)
        return inner
    k, l = _ints(k, "corner"), _ints(l, "corner")
    if not (dominates(k, zero(w.rank)) and dominates(l, k) and dominates(w.shape, l)):
        raise ValueError(f"need 0 <= {k} <= {l} <= {w.shape}")
    letters = tuple(map(w.letters.__getitem__, box_offsets(w.shape, k, l)))
    return Word(sub(l, k), letters)


def translates_agree(w1: Word, w2: Word, p: Translate) -> bool:
    """True iff w1 and the p-translate of w2 agree on their overlap.

    The overlap is [0, l1] intersected with [p, p + l2]; an empty overlap
    counts as agreement.  Its rows along the last direction are contiguous
    in both words; :func:`rows_agree` compares them along the row plan of
    :func:`overlap_rows`.
    """
    if len(p) != w1.rank:
        raise ValueError("translate has wrong rank")
    _same_rank(w1.shape, w2.shape)
    plan = overlap_rows(tuple(w1.shape), tuple(w2.shape), _ints(p, "translate"))
    return rows_agree(w1.letters, w2.letters, plan)


def rows_agree(a: Sequence[int], b: Sequence[int], plan) -> bool:
    """True iff the letters a and b agree on every row of an overlap plan:
    one slice pair per row, returning False at the first row that differs."""
    width, rows = plan
    for i, j in rows:
        if a[i:i + width] != b[j:j + width]:
            return False
    return True


@functools.lru_cache(maxsize=1024)
def overlap_rows(l1: Shape, l2: Shape, p: Translate):
    """Row width and row-start pairs of the overlap of [0, l1] and [p, p + l2].

    Row starts are row-major positions: in [0, l1] for the first word and in
    [0, l2] for the second, whose cell x - p faces cell x of the first.  The
    plan depends only on (l1, l2, p) and is memoised for the last 1024 such
    keys.
    """
    if not p:  # rank 0: each box is the one cell 0
        return 1, ((0, 0),)
    lo = [max(c, 0) for c in p]
    hi = [min(a, b + c) for a, b, c in zip(l1, l2, p)]
    if any(a > b for a, b in zip(lo, hi)):
        return 0, ()
    width = hi[-1] - lo[-1] + 1
    hi[-1] = lo[-1]
    starts1 = box_offsets(l1, lo, hi)
    starts2 = box_offsets(l2, [a - c for a, c in zip(lo, p)],
                          [b - c for b, c in zip(hi, p)])
    return width, tuple(zip(starts1, starts2))


def is_periodic(w: Word, p: Translate) -> bool:
    """True iff w agrees with its own p-translate on their overlap.

    Vacuously true when the overlap [0,l] n [p,p+l] is empty.  p = 0 is
    rejected.  Symmetric in p <-> -p.
    """
    if is_zero(p):
        raise ValueError("p = 0 is not a periodicity direction")
    return translates_agree(w, w, p)
