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
from dataclasses import dataclass
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

def vec(components: Iterable[int]) -> tuple[int, ...]:
    return tuple(int(c) for c in components)


def zero(rank: int) -> Shape:
    return (0,) * rank


def unit(rank: int, j: int) -> Shape:
    """The unit vector e_j (directions are 1-based)."""
    if not 1 <= j <= rank:
        raise ValueError(f"direction {j} out of range 1..{rank}")
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
    """Row-major positions in [0, shape] of the cells of [lo, hi], in order."""
    offsets = [0]
    for a, b, s in zip(lo, hi, strides(shape)):
        offsets = [o + c * s for o in offsets for c in range(a, b + 1)]
    return offsets


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
    reps = []
    for p in itertools.product(*(range(-b, b + 1) for b in bound)):
        if is_zero(p):
            continue
        first = next(c for c in p if c != 0)
        if first > 0:
            reps.append(p)
    reps.sort(key=lambda p: (sum(absv(p)), tuple(reversed(absv(p))), tuple(reversed(p))))
    return reps


# ---------------------------------------------------------------------------
# alphabets and tile systems
# ---------------------------------------------------------------------------

class Alphabet:
    """An ordered finite set of distinct letter names.

    Declaration order is canonical: every enumeration and tie-break in this
    package uses it, which makes all operations deterministic.  A name is a
    nonempty string with no ',' or whitespace, the rule of the system file
    and of the CLI's comma-separated cells; nothing is coerced.
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
        i = int(letter)
        if not 0 <= i < len(self.letters):
            raise UnknownLetterError(f"letter index {i} out of range")
        return i


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
    if its rank is not that of ts or a component is negative."""
    shape = vec(shape)
    if len(shape) != ts.rank:
        raise ValueError(f"{what} {shape} has wrong rank; system rank is {ts.rank}")
    if any(c < 0 for c in shape):
        raise ValueError(f"{what} {shape} has a negative component")
    return shape


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """A letter assignment on the box [0, shape], stored row-major.

    Letters are alphabet indices.  Instances are plain values: two words are
    equal iff they have the same shape and letters, independently of any tile
    system.  Transition validity is checked by :func:`validate_word`.
    """

    shape: Shape
    letters: tuple[int, ...]

    def __post_init__(self):
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
        if len(cell) != len(self.shape):
            raise ValueError(f"cell {cell} has wrong rank")
        if any(not 0 <= c <= m for c, m in zip(cell, self.shape)):
            raise ValueError(f"cell {tuple(cell)} outside box [0, {self.shape}]")
        return self.letters[box_offsets(self.shape, cell, cell)[0]]

    def render(self, alphabet: Alphabet) -> str:
        names = alphabet.letters
        return ",".join([names[a] for a in self.letters])


def letter_word(rank: int, a: int) -> Word:
    """The shape-0 word identified with the letter a."""
    return Word(zero(rank), (int(a),))


@dataclass(frozen=True)
class DecorationMap:
    """A finite ordered decoration set D with delta: D -> A.

    ``delta[i]`` is the letter index assigned to decoration ``names[i]``.
    """

    names: tuple[str, ...]
    delta: tuple[int, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("decorations.names must be a nonempty string list")
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
        i = int(decoration)
        if not 0 <= i < len(self.names):
            raise UnknownLetterError(f"decoration index {i} out of range")
        return i

    def attach(self, decoration: Union[int, str], word: Word) -> "DecoratedWord":
        """Pair a decoration with a word, enforcing delta(d) = o(w)."""
        d = self.resolve(decoration)
        if self.delta[d] != word.origin:
            raise ValueError(
                f"decoration {self.names[d]!r} maps to letter {self.delta[d]}, "
                f"but the word starts with letter {word.origin}")
        return DecoratedWord(d, word)

    def by_letter(self, n_letters: int) -> list[tuple[int, ...]]:
        """Decoration indices grouped by their delta letter."""
        groups: list[list[int]] = [[] for _ in range(n_letters)]
        for d, a in enumerate(self.delta):
            groups[a].append(d)
        return [tuple(g) for g in groups]


@dataclass(frozen=True)
class DecoratedWord:
    """A pair (d, w); ``decoration`` is an index into a DecorationMap."""

    decoration: int
    word: Word

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
    k = vec(k)
    l = vec(l)
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
    plan = overlap_rows(tuple(w1.shape), tuple(w2.shape), tuple(p))
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
