"""Forced completion of words: staircase extension, staircase words, products.

Under the local conditions (H1a)-(H1c) -- checked by
:func:`rankshift.verify.check_h1_local` -- a word extends uniquely one unit
layer at a time: the new far corner is chosen among allowed successors and
every other new cell is forced by a commuting-square constraint.  The one
kernel, :func:`extend_along`, fills a whole staircase of such layers in a
single box, the word's own [0, target] with no padding layer, each layer
walked in rows along the last other direction so that no unfilled cell is
read, and the filled box is the word; unit extension, staircase words and the
product all call it, and so do the witness words, one box per word along its
factors' staircases.

Independently of any of that, this module also provides brute-force grid
enumeration (:func:`iter_grid_completions`, :func:`words_of_shape`), which
never uses the forced-fill path and therefore serves as its oracle.
:func:`iter_grid_completions` is the package's only grid search: one walk
over chains of slabs along direction 1 (:func:`_chains`), which finds the
slabs that can follow a given slab once, as the transfer-matrix view of the
subshift allows; in a box of five or more slabs, the far half is one
memoised tail per slab before it, walked the same way, so it is searched once
per such slab and not once per prefix.  It checks its arguments when called
and returns a generator on every path.  The (H1)
oracle searches each shape of one or two slabs up to its bound once, appends
slabs to build the longer ones, and decides each split from the count of its
words and their letters along one staircase, walking its pairs for a witness
only when the split fails.  The search forms each slab once, with a ``form``
that must satisfy ``form(s + t) == form(s) + form(t)``, and builds a grid by
adding the formed slabs, so callers that want text (the CLI's lines, the
oracle's code-point strings) get it with no per-grid conversion; the
projection support constrains it by placing one family member as a word on the
window, one search per member, rather than tracking patterns inside the
search.  Placed words are propagated backwards before the search starts, so a
fixed terminus prunes from the first cell.
"""

from __future__ import annotations

from itertools import tee
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .core import (
    CompletionError,
    DecoratedWord,
    DecorationMap,
    Shape,
    TileSystem,
    TransitionError,
    Word,
    WordLike,
    add,
    box_cells,
    box_offsets,
    box_size,
    check_direction,
    check_shape,
    dominates,
    letter_word,
    strides,
    unit,
    zero,
)

T = TypeVar("T")

__all__ = [
    "extend_along", "extend_unit", "word_from_path", "product", "list_extensions",
    "iter_grid_completions", "end_placements", "words_of_shape",
    "decorated_words_of_shape", "staircase_offsets", "staircase_steps",
]


def extend_along(ts: TileSystem, w: Word, target: Shape,
                 steps: Iterable[tuple[int, int]]) -> Word:
    """The unique word of shape target extending w along a staircase.

    Step (j, a) of ``steps`` requires M_j(a, t) = 1 for the current terminus
    t and adds one unit layer in direction j with terminus a.  Steps are read
    lazily, one per layer, and must end exactly at target.  The box [0, target]
    is allocated once, with no padding, and the filled box is the word.  Each
    layer is filled in place from its far corner back, every cell forced by
    its filled neighbours, and a cell with no letter or more than one raises
    :class:`CompletionError` (the system violates (H1)).  A layer in direction
    j is walked in rows along l, the last other direction, far row and far
    cell first, the mask of the filled x + e_l carried from the cell before;
    rows are built once per run of steps in one direction and read no unfilled
    cell.
    """
    target = check_shape(ts, target, "target")
    if not dominates(target, w.shape):
        raise ValueError(f"target {target} does not dominate shape {w.shape}")
    rank, n, resolve = ts.rank, ts.n_letters, ts.alphabet.resolve
    st = strides(target)
    letters = [0] * box_size(target)
    # w in blocks: one per cell of its directions before the last that target widens
    d = max([k for k in range(rank) if w.shape[k] != target[k]], default=0)
    starts = box_offsets(target, zero(rank), [c if k < d else 0 for k, c in enumerate(w.shape)])
    width = len(w.letters) // len(starts)
    for k, i in enumerate(starts):
        letters[i:i + width] = w.letters[k * width:(k + 1) * width]
    full = (1 << n) - 1
    succ = [ts.successor_masks(j) for j in range(1, rank + 1)]
    pred = [ts.predecessor_masks(k) for k in range(1, rank + 1)]
    shape, t, last = list(w.shape), w.terminus, 0
    for j, a in steps:
        check_direction(rank, j)
        a = resolve(a)
        if not ts.transition(j, t, a):
            raise TransitionError(
                f"M_{j}({ts.alphabet.name(a)}, {ts.alphabet.name(t)}) = 0: "
                f"cannot extend in direction {j}")
        if shape[j - 1] == target[j - 1]:
            raise ValueError(f"a step in direction {j} leaves the target {target}")
        if j != last:
            # rows along l, the last direction other than j (rank 1: one cell), as
            # (far end, one past the near end, (pred_k, s_k) of each filled x + e_k)
            l = rank - 1 if j < rank else rank - 2
            last, sj, succ_j, sl, pred_l = j, st[j - 1], succ[j - 1], st[l], pred[l]
            rows = [(shape[l] * sl if rank > 1 else 0, -sl, ())]
            for k in range(rank):
                if k != j - 1 and k != l:
                    sk = st[k]
                    rows = [(hi + x * sk, lo + x * sk,
                             others + ((pred[k], sk),) if x < shape[k] else others)
                            for hi, lo, others in rows for x in range(shape[k], -1, -1)]
        shape[j - 1] += 1
        base, nb = shape[j - 1] * sj, 1 << a
        for hi, lo, others in rows:
            for i in range(base + hi, base + lo, -sl):
                mask = succ_j[letters[i - sj]] & nb
                for pred_k, sk in others:
                    mask &= pred_k[letters[i + sk]]
                if mask == 0 or mask & (mask - 1):
                    x = tuple(i // s % (c + 1) for s, c in zip(st, target))
                    cands = [b for b in range(n) if mask >> b & 1]
                    raise CompletionError(
                        f"cell {x}: {len(cands)} consistent letters while extending in "
                        f"direction {j}; the system violates (H1)", cell=x, candidates=cands)
                c = letters[i] = mask.bit_length() - 1
                nb = pred_l[c]
            nb = full
        t = a
    if tuple(shape) != target:
        raise ValueError(f"the steps end at {tuple(shape)}, not at the target {target}")
    return Word(target, tuple(letters))


def extend_unit(ts: TileSystem, w: Word, j: int, a: int) -> Word:
    """The word of shape m + e_j extending w with terminus a: one step of
    :func:`extend_along`."""
    return extend_along(ts, w, add(w.shape, unit(ts.rank, j)), [(j, a)])


def word_from_path(ts: TileSystem, a0: int, steps: Sequence[tuple[int, int]]) -> Word:
    """The unique word through a staircase of letters.

    ``steps`` is a list of (direction, letter) pairs; step i requires
    M_{j_i}(a_i, a_{i-1}) = 1 and the result has shape sum of the e_{j_i},
    passing through every staircase value.  The index of the first invalid
    step is reported on failure.
    """
    prev = a0 = ts.alphabet.resolve(a0)
    target = list(zero(ts.rank))
    for i, (j, a) in enumerate(steps):
        check_direction(ts.rank, j, f"step {i}: direction")
        a = ts.alphabet.resolve(a)
        if not ts.transition(j, prev, a):
            raise TransitionError(
                f"step {i}: M_{j}({ts.alphabet.name(a)}, {ts.alphabet.name(prev)}) = 0")
        prev = a
        target[j - 1] += 1
    return extend_along(ts, letter_word(ts.rank, a0), target, steps)


def staircase_offsets(shape: Shape, corners: Iterable[Shape]) -> list[tuple[int, int]]:
    """(direction, row-major position in [0, shape]) of each step of the
    staircase from 0 through each corner in turn, direction 1 first on each
    leg, each step a stride past the one before.  Corners must increase: each
    dominates the last (0 first) and lies in [0, shape], else ValueError."""
    st = strides(shape)
    steps, lo, i = [], zero(len(shape)), 0
    for corner in corners:
        if len(corner) != len(shape):
            raise ValueError(f"rank mismatch: {tuple(shape)} vs {tuple(corner)}")
        for j, (a, b, m, s) in enumerate(zip(lo, corner, shape, st), start=1):
            if not a <= b <= m:
                raise ValueError(f"staircase corner {tuple(corner)} does not dominate "
                                 f"{tuple(lo)} or leaves [0, {tuple(shape)}]")
            steps += [(j, i + k * s) for k in range(1, b - a + 1)]
            i += (b - a) * s
        lo = corner
    return steps


def staircase_steps(w: Word) -> list[tuple[int, int]]:
    """The canonical staircase of w, direction 1 first, then 2, and so on: the
    (direction, letter) pairs of :func:`word_from_path` from o(w)."""
    return [(j, w.letters[i]) for j, i in staircase_offsets(w.shape, [w.shape])]


def product(ts: TileSystem, u: WordLike, v: Word) -> WordLike:
    """The unique word w with w|[0,m] = u and w|[m,m+n] = v.

    Requires t(u) = o(v).  A decorated u carries its decoration to the
    product.  Implemented by :func:`extend_along` over the staircase of v:
    one box of shape m + n, one forced layer per step.
    """
    if isinstance(u, DecoratedWord):
        return DecoratedWord(u.decoration, product(ts, u.word, v))
    if u.terminus != v.origin:
        raise TransitionError(
            f"t(u) = {ts.alphabet.name(u.terminus)} != "
            f"o(v) = {ts.alphabet.name(v.origin)}: product undefined")
    return extend_along(ts, u, add(u.shape, v.shape), staircase_steps(v))


def list_extensions(ts: TileSystem, u: WordLike, n: Shape
                    ) -> list[tuple[Word, WordLike]]:
    """All words w of shape n with o(w) = t(u), each paired with u w.

    Results come in the canonical order: lexicographic over the row-major
    letters of w.
    """
    return [(w, product(ts, u, w))
            for w in words_of_shape(ts, n, origin=u.terminus)]


# ---------------------------------------------------------------------------
# brute-force grid enumeration (independent of the forced-fill machinery)
# ---------------------------------------------------------------------------

def iter_grid_completions(ts: TileSystem, shape: Shape,
                          fixed: Sequence[tuple[Shape, Word]] = (),
                          form: Callable[[tuple[int, ...]], T] = tuple
                          ) -> Iterator[T]:
    """All valid letter grids on [0, shape] that show the placed words.

    ``fixed`` lists placements ``(k, u)``: every grid shows the word u on the
    sub-box [k, k + shape(u)], which must lie in [0, shape].  Grids are
    produced in lexicographic order of their full row-major tuple; cells are
    assigned one by one with every constraint towards already-assigned
    neighbours enforced (:func:`_cell_search`), so the search is exact.  When
    words are placed, one reverse sweep first narrows each cell x to letters
    with an allowed successor at every x + e_k.  It drops only letters that
    are in no grid, so the grids and their order stay; it is skipped without
    placements, where it would cost time and, on an essential system, drop
    nothing.

    A box of three or more slabs x_1 = 0, ..., m_1 is searched one slab at a
    time by one walk, :func:`_chains`.  The slabs that can stand at x_1 = x + 1
    depend only on slab x and on the allowed masks there (the slab's mask
    class), so the cell search runs once per such pair and a lazily filled
    list keeps its slabs: a visit past the list's end pulls the next one, so
    an early exit fills no list further than it was read.  Slabs are
    consecutive row-major blocks and each list is lexicographic, so the grids
    and their order are those of the cell search on the whole box.  The lists
    hold one entry per distinct (mask class, previous slab, slab) visited.  In
    a box of one or two slabs every previous slab is new and a list only adds
    cost, so such a box is searched cell by cell.  A box of five or more slabs
    (m_1 >= 4) takes slabs h + 1 .. m_1, h = m_1 // 2, from a tail per
    distinct slab h: a lazily filled list, least first, of their formed
    values, walked by the same :func:`_chains`.  A tail holds one formed suffix
    per (slab h, suffix) read, so the lists grow with the search's work and
    the tails with the grids yielded.  In a box of three or four slabs a
    tail's key would seldom recur, so the walk runs to slab m_1 with no tail.

    ``form`` maps a row-major letter tuple to the value yielded for it.  It
    must satisfy ``form(s + t) == form(s) + form(t)`` (a tuple, a string of
    one code point per letter, comma-terminated names), so the grids are
    ``form`` of the letter tuples above.  It is applied once per slab-list
    entry, and a grid is the sum of its slabs' formed values (a tail entry is
    such a sum too); a box of one or two slabs applies it to each grid.

    The arguments are checked when the function is called, before any grid
    is read.  Every box returns a generator, which a caller may ``close()``;
    the function is not one itself, as a ``yield from`` the walk costs each
    grid a frame switch.
    """
    shape = check_shape(ts, shape, "shape")
    st = strides(shape)
    succ = [ts.successor_masks(j) for j in range(1, len(shape) + 1)]
    # per cell: (flat index of the predecessor, its successor masks) pairs
    plan = [tuple((i - st[k], succ[k]) for k in range(len(shape)) if cell[k] > 0)
            for i, cell in enumerate(box_cells(shape))]
    n_cells = len(plan)
    allowed = [(1 << ts.n_letters) - 1] * n_cells
    for k, u in fixed:
        hi = add(k, u.shape)
        if any(c < 0 for c in k) or not dominates(shape, hi):
            raise ValueError(f"placed box [{tuple(k)}, {hi}] outside [0, {shape}]")
        for i, a in zip(box_offsets(shape, k, hi), u.letters):
            allowed[i] &= 1 << a
    if fixed:
        # reverse row-major order settles each cell before its predecessors read it
        for i in reversed(range(n_cells)):
            for p, masks in plan[i]:
                allowed[p] &= sum(1 << a for a, m in enumerate(masks) if m & allowed[i])
    last = shape[0]
    if last < 2:
        return (form(g) for g in _cell_search(allowed, plan))
    width, succ_1 = st[0], succ[0]
    # slab 0's plan holds exactly the constraints inside a slab, by index
    inner = plan[:width]

    def entry(s: tuple[int, ...]) -> tuple[tuple[int, ...], T]:
        # a slab-list entry: the slab and its formed value, formed once
        return s, form(s)

    # per slab: the lists of its mask class, keyed by the previous slab
    classes: dict[tuple[int, ...], dict] = {}
    memo = [classes.setdefault(tuple(allowed[x * width:(x + 1) * width]), {})
            for x in range(last + 1)]

    def slabs(x: int, prev: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], T]]:
        found = memo[x].get(prev)
        if found is None:
            masks = [a & succ_1[b] for a, b in zip(allowed[x * width:(x + 1) * width], prev)]
            # a tee buffers all its copies have pulled; this one stays at the start
            found = memo[x][prev] = tee(map(entry, _cell_search(masks, inner)), 1)[0]
        return found.__copy__()

    first = map(entry, _cell_search(allowed[:width], inner))
    if last < 4:
        return _chains(slabs, first, 0, last)
    h, tails = last // 2, {}

    def tail(s: tuple[int, ...]) -> Iterator[T]:
        found = tails.get(s)
        if found is None:
            found = tails[s] = tee(_chains(slabs, slabs(h + 1, s), h + 1, last), 1)[0]
        return found.__copy__()

    return _chains(slabs, first, 0, h, tail)


def _chains(slabs: Callable[[int, tuple[int, ...]], Iterator[tuple[tuple[int, ...], T]]],
            first: Iterator[tuple[tuple[int, ...], T]], x: int, last: int,
            tail: Callable[[tuple[int, ...]], Iterator[T]] | None = None) -> Iterator[T]:
    """The summed formed values of each chain of slabs x .. last, least first:
    slab x from the (slab, formed value) entries ``first``, slab y > x from
    ``slabs(y, s)`` after slab s, and, with a ``tail``, every value of
    ``tail(r)`` after each slab-``last`` entry r; x < last.  The grid search's
    one walk over slabs: an iterative DFS to slab last - 1, then a flat loop."""
    its, acc, y = [first] * last, [None] * last, x
    while y >= x:
        for s, f in its[y]:
            acc[y] = acc[y - 1] + f if y > x else f
            if y < last - 1:
                y += 1
                its[y] = slabs(y, s)
                break
            grid = acc[y]
            if tail is None:
                for _, g in slabs(last, s):
                    yield grid + g
            else:
                for r, g in slabs(last, s):
                    g = grid + g
                    for t in tail(r):
                        yield g + t
        else:
            y -= 1


def _cell_search(allowed: list[int], plan: list[tuple]) -> Iterator[tuple[int, ...]]:
    """Every assignment of letters to cells 0, 1, ... in which cell i takes a
    letter of ``allowed[i]`` that each ``(p, masks)`` of ``plan[i]`` allows
    after the letter of cell p < i, in lexicographic order.  A cell tries its
    letters least first; a forced cell, whose mask has one bit, takes that
    letter with no list or iterator, and backtracking passes over it."""
    n_cells = len(allowed)
    assign = [0] * n_cells
    # per cell: an iterator over its allowed letters, least first; the letter
    # list of each distinct mask is built once, in a table local to this call.
    # A forced cell (one letter) gets the shared empty iterator instead.
    done: Iterator[int] = iter(())
    its: list[Iterator[int]] = [done] * n_cells
    table: dict[int, list[int]] = {}
    # iterative DFS over cells in row-major order: step into the next cell,
    # then take the next letter of the deepest cell that still has one
    i, last = -1, n_cells - 1
    while True:
        i += 1
        mask = allowed[i]
        for p, masks in plan[i]:
            mask &= masks[assign[p]]
        if mask and not mask & (mask - 1):
            assign[i] = mask.bit_length() - 1
            its[i] = done
            if i < last:
                continue
            yield tuple(assign)
        else:
            opts = table.get(mask)
            if opts is None:
                opts, rest = [], mask
                while rest:
                    low = rest & -rest
                    opts.append(low.bit_length() - 1)
                    rest ^= low
                table[mask] = opts
            its[i] = iter(opts)
        while True:
            a = next(its[i], None)
            if a is None:
                i -= 1
                if i < 0:
                    return
                continue
            assign[i] = a
            if i < last:
                break
            yield tuple(assign)


def end_placements(ts: TileSystem, shape: Shape, origin: int | str | None = None,
                   terminus: int | str | None = None) -> list[tuple[Shape, Word]]:
    """The ``fixed`` of :func:`iter_grid_completions` for an origin and a
    terminus filter, letter names or indices: one-letter words at 0 and at
    shape.  A letter not in the alphabet raises
    :class:`~rankshift.core.UnknownLetterError`."""
    rank = ts.rank
    fixed = []
    if origin is not None:
        fixed.append((zero(rank), letter_word(rank, ts.alphabet.resolve(origin))))
    if terminus is not None:
        fixed.append((shape, letter_word(rank, ts.alphabet.resolve(terminus))))
    return fixed


def words_of_shape(ts: TileSystem, shape: Shape,
                   origin: int | None = None,
                   terminus: int | None = None) -> Iterator[Word]:
    """All words of the given shape, lexicographic in row-major letters,
    with the origin/terminus filters of :func:`end_placements`."""
    shape = check_shape(ts, shape, "shape")
    fixed = end_placements(ts, shape, origin, terminus)
    for letters in iter_grid_completions(ts, shape, fixed):
        yield Word(shape, letters)


def decorated_words_of_shape(ts: TileSystem, dmap: DecorationMap, shape: Shape,
                             origin: int | None = None,
                             terminus: int | None = None) -> Iterator[DecoratedWord]:
    """All decorated words of the given shape, word-major canonical order.

    No command uses it: ``rankshift enumerate --decorated`` writes the same
    lines from text grids.  It stays as the tests' reference enumerator."""
    groups = dmap.by_letter(ts.n_letters)
    for w in words_of_shape(ts, shape, origin=origin, terminus=terminus):
        for d in groups[w.origin]:
            yield DecoratedWord(d, w)
