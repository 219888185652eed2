"""Constructive witnesses: connectors, distinct pairs, aperiodic words,
translate-separating extensions, and the separating family indexing the
projection support.

Everything here assumes the system passes (H0)-(H2) (and, for the deeper
constructions, that bounded (H3) searches succeed); run
:func:`rankshift.verify.verify_report` first when in doubt.  All searches are
graded with declaration-order tie-breaks, so outputs are deterministic.
"""

from __future__ import annotations

from collections import deque
from functools import cache, reduce
from itertools import chain
from typing import Iterable, Iterator

from .core import (
    DecorationMap,
    DecoratedWord,
    Shape,
    TileSystem,
    Translate,
    WitnessSearchError,
    Word,
    _ints,
    add,
    check_shape,
    dominates,
    is_zero,
    join,
    letter_word,
    neg,
    overlap_rows,
    restrict,
    rows_agree,
    strides,
    translate_reps,
    unit,
    zero,
)
from .completion import extend_along, iter_grid_completions, staircase_steps, word_from_path
from .verify import h3_bounded_witnesses

__all__ = [
    "connect", "grow_to_shape", "distinct_pair", "nonperiodic_all",
    "separate_translates", "separating_family", "projection_support",
]


def connect(ts: TileSystem, a: int, b: int, n_min: Shape) -> Word:
    """A word w with o(w) = a, t(w) = b and shape(w) >= n_min, through the
    steps of :func:`_connect_steps`, which the witness words fill in place."""
    n_min = check_shape(ts, n_min, "minimum shape")
    a, b = ts.alphabet.resolve(a), ts.alphabet.resolve(b)
    return word_from_path(ts, a, _connect_steps(ts, a, b, n_min))


def _connect_steps(ts: TileSystem, a: int, b: int, n_min: Shape) -> list[tuple[int, int]]:
    """The (direction, letter) steps from a to b of a shortest staircase
    spanning at least n_min: breadth-first search over (letter,
    progress-clamped-at-n_min) states, ties broken by direction then letter
    order.  Unreachable letters mean the system fails (H2)."""
    start = (a, zero(ts.rank))
    goal = (b, n_min)
    if start == goal:
        return []
    parents: dict[tuple[int, Shape], tuple] = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        c, prog = state
        for j in range(1, ts.rank + 1):
            bumped = tuple(min(x + (1 if i == j - 1 else 0), n)
                           for i, (x, n) in enumerate(zip(prog, n_min)))
            for c2 in ts.successors(j, c):
                nxt = (c2, bumped)
                if nxt in parents:
                    continue
                parents[nxt] = (state, j, c2)
                if nxt == goal:
                    steps, cur = [], nxt
                    while parents[cur] is not None:
                        cur, jj, letter = parents[cur]
                        steps.append((jj, letter))
                    return steps[::-1]
                queue.append(nxt)
    raise WitnessSearchError(
        f"letter {ts.alphabet.name(b)} unreachable from {ts.alphabet.name(a)} "
        f"with shape >= {n_min}; the system fails (H2)")


def _span(rank: int, steps: list[tuple[int, int]]) -> Shape:
    """The shape spanned by a staircase of (direction, letter) steps."""
    return tuple(sum(j == k for j, _ in steps) for k in range(1, rank + 1))


def _greedy_steps(ts: TileSystem, shape: Shape, c: int, *targets: Shape
                  ) -> Iterator[tuple[int, int]]:
    """Steps from shape and terminus c to each target in turn, each leg from
    where the last ended, direction 1 first, each to the least allowed letter.
    Under (H0)-(H2) every letter has a successor, so the walk cannot stick."""
    for target in targets:
        for j in range(1, ts.rank + 1):
            for _ in range(target[j - 1] - shape[j - 1]):
                succ = ts.successors(j, c)
                if not succ:
                    raise WitnessSearchError(
                        f"letter {ts.alphabet.name(c)} has no successor "
                        f"in direction {j}; the system fails (H2)")
                c = succ[0]
                yield j, c
        shape = target


def grow_to_shape(ts: TileSystem, w: Word, target: Shape) -> Word:
    """Extend w to exact shape target >= shape(w), greedily.

    One :func:`~rankshift.completion.extend_along` call fills the steps of
    :func:`_greedy_steps`; target = shape(w) returns w itself, unfilled.
    """
    target = check_shape(ts, target, "target")
    if target == w.shape:
        return w
    return extend_along(ts, w, target, _greedy_steps(ts, w.shape, w.terminus, target))


def distinct_pair(ts: TileSystem) -> tuple[Word, Word]:
    """Two different words of equal shape and equal origin.

    Unit shapes decide it, with no grid search.  Directions are taken in
    order, then letters in declaration order: the first letter c with two
    direction-j successors b < b' gives the words (c, b) and (c, b') of shape
    e_j, the first pair in canonical (grade-first) order.  If no letter has
    two successors in any one direction, each cell of a word is forced by
    the cell before it, so every word is determined by its origin and shape;
    that is reported as evidence against (H3).
    """
    for j in range(1, ts.rank + 1):
        e_j = unit(ts.rank, j)
        for c in range(ts.n_letters):
            succ = ts.successors(j, c)
            if len(succ) > 1:
                return Word(e_j, (c, succ[0])), Word(e_j, (c, succ[1]))
    raise WitnessSearchError(
        "no two distinct words of equal shape and origin: no letter has two "
        "successors in any one direction; evidence against (H3)")


def nonperiodic_all(ts: TileSystem, m: Shape, a: int) -> Word:
    """A word from letter a that is non-p-periodic for every p != 0, |p| <= m.

    Per-p witnesses of the bounded (H3) search (shape |p| each) are joined by
    spacers into p_0 s_0 ... p_k behind a connector from a; a word containing
    a non-p-periodic sub-box is non-p-periodic.  m = 0 gives the letter word.
    The word is one fill, with no greedy step (see :func:`_nonperiodic_words`).
    """
    a = ts.alphabet.resolve(a)
    return _nonperiodic_words(ts, m, [a])[a]


def _nonperiodic_words(ts: TileSystem, m: Shape, letters: Iterable[int]
                       ) -> dict[int, Word]:
    """:func:`nonperiodic_all` for each letter, grown to the join l of them.

    Each word is one :func:`extend_along` fill from its letter along its
    connector path, the tail (p_0's staircase, then each spacer path and
    p_{i+1}'s staircase; no core word is built) and the greedy steps to l.
    Under (H1) a word is the only fill of any staircase through it, and a
    fill along s1 + s2 is one along s1, then s2: this is the connector times
    p_0 s_0 ... p_k, grown.  All paths are searched before any fill, so on
    input failing (H1) and (H2) the (H2) error may come first (the CLI
    checks (H0)-(H2) before any witness command).
    """
    m = check_shape(ts, m, "p bound")
    if is_zero(m):
        return {a: letter_word(ts.rank, a) for a in letters}
    parts = list(h3_bounded_witnesses(ts, m).values())
    tail = staircase_steps(parts[0])
    for prev, part in zip(parts, parts[1:]):
        tail += _connect_steps(ts, prev.terminus, part.origin, zero(ts.rank))
        tail += staircase_steps(part)
    paths = {a: _connect_steps(ts, a, parts[0].origin, zero(ts.rank)) + tail for a in letters}
    spans = {a: _span(ts.rank, path) for a, path in paths.items()}
    l = reduce(join, spans.values())
    return {a: extend_along(ts, letter_word(ts.rank, a), l, chain(
                path, _greedy_steps(ts, spans[a], path[-1][1], l)))
            for a, path in paths.items()}


def separate_translates(ts: TileSystem, p: Translate, w1: Word, w2: Word
                        ) -> tuple[Word, Word]:
    """Extend w1, w2 to a common shape on which tau_p(w1') differs from w2'.

    A distinct pair (u, v) of unit shape e_j and equal origin (see
    :func:`distinct_pair`: if any two words of one shape and origin differ,
    two of shape e_j do) is spliced onto w1 behind a spacer s chosen so that
    the spliced box lands at p + shape(w1 s) >= 0 inside w2'; whichever of
    u, v differs from what w2' shows there forces the disagreement, which
    survives any further padding, on an overlap that is never empty.  Each
    is one :func:`extend_along` fill: w1' along s, the pick's staircase and
    greedy steps; w2' along greedy legs to seen = join(shape(w2), upper),
    then to common, and what it shows is read inside [0, seen].
    """
    p = _ints(p, "translate")
    if w1.shape != w2.shape:
        raise ValueError(f"shapes differ: {w1.shape} vs {w2.shape}")
    if len(p) != w1.rank:
        raise ValueError("translate has wrong rank")
    u, v = distinct_pair(ts)
    spacer_min = join(neg(add(p, w1.shape)), zero(ts.rank))
    s = _connect_steps(ts, w1.terminus, u.origin, spacer_min)
    spliced = add(w1.shape, _span(ts.rank, s))  # the shape of w1 s
    reach = add(spliced, u.shape)  # the shape of w1 s u, and of w1 s v
    base, upper = add(p, spliced), add(p, reach)
    seen = join(w2.shape, upper)
    common = join(reach, seen)
    w2p = extend_along(ts, w2, common, _greedy_steps(ts, w2.shape, w2.terminus, seen, common))
    pick = v if restrict(w2p, base, upper) == u else u
    w1p = extend_along(ts, w1, common, chain(
        s, staircase_steps(pick), _greedy_steps(ts, reach, pick.terminus, common)))
    return w1p, w2p


def separating_family(ts: TileSystem, m: Shape) -> tuple[Shape, dict[int, Word]]:
    """A common-shape family {w_a} with all small translates separated.

    Returns (l, family) where family[a] is a word of shape l with origin a,
    and for all letters a, b and every p != 0 with |p| <= m the words w_a and
    tau_p(w_b) disagree somewhere on their overlap.  Starts from the
    :func:`nonperiodic_all` words, all of the first common shape l0, and
    repairs violating (a, b, p) triples with :func:`separate_translates`;
    disagreements persist under extension, so one pass suffices, and the
    result is re-verified.  A triple is compared with :func:`rows_agree` only
    if w_a and w_b match on the first row of their overlap at l0, taken at
    l0's width: that row starts at cell max(p, 0), lies in every later
    overlap, and repairs only extend words, so no other triple can agree.
    At a common shape l with s = strides(l), that row starts at sum
    max(p, 0)·s in w_a and sum max(-p, 0)·s in w_b; its width at l0 is
    l0_r - |p_r| + 1.  The re-check rebuilds the index at the final l.  The
    :func:`overlap_rows` plan of (l, p) is taken at a compare, held until l grows.  A
    member is not regrown after each repair: it is filled to the current
    shape when a compare reads it, or at the end, in one fill along the
    greedy legs through the common shapes it missed, so n letters and R
    repairs make at most n(R + 1) fills.
    """
    m = check_shape(ts, m, "p bound")
    n = ts.n_letters
    family = _nonperiodic_words(ts, m, range(n))
    ls = [family[0].shape]  # the common shapes, one more per repair
    translates = [q for p in translate_reps(m) for q in (p, neg(p))]
    widths = [ls[0][-1] - abs(q[-1]) + 1 for q in translates]

    def read(c: int) -> Word:
        w = family[c]
        if w.shape != ls[-1]:
            family[c] = w = extend_along(ts, w, ls[-1], _greedy_steps(
                ts, w.shape, w.terminus, *ls[ls.index(w.shape) + 1:]))
        return w

    def candidates(l: Shape) -> list[list[tuple[int, int]]]:
        """Per letter a, the (b, k) in order whose first overlap rows at l match."""
        st = strides(l)
        firsts = [(sum(max(c, 0) * s for c, s in zip(q, st)),
                   sum(max(-c, 0) * s for c, s in zip(q, st)), width)
                  for q, width in zip(translates, widths)]
        buckets = [{} for _ in firsts]
        for b in range(n):
            for (_, j, width), bucket in zip(firsts, buckets):
                bucket.setdefault(family[b].letters[j:j + width], []).append(b)
        return [sorted((b, k) for k, (i, _, width) in enumerate(firsts)
                       for b in buckets[k].get(family[a].letters[i:i + width], ()))
                for a in range(n)]

    @cache
    def plan(k: int):  # by translate index, at the common shape ls[-1]
        return overlap_rows(ls[-1], ls[-1], translates[k])

    for a, pairs in enumerate(candidates(ls[0])):
        for b, k in pairs:
            if a != b and rows_agree(read(a).letters, read(b).letters, plan(k)):
                family[b], family[a] = separate_translates(ts, translates[k], family[b], family[a])
                ls.append(family[a].shape)
                plan.cache_clear()

    for c in range(n):
        read(c)
    for a, pairs in enumerate(candidates(ls[-1])):
        if family[a].origin != a:
            raise WitnessSearchError("separating family lost an origin")
        for b, k in pairs:
            if rows_agree(family[a].letters, family[b].letters, plan(k)):
                raise WitnessSearchError(
                    f"separating family failed for letters "
                    f"({ts.alphabet.name(a)}, {ts.alphabet.name(b)}), p={translates[k]}")
    return ls[-1], family


def projection_support(ts: TileSystem, dmap: DecorationMap, m: Shape,
                       l: Shape, family: dict[int, Word],
                       total: Shape | None = None) -> list[DecoratedWord]:
    """Decorated words of shape ``total`` whose [m, m+l] window lies in the family.

    With the default total = m + l this is the index set of the projection
    built from the separating family; larger totals realise its refinements,
    whose support consists exactly of the extensions of the base support.

    The enumeration is a direct grid search (it never uses the forced-fill
    machinery): one :func:`~rankshift.completion.iter_grid_completions` run
    per distinct family member, placed as a word on the window.  Distinct
    members of one shape cannot both fill the same window, so the runs are
    disjoint, and their union is returned in the canonical (lexicographic
    row-major) order.
    """
    m = check_shape(ts, m, "p bound")
    l = check_shape(ts, l, "common shape")
    window_hi = add(m, l)
    total = check_shape(ts, window_hi if total is None else total, "total shape")
    if not dominates(total, window_hi):
        raise ValueError(f"total shape {total} must dominate m + l = {window_hi}")
    members = dict.fromkeys(family.values())
    if any(w.shape != l for w in members):
        raise ValueError(f"family members must all have the common shape {l}")
    grids = sorted(letters for w in members
                   for letters in iter_grid_completions(ts, total, [(m, w)]))
    groups = dmap.by_letter(ts.n_letters)
    out = []
    for letters in grids:
        w = Word(total, letters)
        out.extend(DecoratedWord(d, w) for d in groups[w.origin])
    return out
