"""Decision procedures for the axioms (H0)-(H3) of a tile system.

    (H0)   every transition matrix is nonzero;
    (H1)   composable words have a unique common extension (the product);
    (H2)   the combined transition graph on the alphabet is irreducible;
    (H3)   for every translate p != 0 some word is not p-periodic.

(H1) is decided exactly by the local matrix conditions

    (H1a)  M_i M_j = M_j M_i,
    (H1b)  M_i M_j has entries in {0,1} for i < j,
    (H1c)  M_i M_j M_k has entries in {0,1} for i < j < k,

which :func:`check_h1_local` verifies; :func:`check_h1_oracle` independently
brute-forces the unique-extension statement on bounded shapes.  (H3) has no
known terminating decision procedure, but the strengthened condition (H3*)
-- every direction-j extension fiber has at least two letters -- is decidable
by a fixed-point computation over fiber sets (:func:`check_h3_star`) and
implies (H3).  :func:`check_h3_bounded` searches for explicit non-periodic
witnesses within bounds.
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import groupby
from operator import itemgetter
from typing import Iterator, Optional

from .core import (
    Shape,
    TileSystem,
    Translate,
    WitnessSearchError,
    Word,
    _Value,
    absv,
    box_cells,
    box_offsets,
    box_size,
    check_direction,
    check_floor,
    check_shape,
    is_periodic,
    shapes_upto,
    sub,
    translate_reps,
    zero,
)
from .completion import (iter_grid_completions, staircase_offsets, word_from_path,
                         words_of_shape)

__all__ = [
    "Status", "CheckResult", "VerificationReport", "FiberFamily",
    "check_h0", "check_h1_local", "check_h1_oracle", "check_h2",
    "check_h3_star", "check_h3_bounded", "verify_report",
]


class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    BOUNDED_PASS = "bounded-pass"
    SKIPPED = "skipped"
    CAP_HIT = "cap-hit"

    def __str__(self):
        return self.value


class CheckResult(_Value):
    """Outcome of one condition check.

    A fail always carries a checkable witness payload; params records the
    bounds the check ran with (a fresh ``{}`` when none are given).
    """

    __slots__ = ("condition", "status", "witness", "params")

    def __init__(self, condition: str, status: Status, witness: object = None,
                 params: dict | None = None):
        _Value.__init__(self, condition, status, witness, {} if params is None else params)

    @property
    def ok(self) -> bool:
        return self.status in (Status.PASS, Status.BOUNDED_PASS)

    def to_json(self) -> dict:
        out = {"condition": self.condition, "status": self.status.value,
               "params": dict(self.params)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class VerificationReport(_Value):
    __slots__ = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]):
        _Value.__init__(self, checks)

    @property
    def ok(self) -> bool:
        return all(c.status is not Status.FAIL for c in self.checks)

    def __getitem__(self, condition: str) -> CheckResult:
        for c in self.checks:
            if c.condition == condition:
                return c
        raise KeyError(condition)

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _word_json(ts: TileSystem, w: Word) -> dict:
    return {"shape": list(w.shape),
            "cells": [ts.alphabet.name(a) for a in w.letters]}


def _names(ts: TileSystem, mask: int) -> list[str]:
    """The names of the letters in a mask, in declaration order."""
    return [ts.alphabet.name(a) for a in range(ts.n_letters) if mask >> a & 1]


# ---------------------------------------------------------------------------
# (H0), (H1)
# ---------------------------------------------------------------------------

def check_h0(ts: TileSystem) -> CheckResult:
    """Every matrix has at least one 1-entry."""
    for j, mat in enumerate(ts.matrices, start=1):
        if not any(any(row) for row in mat):
            return CheckResult("H0", Status.FAIL, {"direction": j})
    return CheckResult("H0", Status.PASS)


def check_h1_local(ts: TileSystem) -> CheckResult:
    """The local product conditions (H1a), (H1b), (H1c).

    Row b of M_i M_j counts the paths a -> c -> b (a direction-j step, then
    a direction-i step) over the predecessor lists: n q^2 work per pair and
    n q^3 per (H1c) triple for q predecessors per letter, not n^3.  The
    first violation in scan order is reported with the offending matrix
    entry and its value.
    """
    n = ts.n_letters
    names = ts.alphabet.letters

    def row(b, *directions):
        ends = [b]
        for d in directions:
            ends = [a for c in ends for a in ts.predecessors(d, c)]
        return Counter(ends)

    for i in range(1, ts.rank + 1):
        for j in range(i + 1, ts.rank + 1):
            for b in range(n):
                pij, pji = row(b, i, j), row(b, j, i)
                for a in sorted(pij.keys() | pji.keys()):
                    if pij[a] != pji[a]:
                        return CheckResult("H1a-c", Status.FAIL, {
                            "kind": "H1a", "i": i, "j": j,
                            "b": names[b], "a": names[a],
                            "values": [pij[a], pji[a]]})
                    if pij[a] > 1:
                        return CheckResult("H1a-c", Status.FAIL, {
                            "kind": "H1b", "i": i, "j": j,
                            "b": names[b], "a": names[a],
                            "value": pij[a]})
            for k in range(j + 1, ts.rank + 1):
                for b in range(n):
                    pijk = row(b, i, j, k)
                    for a in sorted(pijk):
                        if pijk[a] > 1:
                            return CheckResult("H1a-c", Status.FAIL, {
                                "kind": "H1c", "i": i, "j": j, "k": k,
                                "b": names[b], "a": names[a],
                                "value": pijk[a]})
    return CheckResult("H1a-c", Status.PASS)


def _code_points(letters: tuple[int, ...]) -> str:
    """One code point per letter: the oracle's grid form, applied per slab."""
    return "".join(map(chr, letters))


def _slab_step(grids_of: dict[Shape, list[str]], total: Shape) -> list[str]:
    """The grids of total = (m_1, c), m_1 >= 2, in order: each grid of (m_1 - 1, c)
    followed by the second slab of each grid of (1, c) that starts with its last slab."""
    m1, *c = total
    size, links = box_size((0, *c)), grids_of[(1, *c)]
    ranges: dict[str, list[int]] = {}
    for i, h in enumerate(links):  # sorted, so links sharing a first slab are a run
        ranges.setdefault(h[:size], [i, i])[1] = i + 1
    return [g + h[size:] for g in grids_of[(m1 - 1, *c)]
            for h in links[slice(*ranges.get(g[-size:], (0, 0)))]]


def check_h1_oracle(ts: TileSystem, shape_bound: Shape) -> CheckResult:
    """Brute-force unique factorisation on bounded shapes.

    For every shape total <= shape_bound and every split total = m + n, the
    restriction w -> (w|[0,m], w|[m,total]) must be a bijection from the
    words of shape total onto the composable pairs (u, v) of shapes m and n.
    Each shape is enumerated once, grade first, by grid search if m_1 <= 1.
    A grid of (m_1, c), c the other components, is m_1 + 1 row-major slabs,
    valid iff every two in a row form a grid of (1, c): :func:`_slab_step`
    builds it from the grids held of (m_1 - 1, c) and (1, c), of lower grade,
    in the search's lexicographic order.  A
    split passes when its words number sum_c #(u ending at c) * #(v starting
    at c), the count of composable pairs, and differ on the staircase
    0 -> m -> total; its cells lie in [0,m] and [m,total], so the restriction
    pairs differ too, and a staircase that passes settles every split it
    goes through.  A repeat there fails the split: the first failing split
    ends the run, so by induction on grade every word of a smaller shape is
    fixed by its letters on any staircase through it, and two words agreeing
    on 0 -> m -> total agree on w|[0,m] and w|[m,total].  A failing split
    walks its pairs in canonical order; the first with no extension, or with
    two, is the witness.
    Splits where u or v has shape 0 are trivial (the extension is the other
    word) and are skipped, so a bound of grade below 2 checks nothing and
    raises :class:`ValueError`, as does a bad rank or a negative component.
    An independent oracle for :func:`check_h1_local`; never calls the forced fill.
    """
    shape_bound = check_shape(ts, shape_bound, "shape bound")
    check_floor(sum(shape_bound), 2, f"shape bound {shape_bound} has no split "
                                     f"into two nonzero shapes; its grade")
    params = {"shape_bound": list(shape_bound)}
    # per shape: its grids, as strings with one code point per letter (far less
    # memory than tuples; the search forms each slab once and joins them), and
    # how many of them start and end at each letter
    grids_of, starts, ends = {}, {}, {}

    def word_json(shape, text):
        return _word_json(ts, Word(shape, tuple(map(ord, text))))

    for total in shapes_upto(shape_bound):
        if total[0] < 2:
            grids = list(iter_grid_completions(ts, total, form=_code_points))
        else:
            grids = _slab_step(grids_of, total)
        grids_of[total] = grids
        starts[total] = Counter(w[0] for w in grids)
        ends[total] = Counter(w[-1] for w in grids)
        settled = set()  # positions on a staircase with distinct letters
        for i, m in enumerate(box_cells(total)):
            if not 0 < sum(m) < sum(total):
                continue
            n = sub(total, m)
            composable = sum(k * starts[n][c] for c, k in ends[m].items())
            if composable == len(grids) and i not in settled:
                stair = [0, *(x for _, x in staircase_offsets(total, (m, total)))]
                if len(set(map(itemgetter(*stair), grids))) == len(grids):
                    settled.update(stair)
            if composable == len(grids) and i in settled:
                continue
            pair_of = itemgetter(*box_offsets(total, zero(ts.rank), m),
                                 *box_offsets(total, m, total))
            extensions: dict[str, list[str]] = {}
            for w in grids:
                extensions.setdefault("".join(pair_of(w)), []).append(w)
            by_origin: dict[str, list[str]] = {}
            for v in grids_of[n]:
                by_origin.setdefault(v[0], []).append(v)
            for u in grids_of[m]:
                for v in by_origin.get(u[-1], ()):
                    found = extensions.get(u + v, [])
                    if len(found) != 1:
                        witness = {
                            "u": word_json(m, u), "v": word_json(n, v),
                            "split": list(m), "total": list(total),
                            "completions": len(found) if len(found) < 2 else ">=2"}
                        if found:
                            witness["examples"] = [word_json(total, w)
                                                   for w in found[:2]]
                        return CheckResult("H1 (oracle)", Status.FAIL,
                                           witness, params)
    return CheckResult("H1 (oracle)", Status.PASS, params=params)


# ---------------------------------------------------------------------------
# (H2)
# ---------------------------------------------------------------------------

def _reach(steps: list[int], a: int) -> int:
    """Mask of the letters reached from a by paths of length >= 0."""
    seen = todo = 1 << a
    while todo:
        b = todo.bit_length() - 1
        todo ^= 1 << b
        new = steps[b] & ~seen
        seen |= new
        todo |= new
    return seen


def check_h2(ts: TileSystem) -> CheckResult:
    """Irreducibility of the combined transition graph.

    The graph has a vertex per letter and an edge a -> b whenever some
    direction allows the step.  Pass means every ordered pair of letters is
    joined by a path of positive length; a fail reports the partition into
    strongly connected components, ordered by their first letters.  The
    component of a letter is the mask of letters it reaches AND the mask of
    letters reaching it, over the union of the directions' letter masks.
    """
    n = ts.n_letters
    succ = [0] * n
    pred = [0] * n
    for j in range(1, ts.rank + 1):
        for a in range(n):
            succ[a] |= ts.successor_mask(j, a)
            pred[a] |= ts.predecessor_mask(j, a)
    components = []
    unassigned = (1 << n) - 1
    while unassigned:
        a = (unassigned & -unassigned).bit_length() - 1
        component = _reach(succ, a) & _reach(pred, a)
        components.append(component)
        unassigned &= ~component
    if len(components) == 1 and (n > 1 or succ[0]):
        return CheckResult("H2", Status.PASS)
    return CheckResult("H2", Status.FAIL,
                       {"components": [_names(ts, c) for c in components]})


# ---------------------------------------------------------------------------
# (H3*) via the fiber-set fixed point
# ---------------------------------------------------------------------------

H3_STAR_CAP = 100_000  # fiber sets an (H3*) run may find before it reports cap-hit


class FiberFamily(_Value):
    """All distinct direction-j extension fiber sets, grouped by origin.

    For a word w whose shape has component zero in direction j, its fiber is
    the set of letters that extensions of w one unit in direction j can place
    at e_j, held as an int mask (bit a set for letter a).
    ``sets_by_origin[c]`` lists, in discovery order, every fiber mask
    realised by words with origin c; ``provenance`` remembers for each
    (origin, fiber mask) the staircase that produced it so witnesses can be
    rebuilt as actual words.
    """

    __slots__ = ("direction", "sets_by_origin", "provenance")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # mutable

    def __init__(self, direction: int, sets_by_origin: dict[int, list[int]],
                 provenance: dict[tuple[int, int], tuple]):
        _Value.__init__(self, direction, sets_by_origin, provenance)

    def all_sets(self) -> Iterator[tuple[int, int]]:
        for c in sorted(self.sets_by_origin):
            for s in self.sets_by_origin[c]:
                yield c, s

    def witness_path(self, origin: int, fiber: int) -> list[tuple[int, int]]:
        """The (direction, letter) staircase generating a recorded fiber."""
        steps = []
        key = (origin, fiber)
        while True:
            step, parent = self.provenance[key]
            if step is None:
                return steps
            steps.append(step)
            key = parent


def check_h3_star(ts: TileSystem, j: int, max_sets: int = H3_STAR_CAP
                  ) -> tuple[CheckResult, FiberFamily]:
    """Decide (H3*) in direction j by the fiber-set fixed point.

    Seeds with the fiber of every single letter, its direction-j successor
    mask, then closes under the transfer rule along unit steps in every
    other direction: the step c_new -> c in direction k followed by a word
    with fiber F gives the direction-j successors a of c_new whose
    direction-k successor mask meets F.  Pass iff every discovered fiber has
    at least two letters; a fail reports the first small fiber together
    with the word generating it.  Termination is guaranteed (finitely many
    subsets), but ``max_sets`` caps runaway growth on large alphabets and a
    cap hit is reported as its own status.  Both checks run as each new
    fiber is recorded.
    """
    check_direction(ts.rank, j)
    check_floor(max_sets, 1, "max_sets")
    params = {"direction": j, "max_sets": max_sets}
    family = FiberFamily(j, {c: [] for c in range(ts.n_letters)}, {})
    provenance = family.provenance
    queue: list[tuple[int, int]] = []

    def insert(c, fiber, step, parent):
        """Record a new (origin, fiber); the result that ends the run, if any."""
        if (c, fiber) in provenance:
            return None
        family.sets_by_origin[c].append(fiber)
        provenance[(c, fiber)] = (step, parent)
        queue.append((c, fiber))
        if not fiber & (fiber - 1):
            word = word_from_path(ts, c, family.witness_path(c, fiber))
            witness = {"origin": ts.alphabet.name(c),
                       "fiber": sorted(_names(ts, fiber)),
                       "word": _word_json(ts, word)}
            return CheckResult(f"H3* (j={j})", Status.FAIL, witness, params)
        if len(provenance) > max_sets:
            return CheckResult(f"H3* (j={j})", Status.CAP_HIT,
                               {"sets_discovered": len(provenance)}, params)
        return None

    for c in range(ts.n_letters):
        end = insert(c, ts.successor_mask(j, c), None, None)
        if end is not None:
            return end, family
    # the queue grows while it is walked: breadth-first over new fibers
    for c, fiber in queue:
        for k in range(1, ts.rank + 1):
            if k == j:
                continue
            for c_new in ts.predecessors(k, c):
                t = sum(1 << a for a in ts.successors(j, c_new)
                        if ts.successor_mask(k, a) & fiber)
                end = insert(c_new, t, (k, c), (c, fiber))
                if end is not None:
                    return end, family
    return CheckResult(f"H3* (j={j})", Status.PASS, params=params), family


# ---------------------------------------------------------------------------
# bounded (H3) search
# ---------------------------------------------------------------------------

def nonperiodic_witness(ts: TileSystem, p: Translate) -> Optional[Word]:
    """First word (canonical order) of any shape that is not p-periodic.

    One grid search, at shape |p|, decides it, and translates that share |p|
    share that search (:func:`_first_nonperiodic`).  Only shapes l >= |p| can
    carry a witness, as smaller boxes have empty overlap with their
    p-translate.  A word of shape l that differs at x and x + p restricts, on
    the box spanned by those two cells, to a word of shape |p| that differs at
    two of its corners; and |p| is the first shape in canonical order
    dominating |p|.  So the first witness of any shape is the first of shape
    |p|, and None means every word is p-periodic.
    """
    return _first_nonperiodic(ts, [p]).get(p)


def _first_nonperiodic(ts: TileSystem, ps: list[Translate]) -> dict[Translate, Word]:
    """The first word of shape |p| that is not p-periodic, per p of ps, which
    share |p|: one grid search tests each word against the p still open and
    stops once none is.  A p whose every word is p-periodic has no entry."""
    first: dict[Translate, Word] = {}
    for w in words_of_shape(ts, absv(ps[0])):
        for p in ps:
            if p not in first and not is_periodic(w, p):
                first[p] = w
        if len(first) == len(ps):
            break
    return first


def _h3_bounds(ts: TileSystem, p_bound: Shape) -> Shape:
    """The p bound of a bounded (H3) search, checked; see :func:`check_h3_bounded`."""
    p_bound = check_shape(ts, p_bound, "p bound")
    check_floor(max(p_bound), 1, f"p bound {p_bound} admits no translate p != 0; "
                                 f"its largest component")
    return p_bound


def _h3_search(ts: TileSystem, p_bound: Shape
               ) -> tuple[dict[Translate, Word], list[Translate]]:
    """Witnesses by canonical p with |p| <= p_bound, and the p left without, in
    translate_reps order, which sorts by |p|: one search per run of equal |p|."""
    found, missing = {}, []
    for _, run in groupby(translate_reps(p_bound), key=absv):
        ps = list(run)
        first = _first_nonperiodic(ts, ps)
        found.update((p, first[p]) for p in ps if p in first)
        missing += [p for p in ps if p not in first]
    return found, missing


def check_h3_bounded(ts: TileSystem, p_bound: Shape) -> CheckResult:
    """Search for a non-p-periodic word for every p with |p| <= p_bound.

    p ranges over representatives modulo p <-> -p (periodicity is symmetric).
    Each p is decided by one search at shape |p|, which the translates sharing
    |p| share (see :func:`nonperiodic_witness`).  Bounded-pass lists one
    witness per p; a fail lists the p for which every word, of any shape, is
    p-periodic, so (H3) fails.  An all-zero p_bound, which admits no p, raises
    :class:`ValueError`, as does a bad rank or a negative component.
    """
    p_bound = _h3_bounds(ts, p_bound)
    params = {"p_bound": list(p_bound)}
    found, missing = _h3_search(ts, p_bound)
    if missing:
        return CheckResult("H3 (bounded)", Status.FAIL,
                           {"no_witness_for": [list(p) for p in missing],
                            "note": "every word is p-periodic for these p, "
                                    "so (H3) fails"},
                           params)
    return CheckResult("H3 (bounded)", Status.BOUNDED_PASS,
                       {"witnesses": {",".join(map(str, p)): _word_json(ts, w)
                                      for p, w in found.items()}}, params)


def h3_bounded_witnesses(ts: TileSystem, p_bound: Shape) -> dict[Translate, Word]:
    """Witness words per canonical p, raising if any p has none."""
    found, missing = _h3_search(ts, _h3_bounds(ts, p_bound))
    if missing:
        raise WitnessSearchError(
            f"no non-periodic witness for translates {missing}: every word is "
            f"p-periodic for these p, so (H3) fails")
    return found


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def verify_report(ts: TileSystem,
                  h1_oracle_bound: Shape | None = None,
                  h3_p_bound: Shape | None = None,
                  h3_star_cap: int = H3_STAR_CAP) -> VerificationReport:
    """Run every check and aggregate the results.

    The (H3*) and bounded (H3) machinery is only meaningful when the local
    product conditions hold, so those checks are marked skipped when
    (H1a)-(H1c) fail.  Defaults, for a bound left as None: oracle bound
    (2,...,2) and p bound (2,...,2).  Any other bound, () too, raises if
    invalid, the p bound and the (H3*) cap before any check runs.
    """
    r = ts.rank
    h1_oracle_bound = (2,) * r if h1_oracle_bound is None else h1_oracle_bound
    h3_p_bound = _h3_bounds(ts, (2,) * r if h3_p_bound is None else h3_p_bound)
    check_floor(h3_star_cap, 1, "h3_star_cap")

    checks = [check_h0(ts)]
    h1 = check_h1_local(ts)
    checks.append(h1)
    checks.append(check_h1_oracle(ts, h1_oracle_bound))
    checks.append(check_h2(ts))
    if h1.ok:
        for j in range(1, r + 1):
            result, _ = check_h3_star(ts, j, max_sets=h3_star_cap)
            checks.append(result)
        checks.append(check_h3_bounded(ts, h3_p_bound))
    else:
        for j in range(1, r + 1):
            checks.append(CheckResult(f"H3* (j={j})", Status.SKIPPED,
                                      {"reason": "(H1a)-(H1c) failed"}))
        checks.append(CheckResult("H3 (bounded)", Status.SKIPPED,
                                  {"reason": "(H1a)-(H1c) failed"}))
    return VerificationReport(tuple(checks))
