"""Brute-force validation of the extension-fiber fixed point.

The fiber of a word w in direction j is computed two independent ways: by
exhaustive grid enumeration of one-layer extensions, and by the transfer
fixed point.  On a completed (passing) run the two must tell the same
story in both directions: every real word's fiber appears in the family,
and every family entry is the true fiber of its recorded witness word.
"""

import random

import pytest

from rankshift import tensor
from rankshift.builders import full_shift, golden_mean, random_system
from rankshift.completion import (
    iter_grid_completions,
    word_from_path,
    words_of_shape,
)
from rankshift.core import Word, add, compositions, unit, zero
from rankshift.verify import (
    FiberFamily,
    Status,
    check_h0,
    check_h1_local,
    check_h3_star,
)


def brute_fiber(ts, j, w):
    """Mask of the letters that one-layer direction-j extensions of w place at e_j."""
    total = add(w.shape, unit(ts.rank, j))
    placed = [(zero(ts.rank), w)]
    letters = {Word(total, cells).at(unit(ts.rank, j))
               for cells in iter_grid_completions(ts, total, placed)}
    return sum(1 << a for a in letters)


def fiber_transfer_round(ts, family):
    """One transfer round over the family, from matrix entries alone.

    Returns the (origin, fiber) pairs the round reaches that the family
    lacks, sorted; an empty list certifies that the family is a fixed point.
    The fiber of the step c_new -> c in direction k followed by a word with
    fiber F holds the direction-j successors a of c_new that step to some
    b in F in direction k.  Fibers are masks: bit a is set for letter a.
    """
    j = family.direction
    known = set(family.all_sets())
    letters = range(ts.n_letters)
    new = set()
    for c, fiber in known:
        for k in range(1, ts.rank + 1):
            if k == j:
                continue
            for c_new in letters:
                if not ts.transition(k, c_new, c):
                    continue
                pair = (c_new, sum(
                    1 << a for a in letters if ts.transition(j, c_new, a)
                    and any(ts.transition(k, a, b)
                            for b in letters if fiber >> b & 1)))
                if pair not in known:
                    new.add(pair)
    return sorted(new, key=lambda p: (p[0], [a for a in letters if p[1] >> a & 1]))


def test_transfer_round_reports_a_family_that_is_not_closed(fs2):
    result, family = check_h3_star(fs2, 1)
    assert result.status is Status.PASS and fiber_transfer_round(fs2, family) == []
    wrong = FiberFamily(1, {**family.sets_by_origin, 0: [1 << 0]}, {})
    assert (0, family.sets_by_origin[0][0]) in fiber_transfer_round(fs2, wrong)


def assert_family_matches_brute_force(ts, max_grade=3):
    for j in range(1, ts.rank + 1):
        result, family = check_h3_star(ts, j)
        assert result.status is not Status.CAP_HIT
        discovered = {(c, s) for c, sets_ in family.sets_by_origin.items()
                      for s in sets_}
        # every family entry is the true fiber of its recorded witness word
        for c, s in discovered:
            witness = word_from_path(ts, c, family.witness_path(c, s))
            assert brute_fiber(ts, j, witness) == s
        if result.status is not Status.PASS:
            continue  # family is partial on fail-fast runs
        # every real word's fiber (bounded sizes) appears in the family
        for grade in range(0, max_grade + 1):
            for shape in compositions(grade, ts.rank):
                if shape[j - 1] != 0:
                    continue
                for w in words_of_shape(ts, shape):
                    assert (w.origin, brute_fiber(ts, j, w)) in discovered


@pytest.mark.parametrize("build", [
    golden_mean,
    lambda: full_shift(2),
    lambda: full_shift(3),
    lambda: tensor([golden_mean()] * 2),
    lambda: tensor([full_shift(2)] * 2),
    lambda: tensor([golden_mean(), full_shift(2)]),
    lambda: tensor([full_shift(2)] * 3),
])
def test_fiber_family_matches_brute_force_fixtures(build):
    ts = build()
    assert_family_matches_brute_force(
        ts, max_grade=2 if ts.rank == 3 else 3)


def test_fiber_family_matches_brute_force_randomized():
    rng = random.Random(2024)
    checked = 0
    for _ in range(120):
        ts = random_system(rng, rng.choice([2, 3]), 2)
        if not (check_h1_local(ts).ok and check_h0(ts).ok):
            continue
        assert_family_matches_brute_force(ts, max_grade=3)
        checked += 1
    assert checked >= 3
