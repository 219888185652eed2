"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; timing
budgets are asserted where stated.
"""

import itertools
import random
import time

import pytest

from rankshift import (
    DecorationMap,
    connect,
    distinct_pair,
    nonperiodic_all,
    projection_support,
    restrict,
    separate_translates,
    separating_family,
)
from rankshift.af_core import bratteli, dim_vector
from rankshift.builders import random_system
from rankshift.completion import (
    extend_unit,
    letter_word,
    list_extensions,
    product,
)
from rankshift.core import (
    add,
    box_cells,
    dominates,
    is_periodic,
    neg,
    translate_reps,
    translates_agree,
    unit,
    zero,
)
from rankshift.verify import (
    Status,
    check_h1_local,
    check_h1_oracle,
    check_h2,
    check_h3_bounded,
    check_h3_star,
)
from conftest import decorated_words_of_shape
from test_fiber_oracle import fiber_transfer_round


def _report(number, name, ok, elapsed=None):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_h1_oracle_equivalence(gm2, fs2, jj):
    start = time.monotonic()
    rng = random.Random(0xC0FFEE)
    systems = [gm2, fs2, jj]
    for _ in range(200):
        systems.append(random_system(rng, rng.choice([2, 3, 4]), 2))
    disagreements = []
    for i, ts in enumerate(systems):
        local = check_h1_local(ts).ok
        oracle = check_h1_oracle(ts, (2, 2)).ok
        if local != oracle:
            disagreements.append((i, local, oracle))
    elapsed = time.monotonic() - start
    ok = not disagreements and elapsed < 30.0
    _report(1, "H1 local/oracle equivalence on 203 systems", ok, elapsed)


def test_criterion_2_count_recursion(gm2, fs2):
    start = time.monotonic()
    ok = True
    for ts in (gm2, fs2):
        dmap = DecorationMap.identity(ts.alphabet)
        for m in box_cells((4, 4)):
            counts = [0] * ts.n_letters
            for dw in decorated_words_of_shape(ts, dmap, m):
                counts[dw.word.terminus] += 1
            if dim_vector(ts, dmap, m) != tuple(counts):
                ok = False
    d_gm2 = dim_vector(gm2, DecorationMap.identity(gm2.alphabet), (1, 1))
    d_fs2 = dim_vector(fs2, DecorationMap.identity(fs2.alphabet), (1, 1))
    ok = ok and d_gm2 == (4, 2, 2, 1) and sum(d_gm2) == 9 and sum(d_fs2) == 16
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(2, "count recursion vs enumeration up to (4,4)", ok, elapsed)


def test_criterion_3_h3_star_behaviour(gm2, fs2):
    start = time.monotonic()
    ok = True
    for j in (1, 2):
        result, family = check_h3_star(fs2, j)
        ok = ok and result.status is Status.PASS
        ok = ok and fiber_transfer_round(fs2, family) == []
    result, _ = check_h3_star(gm2, 2)
    ok = ok and result.status is Status.FAIL
    ok = ok and len(result.witness["fiber"]) == 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    _report(3, "H3* passes on the full pair and fails on the squared "
               "golden mean", ok, elapsed)


def test_criterion_4_h3_star_implies_bounded_h3(corpus):
    start = time.monotonic()
    ok = True
    tested = 0
    for name, ts in corpus:
        star = [check_h3_star(ts, j)[0].status is Status.PASS
                for j in range(1, ts.rank + 1)]
        if not all(star):
            continue
        tested += 1
        p_bound = (3,) * ts.rank if ts.rank <= 2 else (1,) * ts.rank
        result = check_h3_bounded(ts, p_bound)
        if result.status is not Status.BOUNDED_PASS:
            ok = False
        else:
            expected = len(translate_reps(p_bound))
            ok = ok and len(result.witness["witnesses"]) == expected
    ok = ok and tested >= 2  # at least the full shifts qualify
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report(4, f"bounded H3 witnesses for all p on {tested} H3*-passing "
               "systems", ok, elapsed)


@pytest.mark.parametrize("m", [(1, 1), (2, 2)])
def test_criterion_5_witness_contracts(fs2, gm2, m):
    start = time.monotonic()
    ok = True
    for ts in (fs2, gm2):
        n = ts.n_letters
        # connect: endpoints and shape bound
        for a, b in itertools.product(range(n), repeat=2):
            w = connect(ts, a, b, m)
            ok = ok and w.origin == a and w.terminus == b \
                and dominates(w.shape, m)
        # distinct pair
        u, v = distinct_pair(ts)
        ok = ok and u != v and u.shape == v.shape and u.origin == v.origin
        # nonperiodic words, every p scanned both signs
        for a in range(n):
            w = nonperiodic_all(ts, m, a)
            ok = ok and w.origin == a
            for p in translate_reps(m):
                ok = ok and not is_periodic(w, p) and not is_periodic(w, neg(p))
        # separating translates from equal starting words
        seed = letter_word(ts.rank, 0)
        for p in translate_reps(m):
            w1p, w2p = separate_translates(ts, p, seed, seed)
            ok = ok and w1p.shape == w2p.shape
            ok = ok and restrict(w1p, zero(ts.rank), zero(ts.rank)) == seed
            ok = ok and not translates_agree(w2p, w1p, p)
        # the family: exhaustive (a, b, p) disagreement loop
        l, family = separating_family(ts, m)
        for a in range(n):
            ok = ok and family[a].shape == l and family[a].origin == a
            for b in range(n):
                for q in translate_reps(m):
                    for p in (q, neg(q)):
                        ok = ok and not translates_agree(family[a], family[b], p)
    elapsed = time.monotonic() - start
    _report(5, f"witness contracts at m={m}", ok, elapsed)


def test_criterion_6_projection_support_refinement(fs2):
    start = time.monotonic()
    dmap = DecorationMap.identity(fs2.alphabet)
    m = (1, 1)
    l, family = separating_family(fs2, m)
    base = projection_support(fs2, dmap, m, l, family)
    ok = len(base) > 0
    for j in (1, 2):
        total = add(add(m, l), unit(2, j))
        refined = projection_support(fs2, dmap, m, l, family, total=total)
        extensions = {dw2 for dw in base
                      for _, dw2 in list_extensions(fs2, dw, unit(2, j))}
        ok = ok and set(refined) == extensions
        ok = ok and len(refined) == len(extensions)
    elapsed = time.monotonic() - start
    _report(6, "projection support refines by unit extensions", ok, elapsed)


def test_criterion_7_bratteli_consistency(corpus, gm):
    start = time.monotonic()
    ok = True
    for name, ts in corpus:
        if ts.rank < 2:
            continue
        upto = (3,) * ts.rank if ts.rank == 2 else (2,) * ts.rank
        dmap = DecorationMap.identity(ts.alphabet)
        diagram = bratteli(ts, dmap, upto)
        n = ts.n_letters
        for cell in box_cells(upto):
            for i in range(1, ts.rank + 1):
                for j in range(i + 1, ts.rank + 1):
                    target = add(add(cell, unit(ts.rank, i)), unit(ts.rank, j))
                    if not dominates(upto, target):
                        continue
                    mi, mj = ts.matrices[i - 1], ts.matrices[j - 1]
                    via_i = [[sum(mj[b][c] * mi[c][a] for c in range(n))
                              for a in range(n)] for b in range(n)]
                    via_j = [[sum(mi[b][c] * mj[c][a] for c in range(n))
                              for a in range(n)] for b in range(n)]
                    ok = ok and via_i == via_j
                    # and the node dimensions agree along both paths
                    d = diagram.dims(cell)
                    lhs = [sum(via_i[b][a] * d[a] for a in range(n))
                           for b in range(n)]
                    ok = ok and tuple(lhs) == diagram.dims(target)
    chain = bratteli(gm, DecorationMap.identity(gm.alphabet), (2,))
    ok = ok and [chain.dims(m) for m in chain.levels()] == \
        [(1, 1), (2, 1), (3, 2)]
    elapsed = time.monotonic() - start
    _report(7, "commuting squares up to (3,3) and the golden mean chain",
            ok, elapsed)


def test_criterion_8_associativity_and_roundtrips(corpus):
    start = time.monotonic()
    rng = random.Random(0xBEEF)
    ok = True
    for name, ts in corpus:
        for _ in range(1000):
            u = _random_word(ts, rng, rng.randrange(ts.n_letters))
            v = _random_word(ts, rng, u.terminus)
            w = _random_word(ts, rng, v.terminus)
            uv_w = product(ts, product(ts, u, v), w)
            u_vw = product(ts, u, product(ts, v, w))
            ok = ok and uv_w == u_vw
            uv = product(ts, u, v)
            ok = ok and restrict(uv, zero(ts.rank), u.shape) == u
            ok = ok and restrict(uv, u.shape, uv.shape) == v
            if not ok:
                break
    elapsed = time.monotonic() - start
    _report(8, "associativity and restriction round-trips on 1000 triples "
               "per system", ok, elapsed)


def test_criterion_9_negative_fixtures(jj, identity2, single):
    start = time.monotonic()
    h1 = check_h1_local(jj)
    ok = h1.status is Status.FAIL and h1.witness["kind"] == "H1b" \
        and h1.witness["value"] == 2
    h2 = check_h2(identity2)
    ok = ok and h2.status is Status.FAIL \
        and len(h2.witness["components"]) == 2
    h3 = check_h3_bounded(single, (1,))
    ok = ok and h3.status is Status.FAIL \
        and h3.witness["no_witness_for"] == [[1]]
    elapsed = time.monotonic() - start
    _report(9, "negative fixtures report the expected witnesses", ok, elapsed)


def _random_word(ts, rng, origin):
    w = letter_word(ts.rank, origin)
    for _ in range(rng.randrange(0, 3)):
        j = rng.randrange(1, ts.rank + 1)
        succ = ts.successors(j, w.terminus)
        if not succ:
            break
        w = extend_unit(ts, w, j, rng.choice(succ))
    return w
