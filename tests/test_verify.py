import itertools
import os
import random
from collections import Counter
from operator import itemgetter

import pytest

from rankshift import (Alphabet, TileSystem, WitnessSearchError, load_system,
                       validate_word, verify)
from rankshift.builders import from_rank1, random_system
from rankshift.completion import iter_grid_completions, words_of_shape
from rankshift.core import (
    absv,
    box_cells,
    box_offsets,
    dominates,
    is_periodic,
    is_zero,
    shape_key,
    shapes_upto,
    sub,
    translate_reps,
    zero,
)
from rankshift.verify import (
    Status,
    check_h0,
    check_h1_local,
    check_h1_oracle,
    check_h2,
    check_h3_bounded,
    check_h3_star,
    h3_bounded_witnesses,
    nonperiodic_witness,
    verify_report,
)
from rankshift.witnesses import nonperiodic_all
from conftest import circulant
from test_fiber_oracle import fiber_transfer_round

SAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "samples")


# --- (H0) ------------------------------------------------------------------

def test_h0_pass(gm, fs2):
    assert check_h0(gm).status is Status.PASS
    assert check_h0(fs2).status is Status.PASS


def test_h0_zero_matrix_fail():
    ts = TileSystem(Alphabet("01"), [[[1, 1], [1, 0]], [[0, 0], [0, 0]]])
    result = check_h0(ts)
    assert result.status is Status.FAIL
    assert result.witness == {"direction": 2}


# --- (H1a)-(H1c) -------------------------------------------------------------

def test_h1_local_gm2(gm2):
    assert check_h1_local(gm2).status is Status.PASS


def test_h1_local_jj_fails_with_entry_2(jj):
    result = check_h1_local(jj)
    assert result.status is Status.FAIL
    assert result.witness["kind"] == "H1b"
    assert result.witness["value"] == 2
    # the witness recomputes: sum over c of M1(b,c) M2(c,a)
    b = jj.alphabet.resolve(result.witness["b"])
    a = jj.alphabet.resolve(result.witness["a"])
    recomputed = sum(jj.matrices[0][b][c] * jj.matrices[1][c][a]
                     for c in range(jj.n_letters))
    assert recomputed == 2


def test_h1_local_rank1_vacuous(gm):
    assert check_h1_local(gm).status is Status.PASS


def test_h1_local_noncommuting_fail():
    m1 = [[0, 0], [1, 0]]  # 0 -> 1 only
    m2 = [[0, 1], [0, 0]]  # 1 -> 0 only
    result = check_h1_local(TileSystem(Alphabet("01"), [m1, m2]))
    assert result.status is Status.FAIL
    assert result.witness["kind"] == "H1a"


def test_h1c_checked_on_rank3():
    # all-ones in three directions: already H1b fails; build one where only
    # the triple product overflows
    full = [[1]]
    ts = TileSystem(Alphabet(["a"]), [full, full, full])
    assert check_h1_local(ts).status is Status.PASS


def _mat_vec(mat, v):
    return tuple(sum(row[a] * v[a] for a in range(len(v))) for row in mat)


def _dense_h1_local(ts):
    """check_h1_local(ts).to_json() by dense matrix products, in its scan order."""
    n = ts.n_letters
    names = ts.alphabet.letters
    mats = ts.matrices
    cols = [tuple(zip(*m)) for m in mats]

    def fail(witness):
        return {"condition": "H1a-c", "status": "fail", "params": {},
                "witness": witness}

    for i in range(1, ts.rank + 1):
        for j in range(i + 1, ts.rank + 1):
            pij = [_mat_vec(cols[j - 1], row) for row in mats[i - 1]]
            pji = [_mat_vec(cols[i - 1], row) for row in mats[j - 1]]
            for b in range(n):
                for a in range(n):
                    if pij[b][a] != pji[b][a]:
                        return fail({"kind": "H1a", "i": i, "j": j,
                                     "b": names[b], "a": names[a],
                                     "values": [pij[b][a], pji[b][a]]})
                    if pij[b][a] > 1:
                        return fail({"kind": "H1b", "i": i, "j": j,
                                     "b": names[b], "a": names[a],
                                     "value": pij[b][a]})
            for k in range(j + 1, ts.rank + 1):
                pijk = [_mat_vec(cols[k - 1], row) for row in pij]
                for b in range(n):
                    for a in range(n):
                        if pijk[b][a] > 1:
                            return fail({"kind": "H1c", "i": i, "j": j, "k": k,
                                         "b": names[b], "a": names[a],
                                         "value": pijk[b][a]})
    return {"condition": "H1a-c", "status": "pass", "params": {}}


def test_h1_local_matches_dense_products():
    """Same status and witness as dense M_i M_j and M_i M_j M_k products.

    Random draws almost never get past (H1a)/(H1b) to (H1c), so rank-3
    circulants, whose matrices commute, cover it; about three in ten have one
    entry flipped.
    """
    rng = random.Random(0x5A1)
    kinds = []
    for _ in range(1200):
        ts = random_system(rng, rng.randint(1, 6), rng.randint(1, 3),
                           density=rng.choice([0.1, 0.2, 0.3, 0.5, 0.7]))
        got = check_h1_local(ts).to_json()
        assert got == _dense_h1_local(ts), ts.matrices
        kinds.append(got.get("witness", {}).get("kind"))
    for _ in range(900):
        n = rng.randint(3, 12)
        gens = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(3)]
        ts = circulant(n, gens)
        if rng.random() < 0.3:
            mats = [[list(row) for row in m] for m in ts.matrices]
            j, b, a = rng.randrange(3), rng.randrange(n), rng.randrange(n)
            mats[j][b][a] ^= 1
            ts = TileSystem(ts.alphabet, mats)
        got = check_h1_local(ts).to_json()
        assert got == _dense_h1_local(ts), (n, gens)
        kinds.append(got.get("witness", {}).get("kind"))
    for kind in (None, "H1a", "H1b", "H1c"):
        assert kinds.count(kind) >= 50, (kind, kinds.count(kind))


def test_h1_local_reports_h1a_before_h1b_at_one_entry():
    # (M_1 M_2)(0, 0) = 2 and (M_2 M_1)(0, 0) = 1: both (H1a) and (H1b) fail
    # at the first entry, and (H1a) is the one reported
    m1 = [[1, 1], [1, 1]]
    m2 = [[1, 0], [1, 0]]
    ts = TileSystem(Alphabet("01"), [m1, m2])
    expected = {"kind": "H1a", "i": 1, "j": 2, "b": "0", "a": "0",
                "values": [2, 1]}
    assert check_h1_local(ts).witness == expected
    assert _dense_h1_local(ts)["witness"] == expected


# --- (H1) oracle -------------------------------------------------------------

def test_h1_oracle_gm2(gm2):
    assert check_h1_oracle(gm2, (2, 2)).status is Status.PASS


def test_h1_oracle_jj_two_completions(jj):
    result = check_h1_oracle(jj, (1, 1))
    assert result.status is Status.FAIL
    assert result.witness["completions"] == ">=2"
    # both examples are valid words extending the same pair
    w1, w2 = result.witness["examples"]
    assert w1 != w2
    for w in (w1, w2):
        validate_word(jj, w["cells"], shape=w["shape"])


def test_h1_oracle_rank1_always_passes(gm, full2):
    assert check_h1_oracle(gm, (4,)).status is Status.PASS
    assert check_h1_oracle(full2, (4,)).status is Status.PASS


def test_h1_oracle_agrees_with_local_on_commuting_pair():
    # direction 1 is the identity (0->0, 1->1) and direction 2 allows 0->1
    # only, so M_1 M_2 = M_2 M_1 = M_2 has 0/1 entries: (H1a)-(H1c) hold
    # and the oracle must pass as well.
    m1 = [[1, 0], [0, 1]]
    m2 = [[0, 0], [1, 0]]
    ts = TileSystem(Alphabet("01"), [m1, m2])
    local = check_h1_local(ts)
    oracle = check_h1_oracle(ts, (2, 2))
    assert local.ok == oracle.ok


def test_h1_oracle_zero_completion_witness():
    # 0 -e1-> 1 and 1 -e2-> 0 only: the pair (1 -e2-> 0, 0 -e1-> 1) needs a
    # direction-1 successor of 1 at cell (1, 0), and there is none
    m1 = [[0, 0], [1, 0]]
    m2 = [[0, 1], [0, 0]]
    result = check_h1_oracle(TileSystem(Alphabet("01"), [m1, m2]), (1, 1))
    assert result.status is Status.FAIL
    assert result.witness == {
        "u": {"shape": [0, 1], "cells": ["1", "0"]},
        "v": {"shape": [1, 0], "cells": ["0", "1"]},
        "split": [0, 1], "total": [1, 1], "completions": 0,
    }


def _reference_h1_oracle(ts, shape_bound):
    """check_h1_oracle(...).to_json() by one fixed-cell search per pair."""

    def word_json(shape, letters):
        return {"shape": list(shape),
                "cells": [ts.alphabet.name(a) for a in letters]}

    params = {"shape_bound": list(shape_bound)}
    for total in shapes_upto(shape_bound):
        for m in box_cells(total):
            n = sub(total, m)
            if is_zero(m) or is_zero(n):
                continue
            by_origin = {}
            for v in words_of_shape(ts, n):
                by_origin.setdefault(v.origin, []).append(v)
            for u in words_of_shape(ts, m):
                for v in by_origin.get(u.terminus, ()):
                    found = list(itertools.islice(iter_grid_completions(
                        ts, total, [(zero(ts.rank), u), (m, v)]), 2))
                    if len(found) == 1:
                        continue
                    witness = {
                        "u": word_json(m, u.letters),
                        "v": word_json(n, v.letters),
                        "split": list(m), "total": list(total),
                        "completions": len(found) if len(found) < 2 else ">=2",
                    }
                    if found:
                        witness["examples"] = [word_json(total, g) for g in found]
                    return {"condition": "H1 (oracle)", "status": "fail",
                            "params": params, "witness": witness}
    return {"condition": "H1 (oracle)", "status": "pass", "params": params}


def test_h1_oracle_matches_per_pair_search():
    rng = random.Random(0x5EED)
    kinds = []
    for rank, bound, sizes in [(2, (2, 2), [2, 3, 4]), (3, (1, 1, 1), [2, 3])]:
        for _ in range(100):
            ts = random_system(rng, rng.choice(sizes), rank,
                               density=rng.choice([0.3, 0.5, 0.7]))
            got = check_h1_oracle(ts, bound).to_json()
            assert got == _reference_h1_oracle(ts, bound)
            kinds.append(got.get("witness", {}).get("completions"))
    # mostly failing systems, with both kinds of witness
    assert kinds.count(None) < len(kinds) // 4
    assert kinds.count(0) >= 20 and kinds.count(">=2") >= 20


def test_h1_oracle_searches_each_shape_once(monkeypatch, fs3):
    searched = []

    def counting(ts, shape, fixed=(), form=tuple):
        searched.append(tuple(shape))
        return iter_grid_completions(ts, shape, fixed, form=form)

    monkeypatch.setattr(verify, "iter_grid_completions", counting)
    assert check_h1_oracle(fs3, (2, 2, 2)).status is Status.PASS
    assert searched == shapes_upto((2, 2, 2))
    assert len(searched) == 27


def _former_h1_oracle(ts, shape_bound):
    """The former check_h1_oracle(...).to_json(): every split by its full
    restriction pairs, with no staircase test."""
    params = {"shape_bound": list(shape_bound)}
    grids_of, starts, ends = {}, {}, {}

    def word_json(shape, text):
        return {"shape": list(shape), "cells": [ts.alphabet.name(ord(a)) for a in text]}

    for total in shapes_upto(shape_bound):
        grids = ["".join(map(chr, w)) for w in iter_grid_completions(ts, total)]
        grids_of[total] = grids
        starts[total] = Counter(w[0] for w in grids)
        ends[total] = Counter(w[-1] for w in grids)
        for m in box_cells(total):
            if not 0 < sum(m) < sum(total):
                continue
            n = sub(total, m)
            pair_of = itemgetter(*box_offsets(total, zero(ts.rank), m),
                                 *box_offsets(total, m, total))
            keys = list(map("".join, map(pair_of, grids)))
            composable = sum(k * starts[n][c] for c, k in ends[m].items())
            if len(set(keys)) == len(grids) == composable:
                continue
            extensions = {}
            for key, w in zip(keys, grids):
                extensions.setdefault(key, []).append(w)
            by_origin = {}
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
                        return {"condition": "H1 (oracle)", "status": "fail",
                                "params": params, "witness": witness}
    return {"condition": "H1 (oracle)", "status": "pass", "params": params}


def _composable(ts, m, n):
    """The number of composable pairs (u, v) of shapes m and n."""
    ends = Counter(u.terminus for u in words_of_shape(ts, m))
    return sum(ends[v.origin] for v in words_of_shape(ts, n))


def _walked_splits(ts, shape_bound, stop):
    """Splits before stop = (total, m), the oracle's failing split if any, in
    the oracle's order, whose words number as many as their composable pairs
    but repeat letters along every staircase 0 -> m -> total: no staircase
    test can pass them, so the oracle would walk their pairs."""
    walked = 0
    for total in shapes_upto(shape_bound):
        words = list(words_of_shape(ts, total))
        for m in box_cells(total):
            n = sub(total, m)
            if is_zero(m) or is_zero(n) or (stop and (shape_key(total), m) >= stop):
                continue
            if _composable(ts, m, n) != len(words):
                continue
            steps = [k for k in range(ts.rank) for _ in range(m[k])]
            rest = [k for k in range(ts.rank) for _ in range(n[k])]
            walks = {first + second for first in itertools.permutations(steps)
                     for second in itertools.permutations(rest)}
            if all(len({tuple(w.at(x) for x in _cells(walk, ts.rank)) for w in words})
                   < len(words) for walk in walks):
                walked += 1
    return walked


def _cells(walk, rank):
    """The cells of the staircase taking unit steps in the given directions."""
    x = [0] * rank
    cells = [tuple(x)]
    for k in walk:
        x[k] += 1
        cells.append(tuple(x))
    return cells


def test_h1_oracle_matches_the_former_all_splits_oracle(fs3):
    cases = [(load_system(os.path.join(SAMPLES, name))[0], bound)
             for name in sorted(os.listdir(SAMPLES)) for bound in (2, 3)]
    cases = [(ts, (bound,) * ts.rank) for ts, bound in cases]
    cases += [(fs3, (2, 2, 2)), (fs3, (2, 2, 1))]
    n_fixed = len(cases)
    rng = random.Random(0x5EED)
    for rank, bound, sizes in [(2, (2, 2), [2, 3, 4]), (3, (1, 1, 1), [2, 3])]:
        for _ in range(100):
            cases.append((random_system(rng, rng.choice(sizes), rank,
                                        density=rng.choice([0.3, 0.5, 0.7])), bound))
    kinds = Counter()
    walked = counts_match = 0
    for i, (ts, bound) in enumerate(cases):
        got = check_h1_oracle(ts, bound).to_json()
        assert got == _former_h1_oracle(ts, bound), (ts, bound)
        witness = got.get("witness")
        kinds[witness and witness["completions"]] += 1
        if witness:
            total, m = tuple(witness["total"]), tuple(witness["split"])
            n_words = sum(1 for _ in words_of_shape(ts, total))
            counts_match += i >= n_fixed and _composable(ts, m, sub(total, m)) == n_words
        if ts.rank > 1 and sum(bound) < 5:
            stop = witness and (shape_key(total), m)
            walked += _walked_splits(ts, bound, stop)
    assert kinds[0] >= 20 and kinds[">=2"] >= 20 and kinds[None] >= 10, kinds
    # random systems whose first failing split has matching counts: only its
    # staircase repeat, and then the pair walk, tells it from a pass
    assert counts_match >= 3, counts_match
    # the induction in check_h1_oracle's docstring: before the first failing
    # split no split has matching counts and a repeat on every staircase, so
    # the pair walk never runs on a split that passes
    assert walked == 0, walked


def test_h1_oracle_agreement_randomized():
    rng = random.Random(0xA5A5)
    for _ in range(60):
        ts = random_system(rng, rng.choice([2, 3, 4]), 2)
        assert check_h1_local(ts).ok == check_h1_oracle(ts, (2, 2)).ok


def test_h1_oracle_agreement_rank3_covers_h1c():
    rng = random.Random(777)
    h1c_seen = 0
    for _ in range(300):
        ts = random_system(rng, rng.choice([2, 3]), 3,
                           density=rng.choice([0.4, 0.6, 0.8]))
        local = check_h1_local(ts)
        assert local.ok == check_h1_oracle(ts, (1, 1, 1)).ok
        if local.status is Status.FAIL and local.witness.get("kind") == "H1c":
            h1c_seen += 1
    assert h1c_seen >= 1


# --- (H2) --------------------------------------------------------------------

def test_h2_pass(gm, fs2):
    assert check_h2(gm).status is Status.PASS
    assert check_h2(fs2).status is Status.PASS


def test_h2_identity_two_components(identity2):
    result = check_h2(identity2)
    assert result.status is Status.FAIL
    assert result.witness["components"] == [["0"], ["1"]]


def test_h2_single_letter_needs_self_loop(single):
    assert check_h2(single).status is Status.PASS
    bare = from_rank1(["a"], [[0]])
    assert check_h2(bare).status is Status.FAIL


def test_h2_mixed_directions_connect():
    # only the union of both directions is irreducible
    m1 = [[0, 0], [1, 0]]  # 0 -> 1
    m2 = [[0, 1], [0, 0]]  # 1 -> 0
    ts = TileSystem(Alphabet("01"), [m1, m2])
    assert check_h2(ts).status is Status.PASS


def reference_h2(ts):
    """(H2) result JSON from ``ts.transition`` alone.

    Each letter's reach (letters at the end of a path of positive length) is
    found by plain breadth-first search; the components are the classes of
    mutual reachability, each in declaration order, listed by first letter.
    """
    letters = range(ts.n_letters)
    directions = range(1, ts.rank + 1)

    def reached(a):
        seen, todo = set(), [a]
        while todo:
            b = todo.pop(0)
            for c in letters:
                if c not in seen and any(ts.transition(j, b, c) for j in directions):
                    seen.add(c)
                    todo.append(c)
        return seen

    reach = [reached(a) for a in letters]
    if all(len(r) == ts.n_letters for r in reach):
        return {"condition": "H2", "status": "pass", "params": {}}
    components = []
    for a in letters:
        if not any(a in c for c in components):
            components.append([b for b in letters
                               if b == a or (b in reach[a] and a in reach[b])])
    names = [[ts.alphabet.name(b) for b in c] for c in components]
    return {"condition": "H2", "status": "fail", "params": {},
            "witness": {"components": names}}


def test_h2_matches_reachability_reference():
    rng = random.Random(2026)
    n_components = []
    for _ in range(600):
        ts = random_system(rng, rng.randint(1, 13), rng.randint(1, 3),
                           rng.choice([0.05, 0.1, 0.2, 0.3, 0.5]))
        result = check_h2(ts).to_json()
        assert result == reference_h2(ts)
        n_components.append(len(result.get("witness", {}).get("components", [])))
    # passes, one-component fails and fails with several components all occur
    assert {0, 1, 2, 3} <= set(n_components) and max(n_components) >= 10


# --- (H3*) -------------------------------------------------------------------

def test_h3_star_fs2_passes_both_directions(fs2):
    for j in (1, 2):
        result, family = check_h3_star(fs2, j)
        assert result.status is Status.PASS
        for _, fiber in family.all_sets():
            assert fiber.bit_count() == 2
        assert fiber_transfer_round(fs2, family) == []


def test_h3_star_gm2_fails_direction_2(gm2):
    result, family = check_h3_star(gm2, 2)
    assert result.status is Status.FAIL
    assert len(result.witness["fiber"]) == 1
    # the singleton appears already at seeding: the generating word is a letter
    assert result.witness["word"]["shape"] == [0, 0]
    origin = result.witness["origin"]
    # seeding fiber of a letter: the direction-2 successors
    a = gm2.alphabet.resolve(origin)
    fiber = {gm2.alphabet.name(b) for b in gm2.successors(2, a)}
    assert sorted(fiber) == result.witness["fiber"]


def test_h3_star_rank1_seed_rule(gm, full2):
    result, _ = check_h3_star(gm, 1)
    assert result.status is Status.FAIL
    result, _ = check_h3_star(full2, 1)
    assert result.status is Status.PASS


def test_h3_star_cap_hit(fs2):
    result, _ = check_h3_star(fs2, 1, max_sets=1)
    assert result.status is Status.CAP_HIT


def test_h3_star_rejects_cap_below_one(fs2):
    with pytest.raises(ValueError, match="max_sets"):
        check_h3_star(fs2, 1, max_sets=0)


def test_h3_star_witness_word_revalidates(gm2):
    result, _ = check_h3_star(gm2, 2)
    w = result.witness["word"]
    validate_word(gm2, w["cells"], shape=w["shape"])


# --- bounded (H3) --------------------------------------------------------------

def test_h3_bounded_gm2(gm2):
    result = check_h3_bounded(gm2, (2, 2))
    assert result.status is Status.BOUNDED_PASS
    witnesses = result.witness["witnesses"]
    assert len(witnesses) == len(translate_reps((2, 2)))
    for key, wj in witnesses.items():
        p = tuple(int(c) for c in key.split(","))
        w = validate_word(gm2, wj["cells"], shape=wj["shape"])
        assert not is_periodic(w, p)


def test_h3_bounded_single_letter_fails(single):
    result = check_h3_bounded(single, (1,))
    assert result.status is Status.FAIL
    assert result.witness["no_witness_for"] == [[1]]
    assert result.params == {"p_bound": [1]}


def _walked_nonperiodic_witness(ts, p, shape_bound):
    """The former search: every shape l with |p| <= l <= shape_bound, in
    canonical order, and the first word of the first that has one."""
    lo = absv(p)
    if not dominates(shape_bound, lo):
        return None
    for l in shapes_upto(shape_bound):
        if not dominates(l, lo):
            continue
        for w in words_of_shape(ts, l):
            if not is_periodic(w, p):
                return w
    return None


def test_nonperiodic_witness_matches_the_shape_walk():
    """One search at shape |p| finds what the walk over every shape up to a
    bound dominating |p| found, on random systems of rank 1-3: a witness, or
    no witness at any shape."""
    rng = random.Random(1414)
    seen = {"witness": 0, "no witness": 0}
    for _ in range(1000):
        rank = rng.randint(1, 3)
        ts = random_system(rng, rng.randint(1, 4), rank, rng.choice([0.3, 0.5, 0.8]))
        top = (3, 2, 1)[rank - 1]
        for p in rng.sample(translate_reps((top,) * rank), 3):
            bound = tuple(min(c + rng.randint(0, 1), top) for c in absv(p))
            got = nonperiodic_witness(ts, p)
            assert got == _walked_nonperiodic_witness(ts, p, bound), (
                ts.matrices, p, bound)
            if got is None:
                seen["no witness"] += 1
            else:
                assert got.shape == absv(p)
                seen["witness"] += 1
    assert min(seen.values()) >= 50, seen


def test_h3_bounded_fs2(fs2):
    assert check_h3_bounded(fs2, (1, 1)).status is Status.BOUNDED_PASS


def test_vacuous_bounds_raise(gm, fs2):
    for bound in [(0, 0), (1, 0), (0, 1)]:
        with pytest.raises(ValueError, match="no split"):
            check_h1_oracle(fs2, bound)
    with pytest.raises(ValueError, match="no split"):
        check_h1_oracle(gm, (1,))
    assert check_h1_oracle(gm, (2,)).status is Status.PASS
    with pytest.raises(ValueError, match="no translate"):
        check_h3_bounded(fs2, (0, 0))


def test_h1_oracle_rejects_negative_bound(fs2):
    # (-1, 3) has grade 2, but no shape lies below it: a pass would be vacuous
    with pytest.raises(ValueError, match=r"\(-1, 3\) has a negative component"):
        check_h1_oracle(fs2, (-1, 3))


def test_h3_bounded_rejects_bad_bounds(fs2):
    # a bound of the wrong rank is an error, not a bounded-pass
    with pytest.raises(ValueError, match=r"p bound \(1,\) has wrong rank"):
        check_h3_bounded(fs2, (1,))
    with pytest.raises(ValueError, match=r"p bound \(1, 1, 1\) has wrong rank"):
        check_h3_bounded(fs2, (1, 1, 1))
    with pytest.raises(ValueError, match=r"p bound \(-1, 2\) has a negative"):
        check_h3_bounded(fs2, (-1, 2))
    with pytest.raises(ValueError, match=r"p bound \(1, -1\) has a negative"):
        h3_bounded_witnesses(fs2, (1, -1))
    # the bound error, not an IndexError on an empty list of per-p witnesses
    with pytest.raises(ValueError, match=r"p bound \(-1, 2\) has a negative"):
        nonperiodic_all(fs2, (-1, 2), 0)


def test_h3_search_rejects_a_p_bound_with_no_translate(fs2):
    # an all-zero p bound admits no p != 0, so a pass would be vacuous
    message = r"p bound \(0, 0\) admits no translate"
    with pytest.raises(ValueError, match=message):
        check_h3_bounded(fs2, (0, 0))
    with pytest.raises(ValueError, match=message):
        h3_bounded_witnesses(fs2, (0, 0))
    with pytest.raises(ValueError, match=message):
        verify_report(fs2, h3_p_bound=(0, 0))
    # one nonzero component admits p
    assert check_h3_bounded(fs2, (0, 1)).status is Status.BOUNDED_PASS


def test_report_checks_h3_bounds_even_when_h3_is_skipped(jj):
    # (H1b) fails on jj, so the bounded (H3) check is skipped; its bounds are
    # still checked, before any check runs
    assert verify_report(jj)["H3 (bounded)"].status is Status.SKIPPED
    with pytest.raises(ValueError, match=r"p bound \(0, 0\) admits no translate"):
        verify_report(jj, h3_p_bound=(0, 0))
    with pytest.raises(ValueError, match=r"p bound \(1,\) has wrong rank"):
        verify_report(jj, h3_p_bound=(1,))
    with pytest.raises(ValueError, match=r"p bound \(2, -1\) has a negative"):
        verify_report(jj, h3_p_bound=(2, -1))


def test_report_checks_the_h3_star_cap_before_any_check(jj, fs2):
    # (H1b) fails on jj, so its (H3*) checks are skipped; the cap is still checked
    for ts, cap in ((jj, -5), (fs2, 0)):
        with pytest.raises(ValueError, match=f"^h3_star_cap must be at least 1, not {cap}$"):
            verify_report(ts, h3_star_cap=cap)


def test_report_empty_bounds_are_not_defaults(gm):
    # () is a bound like any other: it reaches its check and is rejected there
    with pytest.raises(ValueError, match=r"shape bound \(\) has wrong rank"):
        verify_report(gm, h1_oracle_bound=())
    with pytest.raises(ValueError, match=r"p bound \(\) has wrong rank"):
        verify_report(gm, h3_p_bound=())


# --- aggregate report ----------------------------------------------------------

def test_report_fs2_all_pass(fs2):
    report = verify_report(fs2)
    assert report.ok
    assert all(c.status in (Status.PASS, Status.BOUNDED_PASS)
               for c in report.checks)


def test_report_gm2_h3_star_fails_but_h3_bounded_passes(gm2):
    report = verify_report(gm2)
    assert not report.ok
    assert report["H3* (j=2)"].status is Status.FAIL
    assert report["H3* (j=1)"].status is Status.FAIL
    assert report["H3 (bounded)"].status is Status.BOUNDED_PASS
    assert report["H0"].status is Status.PASS
    assert report["H1a-c"].status is Status.PASS
    assert report["H2"].status is Status.PASS


def test_report_jj_gates_downstream(jj):
    report = verify_report(jj)
    assert not report.ok
    assert report["H1a-c"].status is Status.FAIL
    assert report["H3* (j=1)"].status is Status.SKIPPED
    assert report["H3* (j=2)"].status is Status.SKIPPED
    assert report["H3 (bounded)"].status is Status.SKIPPED


def test_report_json_schema(fs2):
    data = verify_report(fs2).to_json()
    assert data["ok"] is True
    for entry in data["checks"]:
        assert set(entry) <= {"condition", "status", "params", "witness"}
        assert "condition" in entry and "status" in entry


def test_permutation_system_fails_h3_on_null_translates():
    """Two commuting permutations: every word is forced, so words are
    periodic exactly along translates the permutations cannot distinguish."""
    p1 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]        # a -> a+1 (mod 3)
    p2 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]        # a -> a+2 (mod 3)
    ts = TileSystem(Alphabet("012"), [p1, p2])
    assert check_h0(ts).status is Status.PASS
    assert check_h1_local(ts).status is Status.PASS
    assert check_h2(ts).status is Status.PASS
    result, _ = check_h3_star(ts, 1)
    assert result.status is Status.FAIL  # every fiber is a singleton
    bounded = check_h3_bounded(ts, (2, 2))
    assert bounded.status is Status.FAIL
    # a word w from letter a has w(x) = a + x1 + 2 x2 (mod 3), so exactly
    # the translates with p1 + 2 p2 = 0 (mod 3) admit no witness
    expected = sorted(list(p) for p in translate_reps((2, 2))
                      if (p[0] + 2 * p[1]) % 3 == 0)
    assert sorted(bounded.witness["no_witness_for"]) == expected
    assert bounded.witness["note"] == ("every word is p-periodic for these p, "
                                       "so (H3) fails")
    # a p left without a witness at |p| has none at any shape: every word of
    # the larger shape |p| + (1, 1) is p-periodic too
    for p in expected:
        words = list(words_of_shape(ts, tuple(c + 1 for c in absv(p))))
        assert len(words) == ts.n_letters  # every word is forced by its origin
        assert all(is_periodic(w, tuple(p)) for w in words), p
    with pytest.raises(WitnessSearchError,
                       match=r"^no non-periodic witness for translates "):
        h3_bounded_witnesses(ts, (2, 2))
