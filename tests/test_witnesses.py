import functools
import itertools
import os
import random
import re
import tracemalloc

import pytest

from rankshift import (
    DecorationMap,
    WitnessSearchError,
    connect,
    distinct_pair,
    letter_word,
    load_system,
    nonperiodic_all,
    projection_support,
    restrict,
    separate_translates,
    separating_family,
    tensor,
)
from rankshift.builders import random_system
from rankshift.core import (
    add,
    dominates,
    is_periodic,
    is_zero,
    join,
    neg,
    overlap_rows,
    rows_agree,
    sub,
    translate_reps,
    translates_agree,
    unit,
    validate_word,
    zero,
)
from rankshift.completion import list_extensions, product, words_of_shape
from rankshift.verify import (check_h0, check_h1_local, check_h2, h3_bounded_witnesses,
                              nonperiodic_witness)
from rankshift import completion, witnesses
from rankshift.witnesses import grow_to_shape

from conftest import circulant, compositions, decorated_words_of_shape, unit_grow_to_shape

SAMPLES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "samples")


def test_connect_trivial(gm):
    w = connect(gm, 0, 0, (0,))
    assert w == letter_word(1, 0)


def test_connect_gm_101(gm):
    w = connect(gm, 1, 1, (2,))
    assert w.letters == (1, 0, 1)


def test_connect_fs2_contract(fs2):
    w = connect(fs2, fs2.alphabet.resolve("00"), fs2.alphabet.resolve("11"),
                (1, 1))
    assert dominates(w.shape, (1, 1))
    assert w.origin == fs2.alphabet.resolve("00")
    assert w.terminus == fs2.alphabet.resolve("11")


def test_connect_contract_everywhere(corpus):
    for name, ts in corpus:
        bounds = [zero(ts.rank), (1,) * ts.rank, (2,) + (1,) * (ts.rank - 1)]
        for a in range(ts.n_letters):
            for b in range(ts.n_letters):
                for n_min in bounds:
                    w = connect(ts, a, b, n_min)
                    assert w.origin == a and w.terminus == b
                    assert dominates(w.shape, n_min), (name, a, b, n_min)


def test_connect_unreachable(identity2):
    with pytest.raises(WitnessSearchError):
        connect(identity2, 0, 1, (0,))


def test_grow_to_shape_lex_first(gm):
    w = grow_to_shape(gm, letter_word(1, 1), (3,))
    assert w.letters == (1, 0, 0, 0)
    with pytest.raises(ValueError):
        grow_to_shape(gm, w, (1,))


def test_distinct_pair_gm(gm):
    u, v = distinct_pair(gm)
    assert u.letters == (0, 0) and v.letters == (0, 1)


def test_distinct_pair_fs2(fs2):
    u, v = distinct_pair(fs2)
    assert u.shape == (1, 0)
    assert u != v and u.shape == v.shape and u.origin == v.origin


def test_distinct_pair_single_letter_exhausts(single):
    with pytest.raises(WitnessSearchError):
        distinct_pair(single)


def test_distinct_pair_exhausts_on_forced_systems():
    """Commuting permutations force every word, so no distinct pair exists
    at any shape: no letter has two successors in one direction."""
    from rankshift import Alphabet, TileSystem
    p1 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    p2 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    ts = TileSystem(Alphabet("012"), [p1, p2])
    with pytest.raises(WitnessSearchError):
        distinct_pair(ts)


def _graded_distinct_pair(ts, max_grade):
    """The former search: shapes by grade up to max_grade, origins in
    declaration order, the first two words of one shape and origin."""
    for grade in range(1, max_grade + 1):
        for shape in compositions(grade, ts.rank):
            for c in range(ts.n_letters):
                found = list(itertools.islice(words_of_shape(ts, shape, origin=c), 2))
                if len(found) == 2:
                    return tuple(found)
    return None


def test_distinct_pair_matches_the_graded_search():
    """Unit shapes decide the pair: the graded search up to any grade finds
    the same two words, or none, on random systems of rank 1-3."""
    rng = random.Random(1515)
    seen = {"pair": 0, "no pair": 0}
    for _ in range(1500):
        rank = rng.randint(1, 3)
        ts = random_system(rng, rng.randint(1, 4), rank, rng.choice([0.15, 0.3, 0.5]))
        try:
            got = distinct_pair(ts)
        except WitnessSearchError:
            got = None
        assert got == _graded_distinct_pair(ts, rng.randint(1, 4)), ts.matrices
        seen["no pair" if got is None else "pair"] += 1
    assert min(seen.values()) >= 200, seen


def test_nonperiodic_all_zero_bound(fs2):
    a = fs2.alphabet.resolve("10")
    assert nonperiodic_all(fs2, (0, 0), a) == letter_word(2, a)


@pytest.mark.parametrize("m", [(1, 1), (2, 2)])
def test_nonperiodic_all_contract(fs2, gm2, m):
    for ts in (fs2, gm2):
        for a in range(ts.n_letters):
            w = nonperiodic_all(ts, m, a)
            assert w.origin == a
            for p in translate_reps(m):
                assert not is_periodic(w, p), (ts, a, p)
                assert not is_periodic(w, neg(p))


def test_nonperiodic_all_single_letter_error(single):
    with pytest.raises(WitnessSearchError):
        nonperiodic_all(single, (1,), 0)


def test_separate_translates_gm(gm):
    w1 = letter_word(1, 0)
    w1p, w2p = separate_translates(gm, (1,), w1, w1)
    assert w1p.shape == w2p.shape
    assert restrict(w1p, (0,), (0,)) == w1
    assert not translates_agree(w2p, w1p, (1,))


def test_separate_translates_fs2(fs2):
    a = fs2.alphabet.resolve("00")
    w = letter_word(2, a)
    w1p, w2p = separate_translates(fs2, (1, 0), w, w)
    assert w1p.shape == w2p.shape
    assert not translates_agree(w2p, w1p, (1, 0))


def test_separate_translates_negative_p(fs2):
    a = fs2.alphabet.resolve("11")
    w = letter_word(2, a)
    w1p, w2p = separate_translates(fs2, (-1, -2), w, w)
    assert not translates_agree(w2p, w1p, (-1, -2))
    assert restrict(w1p, (0, 0), (0, 0)) == w
    assert restrict(w2p, (0, 0), (0, 0)) == w


def test_separate_translates_p_zero_distinctness(gm):
    w = letter_word(1, 0)
    w1p, w2p = separate_translates(gm, (0,), w, w)
    assert w1p != w2p
    assert not translates_agree(w2p, w1p, (0,))


def test_separate_translates_shape_mismatch(gm):
    with pytest.raises(ValueError):
        separate_translates(gm, (1,), letter_word(1, 0),
                            validate_word(gm, ["0", "1"]))


def test_separate_translates_wrong_rank_p(fs2):
    w = letter_word(2, 0)
    with pytest.raises(ValueError, match=r"^translate has wrong rank$"):
        separate_translates(fs2, (1,), w, w)


@pytest.mark.parametrize("p", [(True, 0), (1.0, 0), (1, False)])
def test_translates_take_ints_only(fs2, p):
    """A bool or float component is no translate: each entry point raises
    TypeError."""
    w = next(words_of_shape(fs2, (2, 2)))
    for call in (lambda: translates_agree(w, w, p), lambda: is_periodic(w, p),
                 lambda: separate_translates(fs2, p, w, w),
                 lambda: nonperiodic_witness(fs2, p)):
        with pytest.raises(TypeError, match=r"^translate .* is not an integer$"):
            call()


def test_p_zero_is_no_periodicity_direction(fs2):
    """is_periodic and nonperiodic_witness reject p = 0 alike, rather than
    read it as a translate every word agrees with."""
    w = next(words_of_shape(fs2, (1, 1)))
    for call in (lambda: is_periodic(w, (0, 0)),
                 lambda: nonperiodic_witness(fs2, (0, 0))):
        with pytest.raises(ValueError, match=r"^p = 0 is not a periodicity direction$"):
            call()


@pytest.mark.parametrize("m", [(1, 1), (2, 2)])
def test_separating_family_contract(fs2, gm2, m):
    """The quantified family conditions, verified exhaustively."""
    for ts in (fs2, gm2):
        l, family = separating_family(ts, m)
        assert set(family) == set(range(ts.n_letters))
        translates = [p for q in translate_reps(m) for p in (q, neg(q))]
        for a, w in family.items():
            assert w.shape == l
            assert w.origin == a
        for a in range(ts.n_letters):
            for b in range(ts.n_letters):
                for p in translates:
                    assert not translates_agree(family[a], family[b], p), \
                        (a, b, p)


def test_separating_family_single_letter_error(single):
    with pytest.raises(WitnessSearchError):
        separating_family(single, (1,))


def test_separating_family_zero_bound_degenerates(fs2):
    l, family = separating_family(fs2, (0, 0))
    assert l == (0, 0)
    assert all(family[a] == letter_word(2, a) for a in family)


def test_projection_support_m_zero_is_family(fs2):
    dmap = DecorationMap.identity(fs2.alphabet)
    l, family = separating_family(fs2, (1, 1))
    support = projection_support(fs2, dmap, (0, 0), l, family)
    got = {(dw.decoration, dw.word) for dw in support}
    expected = {(a, w) for a, w in family.items()}
    assert got == expected


def test_projection_support_size_formula(fs2):
    from rankshift.af_core import dim_vector
    dmap = DecorationMap.identity(fs2.alphabet)
    m = (1, 1)
    l, family = separating_family(fs2, m)
    support = projection_support(fs2, dmap, m, l, family)
    dims = dim_vector(fs2, dmap, m)
    expected = sum(dims[family[a].origin] for a in family)
    assert len(support) == expected
    # every member restricts into the family
    members = set(family.values())
    hi = add(m, l)
    for dw in support:
        assert restrict(dw.word, m, hi) in members


def test_projection_support_brute_force_cross_check(gm2, fs2):
    """Per-member grid searches agree with filtering all decorated words.

    Covers both systems, totals at and above m + l, a family with a member
    listed twice, and a decoration map with two decorations on one letter.
    """
    m, l = (1, 0), (1, 1)
    hi = add(m, l)
    dmap = DecorationMap(("a", "b", "c", "d", "e"), (0, 2, 0, 1, 3))
    cases = [(gm2, hi, False), (fs2, hi, False), (gm2, (3, 2), False),
             (fs2, (2, 3), False), (gm2, (2, 2), True), (fs2, hi, True)]
    for ts, total, duplicate in cases:
        # a tiny hand-rolled family: restriction targets of shape l
        family = {a: next(words_of_shape(ts, l, origin=a))
                  for a in range(ts.n_letters)}
        if duplicate:
            family[3] = family[1]
        support = projection_support(ts, dmap, m, l, family, total=total)
        members = set(family.values())
        naive = [dw for dw in decorated_words_of_shape(ts, dmap, total)
                 if restrict(dw.word, m, hi) in members]
        assert support == naive, (ts, total, duplicate)
        assert len(set(support)) == len(support)


def test_projection_support_checks_total_and_family(fs2):
    """A total below m + l, or a member of another shape, is rejected before
    any search."""
    dmap = DecorationMap.identity(fs2.alphabet)
    m = (1, 1)
    l, family = separating_family(fs2, m)
    total = add(m, l)
    low = sub(total, unit(2, 2))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"total shape {low} must dominate m + l = {total}") + "$"):
        projection_support(fs2, dmap, m, l, family, total=low)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"family members must all have the common shape {l}") + "$"):
        projection_support(fs2, dmap, m, l, {**family, 1: letter_word(2, 1)})


def test_projection_support_refinement(fs2):
    """The support at l + e_j is exactly the unit extensions of the support."""
    dmap = DecorationMap.identity(fs2.alphabet)
    m = (1, 1)
    l, family = separating_family(fs2, m)
    base = projection_support(fs2, dmap, m, l, family)
    for j in (1, 2):
        total = add(add(m, l), unit(2, j))
        refined = projection_support(fs2, dmap, m, l, family, total=total)
        extensions = {dw2 for dw in base
                      for _, dw2 in list_extensions(fs2, dw, unit(2, j))}
        assert set(refined) == extensions
        assert len(refined) == len(extensions)


def test_no_word_carries_two_family_windows(fs2):
    """Distinct window offsets p apart cannot both land in the family."""
    dmap = DecorationMap.identity(fs2.alphabet)
    m = (1, 1)
    l, family = separating_family(fs2, m)
    members = set(family.values())
    for p in [q for r_ in translate_reps(m) for q in (r_, neg(r_))]:
        s_u = tuple(max(c, 0) for c in p)
        s_v = tuple(max(-c, 0) for c in p)
        base_u = sub(m, s_u)
        base_v = sub(m, s_v)
        total = add(m, l)
        for w in itertools.islice(
                words_of_shape(fs2, total, origin=fs2.alphabet.resolve("00")),
                400):
            in_u = restrict(w, base_u, add(base_u, l)) in members
            in_v = restrict(w, base_v, add(base_v, l)) in members
            assert not (in_u and in_v), (p, w)


# ---------------------------------------------------------------------------
# the separating family against its reference, which shares nothing with the
# library's single fills, candidate index or lazy growth: product chains,
# translates_agree's row compare on every triple (a, b, p), and every member
# regrown after each repair
# ---------------------------------------------------------------------------

def _reference_nonperiodic_words(ts, m, letters):
    """_nonperiodic_words as products: the core p_0 s_0 ... p_k as nested
    products with filled spacer words, then connector words times the core."""
    if is_zero(m):
        return {a: letter_word(ts.rank, a) for a in letters}
    parts = list(h3_bounded_witnesses(ts, m).values())
    core = parts[0]
    for part in parts[1:]:
        spacer = connect(ts, core.terminus, part.origin, zero(ts.rank))
        core = product(ts, product(ts, core, spacer), part)
    return {a: product(ts, connect(ts, a, core.origin, zero(ts.rank)), core)
            for a in letters}


def _reference_separate_translates(ts, p, w1, w2):
    """separate_translates as products: w1 s pick as two products, then grown."""
    u, v = distinct_pair(ts)
    spacer_min = join(neg(add(p, w1.shape)), zero(ts.rank))
    s = connect(ts, w1.terminus, u.origin, spacer_min)
    base = add(p, add(w1.shape, s.shape))
    upper = add(base, u.shape)
    w2pp = grow_to_shape(ts, w2, join(w2.shape, upper))
    pick = v if restrict(w2pp, base, upper) == u else u
    w1pp = product(ts, product(ts, w1, s), pick)
    common = join(w1pp.shape, w2pp.shape)
    return grow_to_shape(ts, w1pp, common), grow_to_shape(ts, w2pp, common)


def _reference_separating_family(ts, m, repair):
    """separating_family by translates_agree's row compare on every triple, each
    agreeing triple repaired by ``repair`` and every member regrown after it;
    returns (l, family) and each repair's arguments and result.  A plan is
    held per (l, p) for this call, as the library keeps none."""
    plan = functools.cache(overlap_rows)

    def agree(w1, w2, p):
        return rows_agree(w1.letters, w2.letters, plan(w1.shape, w2.shape, p))

    n = ts.n_letters
    family = _reference_nonperiodic_words(ts, m, range(n))
    l = zero(ts.rank)
    for w in family.values():
        l = join(l, w.shape)
    family = {a: grow_to_shape(ts, w, l) for a, w in family.items()}
    translates = [p for q in translate_reps(m) for p in (q, neg(q))]
    repairs = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for p in translates:
                if not agree(family[a], family[b], p):
                    continue
                args = (p, family[b], family[a])
                family[b], family[a] = repair(ts, *args)
                repairs.append((args, (family[b], family[a])))
                l = family[a].shape
                family = {c: grow_to_shape(ts, w, l) for c, w in family.items()}
    for a in range(n):
        if family[a].origin != a:
            raise WitnessSearchError("separating family lost an origin")
        for b in range(n):
            for p in translates:
                if agree(family[a], family[b], p):
                    raise WitnessSearchError(
                        f"separating family failed for letters "
                        f"({ts.alphabet.name(a)}, {ts.alphabet.name(b)}), p={p}")
    return (l, family), repairs


def _family_inputs():
    systems = [(name, load_system(os.path.join(SAMPLES, f"{name}.json"))[0])
               for name in ("gm", "full2", "gm2", "fs2")]
    rng = random.Random(2024)
    while len(systems) < 28:
        ts = tensor([random_system(rng, rng.randint(2, 3), 1) for _ in range(2)])
        if all(c.ok for c in (check_h0(ts), check_h1_local(ts), check_h2(ts))):
            systems.append((f"tensor{len(systems)}", ts))
    # pairwise sums s1 + s2 distinct: the circulant passes (H1)
    for n, gens in [(5, ((0, 1), (0, 2))), (6, ((0, 1), (0, 2))),
                    (7, ((0, 1), (0, 3))), (8, ((1, 2), (0, 3))),
                    (9, ((0, 1), (0, 3)))]:
        ts = circulant(n, gens)
        assert all(c.ok for c in (check_h0(ts), check_h1_local(ts), check_h2(ts)))
        systems.append((f"circ{n}", ts))
    return systems


def _seeded_family_inputs(rank, count, seed):
    """Seeded circulants and tensors of the given rank that pass (H0)-(H2)."""
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        if len(systems) % 2:
            ts = tensor([random_system(rng, rng.randint(2, 5 - rank), 1)
                         for _ in range(rank)])
        else:
            n = rng.randint(4, 11 - rank)
            ts = circulant(n, [set(rng.sample(range(n), 2)) for _ in range(rank)])
        if all(c.ok for c in (check_h0(ts), check_h1_local(ts), check_h2(ts))):
            systems.append(ts)
    return systems


# (n, generator sets, p bound): circulants on Z_16..Z_48 passing (H0)-(H2),
# the benchmark's Z_24 pair first, one of rank 3 and two of rank 1
_LARGER_ALPHABETS = [
    (24, [(1, 2), (8, 11)], (1, 1)), (24, [(1, 2), (8, 11)], (2, 2)),
    (16, [(0, 1), (0, 3)], (1, 1)), (16, [(0, 1), (0, 3)], (2, 2)),
    (28, [(3, 4), (0, 9)], (1, 1)), (48, [(1, 2), (8, 11)], (1, 1)),
    (16, [(1, 2), (8, 11), (0, 5)], (1, 1, 1)),
    (16, [(0, 1)], (1,)), (32, [(1, 2)], (3,)),
]


def _reference_inputs(fs3):
    """{group: [(system, p bound), ...]}: the family inputs at bounds 1 and 2,
    fs3 at (1, 1, 1) with two seeded circulants, seeded systems named
    rank-count-seed@bound, and the larger alphabets."""
    groups = {"family": [(ts, (c,) * ts.rank) for _, ts in _family_inputs() for c in (1, 2)]}
    extra = [(fs3, (1, 1, 1))]
    rng = random.Random(2626)
    while len(extra) < 3:
        n = rng.randint(6, 10)
        ts = circulant(n, [set(rng.sample(range(n), 2)) for _ in range(2)])
        if all(c.ok for c in (check_h0(ts), check_h1_local(ts), check_h2(ts))):
            extra.append((ts, (1, 1)))
    groups["fs3 and circulants"] = extra
    for rank, count, seed, bound in [(2, 24, 15, 1), (3, 4, 16, 1), (2, 8, 17, 2)]:
        groups[f"{rank}-{count}-{seed}@{bound}"] = [
            (ts, (bound,) * rank) for ts in _seeded_family_inputs(rank, count, seed)]
    groups["larger"] = [(circulant(n, gens), m) for n, gens, m in _LARGER_ALPHABETS]
    return groups


def test_separating_family_matches_the_reference(fs3):
    """The nonperiodic words, each repair's pair and the separating family (or
    the same search error text) equal the reference's on every input group."""
    made, errors = {}, {}
    for group, cases in _reference_inputs(fs3).items():
        made[group], errors[group] = [], 0
        for ts, m in cases:
            letters = range(ts.n_letters)
            try:
                want_words = _reference_nonperiodic_words(ts, m, letters)
            except WitnessSearchError as exc:
                want_words = str(exc)
            try:
                got_words = {a: nonperiodic_all(ts, m, a) for a in letters}
            except WitnessSearchError as exc:
                got_words = str(exc)
            assert got_words == want_words, (group, ts.matrices, m)
            try:
                want, repairs = _reference_separating_family(
                    ts, m, _reference_separate_translates)
            except WitnessSearchError as exc:
                with pytest.raises(WitnessSearchError) as err:
                    separating_family(ts, m)
                assert str(err.value) == str(exc), (group, ts.matrices, m)
                errors[group] += 1
                continue
            for args, pair in repairs:
                assert separate_translates(ts, *args) == pair, (group, m, args[0])
            assert separating_family(ts, m) == want, (group, ts.matrices, m)
            made[group].append(len(repairs))
        assert len(made[group]) >= len(cases) // 2, (group, made[group])
    assert len(made["family"]) >= 40 and errors["family"] >= 5, (made, errors)
    assert sum(made["family"] + made["fs3 and circulants"]) >= 100, made
    # at least half the families of each group below make that many repairs
    for group, deep in [("2-24-15@1", 2), ("3-4-16@1", 2), ("larger", 5)]:
        assert sum(r >= deep for r in made[group]) >= len(made[group]) // 2, made


def test_separating_family_recheck_sees_an_unspliced_repair(monkeypatch, fs2, gm2):
    """With repairs that extend both words but splice nothing, the final
    re-check still finds the triple left agreeing, as the reference does: it
    rebuilds the candidate index from the final words, a = b included."""

    def unspliced(ts, p, w1, w2):
        common = add(w1.shape, (1,) * ts.rank)
        return grow_to_shape(ts, w1, common), grow_to_shape(ts, w2, common)

    monkeypatch.setattr(witnesses, "separate_translates", unspliced)
    cases = [(fs2, (2, 2)), (gm2, (1, 1)), (circulant(28, [(3, 4), (0, 9)]), (1, 1)),
             (circulant(16, [(0, 1)]), (1,)), (circulant(32, [(1, 2)]), (3,))]
    for ts, m in cases:
        with pytest.raises(WitnessSearchError) as want:
            _reference_separating_family(ts, m, unspliced)
        with pytest.raises(WitnessSearchError) as got:
            separating_family(ts, m)
        assert str(got.value) == str(want.value), (ts.matrices, m)


def test_separating_family_builds_a_plan_only_for_a_compare(monkeypatch, fs2, fs3):
    """Each overlap_rows call is the plan of a rows_agree compare: none is
    built up front or rebuilt after a repair, so there are no more plans
    than compares.  fs2 at (2, 2) made 120 plans when all 24 translates'
    plans were built at l0 and after each of its 4 repairs, for 64 compares."""
    counts = dict.fromkeys(("overlap_rows", "rows_agree"), 0)
    for name in counts:
        _counting(monkeypatch, witnesses, name, counts)
    cases = [(fs2, (2, 2)), (fs3, (1, 1, 1)), (circulant(24, [(1, 2), (8, 11)]), (1, 1))]
    plans = []
    for ts, m in cases:
        counts.update(dict.fromkeys(counts, 0))
        separating_family(ts, m)
        assert 0 < counts["overlap_rows"] <= counts["rows_agree"], (ts.matrices, m, counts)
        plans.append(counts["overlap_rows"])
    assert plans[0] < 120, plans


def test_separating_family_holds_no_plans_after_it_returns(fs3):
    """The overlap plans live only while their common shape does: once the
    family is dropped, under 0.5 MB of what separating_family allocated on
    fs3 at (1, 1, 1) is still held (3.6 MB when every plan was memoised for
    the process)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        l, family = separating_family(fs3, (1, 1, 1))
        del family
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert l == (29, 14, 12)
    assert held < 500_000, held


def _counting(monkeypatch, module, name, counts):
    """Replace module.name by a wrapper that counts its calls under name."""
    original = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_separating_family_fills_each_member_once_per_repair(monkeypatch, fs2, gm2, fs3):
    """n letters and R repairs make at most n(R + 1) extend_along fills and
    fill no member twice to one shape: each member is filled from its letter,
    by each repair of it, and to the common shape only when a compare reads
    it or at the end; a nonperiodic word is one fill.  Only the triples whose
    first overlap rows at l0 match are compared."""
    fills = []
    counts = dict.fromkeys(("separate_translates", "rows_agree"), 0)
    # each wrapper calls the kernel itself, so a fill is recorded once
    for module in (witnesses, completion):
        def recorded(*args, kernel=module.extend_along):
            fills.append((args[1].origin, tuple(args[2])))
            return kernel(*args)

        monkeypatch.setattr(module, "extend_along", recorded)
    for name in counts:
        _counting(monkeypatch, witnesses, name, counts)
    cases = [(fs2, (2, 2)), (gm2, (1, 1)), (fs3, (1, 1, 1))]
    cases += [(ts, (1,) * ts.rank) for rank, count, seed in [(2, 24, 15), (3, 4, 16)]
              for ts in _seeded_family_inputs(rank, count, seed)]
    families = 0
    for ts, m in cases:
        fills.clear()
        counts.update(dict.fromkeys(counts, 0))
        try:
            separating_family(ts, m)
        except WitnessSearchError:
            continue
        n, repairs = ts.n_letters, counts["separate_translates"]
        assert len(fills) <= n * (repairs + 1), (ts.matrices, m, repairs)
        assert len(set(fills)) == len(fills), (ts.matrices, m, fills)
        families += 1
        for a in {0, n - 1}:
            fills.clear()
            nonperiodic_all(ts, m, a)
            assert len(fills) == 1, (ts.matrices, m, a)
    assert families >= 25, families
    fills.clear()
    assert separating_family(fs2, (2, 2))[0] == (29, 19)
    assert len(fills) == 18
    # the benchmark's Z_24 pair: 9,024 compares when every triple was compared
    ts, m = circulant(24, [(1, 2), (8, 11)]), (1, 1)
    counts["rows_agree"] = 0
    separating_family(ts, m)
    assert counts["rows_agree"] < 2 * ts.n_letters * 2 * len(translate_reps(m)) == 384


def test_grow_to_shape_at_its_own_shape_is_the_word(fs2, gm2):
    """A target equal to shape(w) returns w itself; a target that does not
    dominate w, or has the wrong rank, raises as before."""
    for ts in (fs2, gm2):
        for shape in [(0, 0), (1, 0), (2, 1)]:
            for w in itertools.islice(words_of_shape(ts, shape), 5):
                assert grow_to_shape(ts, w, w.shape) is w
                assert grow_to_shape(ts, w, list(w.shape)) is w
                assert grow_to_shape(ts, w, add(w.shape, (1, 1))) == \
                    unit_grow_to_shape(ts, w, add(w.shape, (1, 1)))
    w = next(words_of_shape(fs2, (2, 1)))
    with pytest.raises(ValueError, match="does not dominate"):
        grow_to_shape(fs2, w, (1, 1))
    with pytest.raises(ValueError, match="wrong rank"):
        grow_to_shape(fs2, w, (2, 1, 0))
    with pytest.raises(ValueError, match="wrong rank"):
        grow_to_shape(fs2, w, (2,))
