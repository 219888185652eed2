import itertools
import random

import pytest

from rankshift import (
    SubshiftError,
    TransitionError,
    WitnessSearchError,
    letter_word,
    restrict,
    validate_word,
)
from rankshift.completion import (
    decorated_words_of_shape,
    extend_along,
    extend_unit,
    iter_grid_completions,
    list_extensions,
    product,
    staircase_steps,
    word_from_path,
    words_of_shape,
)
from rankshift.builders import random_system
from rankshift.core import (
    Alphabet,
    CompletionError,
    DecorationMap,
    TileSystem,
    UnknownLetterError,
    Word,
    add,
    box_cells,
    box_offsets,
    box_size,
    dominates,
    strides,
    unit,
    zero,
)
from rankshift.witnesses import grow_to_shape


def test_extend_unit_rank1(gm):
    w = validate_word(gm, ["0", "1"])
    out = extend_unit(gm, w, 1, 0)
    assert out.letters == (0, 1, 0)


def test_extend_unit_gm2_forced_layer(gm2):
    resolve = gm2.alphabet.resolve
    w = validate_word(gm2, ["01", "11"], shape=(1, 0))
    out = extend_unit(gm2, w, 2, resolve("10"))
    assert out.shape == (1, 1)
    assert out.at((0, 1)) == resolve("00")
    assert out.at((1, 1)) == resolve("10")


def test_extend_unit_rejects_bad_transition(gm2):
    resolve = gm2.alphabet.resolve
    w = letter_word(2, resolve("01"))
    with pytest.raises(TransitionError):
        extend_unit(gm2, w, 2, resolve("01"))


def test_extend_unit_reports_ambiguous_fill(jj):
    """On a system violating the local product conditions the forced fill
    finds two consistent letters and names the offending cell."""
    from rankshift.core import CompletionError
    w = validate_word(jj, ["0", "0"], shape=(1, 0))
    with pytest.raises(CompletionError) as err:
        extend_unit(jj, w, 2, 0)
    assert err.value.cell == (0, 1)
    assert len(err.value.candidates) == 2


def test_extend_unit_rejects_bad_direction(gm):
    with pytest.raises(ValueError):
        extend_unit(gm, letter_word(1, 0), 2, 0)


def test_extend_unit_matches_brute_force(corpus):
    """The forced fill agrees with exhaustive search over the new layer."""
    for name, ts in corpus:
        if ts.rank > 2:
            shapes = [(1, 0, 1), (1, 1, 0)]
        elif ts.rank == 2:
            shapes = [(1, 1), (2, 1), (2, 2)]
        else:
            shapes = [(2,), (3,)]
        for shape in shapes:
            for w in itertools.islice(words_of_shape(ts, shape), 6):
                for j in range(1, ts.rank + 1):
                    for a in ts.successors(j, w.terminus):
                        got = extend_unit(ts, w, j, a)
                        total = got.shape
                        fixed = [(zero(ts.rank), w),
                                 (total, letter_word(ts.rank, a))]
                        brute = list(itertools.islice(
                            iter_grid_completions(ts, total, fixed), 3))
                        assert len(brute) == 1, (name, w, j, a)
                        assert brute[0] == got.letters


def test_word_from_path_empty(gm):
    assert word_from_path(gm, 1, []) == letter_word(1, 1)


def test_word_from_path_fs2_square(fs2):
    resolve = fs2.alphabet.resolve
    w = word_from_path(fs2, resolve("00"),
                       [(1, resolve("10")), (2, resolve("11"))])
    assert w.shape == (1, 1)
    assert w.at((0, 0)) == resolve("00")
    assert w.at((1, 0)) == resolve("10")
    assert w.at((1, 1)) == resolve("11")
    # the remaining corner is forced: direction 2 keeps the first component
    assert w.at((0, 1)) == resolve("01")


def test_word_from_path_reports_first_bad_step(gm):
    with pytest.raises(TransitionError) as err:
        word_from_path(gm, 0, [(1, 1), (1, 1), (1, 0)])
    assert "step 1" in str(err.value)


def test_product_right_identity(gm):
    u = validate_word(gm, ["1", "0"])
    assert product(gm, u, letter_word(1, u.terminus)) == u


def test_product_gm_concatenation(gm):
    u = validate_word(gm, ["1", "0"])
    v = validate_word(gm, ["0", "1"])
    assert product(gm, u, v).letters == (1, 0, 1)


def test_product_endpoint_mismatch(gm):
    u = validate_word(gm, ["1", "0"])
    v = validate_word(gm, ["1", "0"])
    with pytest.raises(TransitionError):
        product(gm, u, v)


def test_product_restriction_roundtrip(corpus):
    rng = random.Random(7)
    for name, ts in corpus:
        for _ in range(25):
            u, v = _random_composable_pair(ts, rng)
            w = product(ts, u, v)
            assert restrict(w, (0,) * ts.rank, u.shape) == u
            assert restrict(w, u.shape, w.shape) == v


def test_product_associative(corpus):
    rng = random.Random(11)
    for name, ts in corpus:
        for _ in range(25):
            u, v = _random_composable_pair(ts, rng)
            w, = (_random_word_from(ts, rng, v.terminus),)
            assert product(ts, product(ts, u, v), w) == \
                product(ts, u, product(ts, v, w))


def test_product_decorated_carries_decoration(gm2):
    dmap = DecorationMap.identity(gm2.alphabet)
    u = next(words_of_shape(gm2, (1, 0)))
    du = dmap.attach(gm2.alphabet.name(u.origin), u)
    v = next(words_of_shape(gm2, (0, 1), origin=u.terminus))
    dw = product(gm2, du, v)
    assert dw.decoration == du.decoration
    assert dw.word == product(gm2, u, v)


def test_list_extensions_zero_shape(gm):
    u = validate_word(gm, ["0", "1"])
    pairs = list_extensions(gm, u, (0,))
    assert pairs == [(letter_word(1, u.terminus), u)]


def test_list_extensions_gm_count(gm):
    u = letter_word(1, 0)
    pairs = list_extensions(gm, u, (2,))
    # successors of 0 counted by the square of the matrix: column sum at 0
    m = gm.matrices[0]
    expected = sum(sum(m[b][c] * m[c][0] for c in range(2)) for b in range(2))
    assert len(pairs) == expected == 3
    assert [w.letters for w, _ in pairs] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]


def test_list_extensions_gm2_count(gm2):
    u = letter_word(2, gm2.alphabet.resolve("00"))
    pairs = list_extensions(gm2, u, (1, 1))
    assert len(pairs) == 4
    for w, uw in pairs:
        assert uw == product(gm2, u, w)
        assert w.origin == u.terminus
    # the count is the t(u) column sum of the mixed matrix product
    m1, m2 = gm2.matrices
    col = u.terminus
    column_sum = sum(sum(m1[b][c] * m2[c][col] for c in range(4))
                     for b in range(4))
    assert len(pairs) == column_sum


def test_extension_count_depends_only_on_terminus(gm2):
    for t in range(gm2.n_letters):
        sizes = set()
        for u in itertools.islice(words_of_shape(gm2, (1, 1), terminus=t), 5):
            sizes.add(len(list_extensions(gm2, u, (1, 1))))
        assert len(sizes) <= 1


def test_words_of_shape_order_and_filters(gm):
    ws = list(words_of_shape(gm, (2,)))
    assert [w.letters for w in ws] == [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                                       (1, 0, 0), (1, 0, 1)]
    assert [w.letters for w in words_of_shape(gm, (2,), origin=1)] == \
        [(1, 0, 0), (1, 0, 1)]
    assert [w.letters for w in words_of_shape(gm, (2,), terminus=1)] == \
        [(0, 0, 1), (1, 0, 1)]
    # at shape 0 origin and terminus are one cell: both filters must hold
    assert list(words_of_shape(gm, (0,), origin=0, terminus=1)) == []
    assert [w.letters for w in words_of_shape(gm, (0,), origin=1, terminus=1)] == [(1,)]


@pytest.mark.parametrize("name", ["gm2", "fs2"])
def test_decorated_words_of_shape_origin(name, request):
    """Placing the origin in the search keeps exactly the filtered words, in order."""
    ts = request.getfixturevalue(name)
    doubled = DecorationMap(("x", "y") + ts.alphabet.letters[1:],
                            (0,) + tuple(range(ts.n_letters)))
    for dmap in (DecorationMap.identity(ts.alphabet), doubled):
        for shape in [(0, 0), (1, 0), (0, 2), (2, 1), (2, 2)]:
            every = list(decorated_words_of_shape(ts, dmap, shape))
            for a in range(ts.n_letters):
                assert list(decorated_words_of_shape(ts, dmap, shape, origin=a)) == \
                    [dw for dw in every if dw.word.origin == a], (dmap, shape, a)
                for t in range(ts.n_letters):
                    assert list(decorated_words_of_shape(
                        ts, dmap, shape, origin=a, terminus=t)) == \
                        [dw for dw in every
                         if dw.word.origin == a and dw.word.terminus == t]


def test_origin_and_terminus_must_be_letters(gm2):
    """An origin or terminus outside the alphabet raises; it does not yield
    nothing.  Names resolve like indices."""
    dmap = DecorationMap.identity(gm2.alphabet)
    for bad in ({"origin": 99}, {"terminus": 4}, {"origin": -1}, {"terminus": "zz"}):
        with pytest.raises(UnknownLetterError):
            list(words_of_shape(gm2, (1, 1), **bad))
        with pytest.raises(UnknownLetterError):
            list(decorated_words_of_shape(gm2, dmap, (1, 1), **bad))
    assert list(words_of_shape(gm2, (1, 1), origin="10", terminus="01")) == \
        list(words_of_shape(gm2, (1, 1), origin=2, terminus=1))


def test_iter_grid_completions_limit(fs2):
    grids = iter_grid_completions(fs2, (1, 1))
    assert sum(1 for _ in itertools.islice(grids, 5)) == 5


def test_iter_grid_completions_rejects_bad_input(gm2):
    with pytest.raises(ValueError, match="negative"):
        next(iter_grid_completions(gm2, (1, -1)))
    corner = letter_word(2, 0)
    square = next(words_of_shape(gm2, (1, 1)))
    assert len(list(iter_grid_completions(gm2, (1, 1), [((1, 1), corner)]))) > 0
    for k, u in [((-1, 0), corner), ((0, -1), square), ((2, 0), corner),
                 ((0, 1), square), ((1, 1), square)]:
        with pytest.raises(ValueError, match="outside"):
            next(iter_grid_completions(gm2, (1, 1), [(k, u)]))


def _brute_grids(ts, shape, placed):
    """Every letter grid on [0, shape], filtered by the matrices and placements."""
    cells = list(itertools.product(*(range(m + 1) for m in shape)))
    index = {x: i for i, x in enumerate(cells)}
    steps = [(index[x], index[x[:k] + (x[k] + 1,) + x[k + 1:]], k + 1)
             for x in cells for k in range(len(shape)) if x[k] < shape[k]]
    pins = []
    for corner, u in placed:
        sub = itertools.product(*(range(m + 1) for m in u.shape))
        for y, a in zip(sub, u.letters):
            pins.append((index[tuple(c + d for c, d in zip(corner, y))], a))
    return [g for g in itertools.product(range(ts.n_letters), repeat=len(cells))
            if all(g[i] == a for i, a in pins)
            and all(ts.transition(k, g[i], g[j]) for i, j, k in steps)]


def test_placed_search_matches_brute_force():
    """Placed searches (terminus, interior words) list exactly the brute-force
    grids, in the same order, also where letters have no successor."""
    rng = random.Random(606)
    nonempty = 0
    for _ in range(300):
        rank = rng.randint(1, 3)
        ts = random_system(rng, rng.randint(2, 4), rank)
        while True:
            shape = tuple(rng.randint(0, 3) for _ in range(rank))
            if ts.n_letters ** box_size(shape) <= 4096:
                break
        placed = [(shape, letter_word(rank, rng.randrange(ts.n_letters)))]
        corner = tuple(rng.randint(0, m) for m in shape)
        sub = tuple(rng.randint(0, m - c) for c, m in zip(corner, shape))
        words = _brute_grids(ts, sub, [])
        if words:
            placed.append((corner, Word(sub, rng.choice(words))))
            placed = rng.choice([placed, placed[:1], placed[1:]])
        got = list(iter_grid_completions(ts, shape, placed))
        assert got == _brute_grids(ts, shape, placed), (ts.matrices, shape, placed)
        nonempty += bool(got)
    assert nonempty >= 100


def test_unplaced_search_matches_brute_force():
    """Searches with nothing placed list exactly the brute-force grids, in the
    same order: shape 0 (one cell), shapes with zero components, letters with
    no successor, and searches that die after the first cell."""
    rng = random.Random(1010)
    seen = {"one cell": 0, "zero component": 0, "no successor": 0, "no grid": 0}
    for _ in range(300):
        rank = rng.randint(1, 3)
        ts = random_system(rng, rng.randint(1, 4), rank, rng.choice([0.2, 0.5, 0.8]))
        while True:
            shape = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(rank))
            if ts.n_letters ** box_size(shape) <= 4096:
                break
        got = list(iter_grid_completions(ts, shape))
        assert got == _brute_grids(ts, shape, []), (ts.matrices, shape)
        seen["one cell"] += box_size(shape) == 1
        seen["zero component"] += 0 in shape and any(shape)
        seen["no successor"] += any(not ts.successor_mask(j, a)
                                    for j in range(1, rank + 1)
                                    for a in range(ts.n_letters))
        seen["no grid"] += not got
    assert min(seen.values()) >= 10, seen
    # the first cell has no letter: two words disagree on it
    ts = random_system(rng, 3, 2)
    clash = [(zero(2), letter_word(2, 0)), (zero(2), letter_word(2, 1))]
    for shape in [(0, 0), (1, 2)]:
        assert list(iter_grid_completions(ts, shape, clash)) == []


def _reference_grid_completions(ts, shape, fixed=()):
    """The grid searcher before forced cells skipped the letter iterator:
    every cell, forced or not, gets a letter list and an iterator."""
    st = strides(shape)
    succ = [[ts.successor_mask(j, a) for a in range(ts.n_letters)]
            for j in range(1, len(shape) + 1)]
    plan = [tuple((i - st[k], succ[k]) for k in range(len(shape)) if cell[k] > 0)
            for i, cell in enumerate(box_cells(shape))]
    n_cells = len(plan)
    allowed = [(1 << ts.n_letters) - 1] * n_cells
    for k, u in fixed:
        for i, a in zip(box_offsets(shape, k, add(k, u.shape)), u.letters):
            allowed[i] &= 1 << a
    if fixed:
        for i in reversed(range(n_cells)):
            for p, masks in plan[i]:
                allowed[p] &= sum(1 << a for a, m in enumerate(masks) if m & allowed[i])
    assign = [0] * n_cells
    its = [iter(())] * n_cells
    table = {}
    i, last = -1, n_cells - 1
    while True:
        i += 1
        mask = allowed[i]
        for p, masks in plan[i]:
            mask &= masks[assign[p]]
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


def _ends(rank, shape, origin, terminus):
    fixed = []
    if origin is not None:
        fixed.append((zero(rank), letter_word(rank, origin)))
    if terminus is not None:
        fixed.append((shape, letter_word(rank, terminus)))
    return fixed


@pytest.mark.parametrize("name,bound", [("gm2", (5, 5)), ("fs2", (5, 5)),
                                        ("fs3", (2, 2, 2))])
def test_grid_search_matches_reference(name, bound, request):
    """Same grids in the same order as the searcher without the forced-cell
    step, at every shape up to the bound, with and without placed ends."""
    ts = request.getfixturevalue(name)
    rng = random.Random(1313)
    for shape in box_cells(bound):
        a, b = rng.randrange(ts.n_letters), rng.randrange(ts.n_letters)
        for origin, terminus in [(None, None), (a, None), (None, b), (a, b)]:
            fixed = _ends(ts.rank, shape, origin, terminus)
            assert list(iter_grid_completions(ts, shape, fixed)) == \
                list(_reference_grid_completions(ts, shape, fixed)), \
                (name, shape, origin, terminus)


def test_sparse_grid_search_matches_reference():
    """Sparse random systems, where most cells are forced or dead, with a
    placed terminus and a placed sub-box word at random."""
    rng = random.Random(2020)
    nonempty = 0
    for _ in range(400):
        rank = rng.randint(1, 3)
        ts = random_system(rng, rng.randint(3, 8), rank, 0.2)
        shape = tuple(rng.randint(0, 5 if rank < 3 else 2) for _ in range(rank))
        fixed = []
        if rng.random() < 0.5:
            fixed.append((shape, letter_word(rank, rng.randrange(ts.n_letters))))
        if rng.random() < 0.5:
            corner = tuple(rng.randint(0, m) for m in shape)
            sub = tuple(rng.randint(0, min(1, m - c)) for c, m in zip(corner, shape))
            words = list(itertools.islice(iter_grid_completions(ts, sub), 20))
            if words:
                fixed.append((corner, Word(sub, rng.choice(words))))
        got = list(iter_grid_completions(ts, shape, fixed))
        assert got == list(_reference_grid_completions(ts, shape, fixed)), \
            (ts.matrices, shape, fixed)
        nonempty += bool(got)
    assert nonempty >= 150


@pytest.mark.parametrize("name,shapes", [
    ("gm", [(0,), (1,), (2,), (5,), (12,)]),
    ("jj", [(0, 3), (1, 3), (2, 3), (5, 1)]),
    ("gm2", [(0, 4), (1, 4), (2, 4), (5, 3)]),
    ("fs3", [(0, 1, 1), (1, 1, 1), (2, 2, 1), (5, 1, 1)]),
])
def test_slab_search_matches_reference(name, shapes, request):
    """Whole lists, so the order too, equal the cell-by-cell reference on
    boxes of one, two, three and six slabs along direction 1 (one-cell slabs
    in rank 1, rows in rank 2, planes in rank 3): unplaced, with a placed
    terminus, and with a placed word across two slabs, so that slabs differ
    in their mask class."""
    ts = request.getfixturevalue(name)
    rng = random.Random(1717)
    nonempty = 0
    for shape in shapes:
        terminus = (shape, letter_word(ts.rank, rng.randrange(ts.n_letters)))
        placements = [[], [terminus]]
        if shape[0] > 0:
            sub = (1, *(min(1, m) for m in shape[1:]))
            word = Word(sub, rng.choice(list(_reference_grid_completions(ts, sub))))
            across = ((shape[0] // 2, *zero(ts.rank - 1)), word)
            placements += [[across], [across, terminus]]
        for fixed in placements:
            got = list(iter_grid_completions(ts, shape, fixed))
            assert got == list(_reference_grid_completions(ts, shape, fixed)), \
                (name, shape, fixed)
            nonempty += bool(got)
    assert nonempty >= 2 * len(shapes)


@pytest.mark.parametrize("form_name", ["tuple", "code points", "comma text"])
@pytest.mark.parametrize("name,shapes", [
    ("gm", [(0,), (1,), (2,), (7,)]),
    ("gm2", [(0, 3), (1, 3), (2, 3), (4, 2)]),
    ("fs3", [(0, 1, 1), (1, 1, 1), (2, 1, 1), (3, 1, 1)]),
])
def test_form_is_applied_per_slab(name, shapes, form_name, request, monkeypatch):
    """With ``form`` the search yields form of each grid it yields without:
    on boxes of one, two and several slabs, unplaced, with a placed terminus
    and with a placed word across two slabs.  ``form`` runs at most once per
    slab-list entry, that is per slab the cell search yields."""
    from rankshift import completion
    ts = request.getfixturevalue(name)
    named = [a + "," for a in ts.alphabet.letters]
    form = {"tuple": tuple,
            "code points": lambda s: "".join(map(chr, s)),
            "comma text": lambda s: "".join([named[a] for a in s])}[form_name]
    search, entries, calls = completion._cell_search, [0], [0]

    def counting_search(allowed, plan):
        for s in search(allowed, plan):
            entries[0] += 1
            yield s

    def counting_form(s):
        calls[0] += 1
        return form(s)

    rng = random.Random(4242)
    for shape in shapes:
        terminus = (shape, letter_word(ts.rank, rng.randrange(ts.n_letters)))
        placements = [[], [terminus]]
        if shape[0] > 0:
            sub = (1, *(min(1, m) for m in shape[1:]))
            word = Word(sub, rng.choice(list(iter_grid_completions(ts, sub))))
            placements.append([((shape[0] // 2, *zero(ts.rank - 1)), word), terminus])
        for fixed in placements:
            want = [form(g) for g in iter_grid_completions(ts, shape, fixed)]
            entries[0] = calls[0] = 0
            with monkeypatch.context() as m:
                m.setattr(completion, "_cell_search", counting_search)
                got = list(iter_grid_completions(ts, shape, fixed, form=counting_form))
            assert got == want, (name, shape, fixed)
            assert calls[0] <= entries[0], (name, shape, fixed)


def test_grid_search_is_lazy(jj):
    """The first grid of a search with 2^402 grids comes at once."""
    grids = iter_grid_completions(jj, (1, 200))
    assert next(grids) == (0,) * 402
    assert next(grids) == (0,) * 401 + (1,)


def test_slab_search_is_lazy(jj):
    """Four slabs of 201 cells, 2^804 grids: each slab's list of next slabs
    fills only as far as the search reads it, so the first grids come at once."""
    grids = iter_grid_completions(jj, (3, 200))
    assert next(grids) == (0,) * 804
    assert next(grids) == (0,) * 803 + (1,)


def test_slab_lists_fill_only_as_far_as_read(jj, monkeypatch):
    """Two grids of a four-slab box pull a few slabs from the cell search, not
    the 2^13 that one eagerly filled list of next slabs would hold; this fails
    on an eager list where the test above would hang."""
    from rankshift import completion
    search, pulled = completion._cell_search, []

    def counting(allowed, plan):
        for s in search(allowed, plan):
            pulled.append(s)
            yield s

    monkeypatch.setattr(completion, "_cell_search", counting)
    grids = iter_grid_completions(jj, (3, 12))
    assert next(grids) == (0,) * 52
    assert next(grids) == (0,) * 51 + (1,)
    assert len(pulled) < 10


def _random_word_from(ts, rng, origin):
    w = letter_word(ts.rank, origin)
    for _ in range(rng.randrange(0, 4)):
        j = rng.randrange(1, ts.rank + 1)
        succ = ts.successors(j, w.terminus)
        if not succ:
            break
        w = extend_unit(ts, w, j, rng.choice(succ))
    return w


def _random_composable_pair(ts, rng):
    u = _random_word_from(ts, rng, rng.randrange(ts.n_letters))
    v = _random_word_from(ts, rng, u.terminus)
    return u, v


# ---------------------------------------------------------------------------
# forced fill along a staircase: extend_along against grid search and against
# the former unit-at-a-time path, which built and copied a word per step
# ---------------------------------------------------------------------------

def _unit_extend(ts, w, j, a):
    """The former extend_unit: a new box per unit layer."""
    if not 1 <= j <= ts.rank:
        raise ValueError(f"direction {j} out of range 1..{ts.rank}")
    if not ts.transition(j, w.terminus, a):
        raise TransitionError(
            f"M_{j}({ts.alphabet.name(a)}, {ts.alphabet.name(w.terminus)}) = 0: "
            f"cannot extend in direction {j}")
    new_shape = add(w.shape, unit(ts.rank, j))
    new_st = strides(new_shape)
    letters = [-1] * box_size(new_shape)
    for i, b in zip(box_offsets(new_shape, zero(ts.rank), w.shape), w.letters):
        letters[i] = b
    layer_lo = tuple(c if k == j - 1 else 0 for k, c in enumerate(new_shape))
    layer = zip(itertools.product(*(range(a, b + 1)
                                    for a, b in zip(layer_lo, new_shape))),
                box_offsets(new_shape, layer_lo, new_shape))
    for x, i in reversed(list(layer)):
        mask = ts.successor_mask(j, letters[i - new_st[j - 1]])
        if x == new_shape:
            mask &= 1 << a
        for k in range(1, ts.rank + 1):
            if k != j and x[k - 1] < new_shape[k - 1]:
                mask &= ts.predecessor_mask(k, letters[i + new_st[k - 1]])
        if mask == 0 or mask & (mask - 1):
            cands = [b for b in range(ts.n_letters) if mask >> b & 1]
            raise CompletionError(
                f"cell {x}: {len(cands)} consistent letters while extending in "
                f"direction {j}; the system violates (H1)", cell=x, candidates=cands)
        letters[i] = mask.bit_length() - 1
    return Word(new_shape, tuple(letters))


def _unit_word_from_path(ts, a0, steps):
    prev = a0
    for i, (j, a) in enumerate(steps):
        if not 1 <= j <= ts.rank:
            raise ValueError(f"step {i}: direction {j} out of range 1..{ts.rank}")
        if not ts.transition(j, prev, a):
            raise TransitionError(
                f"step {i}: M_{j}({ts.alphabet.name(a)}, {ts.alphabet.name(prev)}) = 0")
        prev = a
    w = letter_word(ts.rank, a0)
    for j, a in steps:
        w = _unit_extend(ts, w, j, a)
    return w


def _unit_product(ts, u, v):
    if u.terminus != v.origin:
        raise TransitionError(
            f"t(u) = {ts.alphabet.name(u.terminus)} != "
            f"o(v) = {ts.alphabet.name(v.origin)}: product undefined")
    w = u
    for j, a in staircase_steps(v):
        w = _unit_extend(ts, w, j, a)
    return w


def _unit_grow_to_shape(ts, w, target):
    if not dominates(target, w.shape):
        raise ValueError(f"target {target} does not dominate shape {w.shape}")
    while w.shape != target:
        for j in range(1, ts.rank + 1):
            if w.shape[j - 1] < target[j - 1]:
                succ = ts.successors(j, w.terminus)
                if not succ:
                    raise WitnessSearchError(
                        f"letter {ts.alphabet.name(w.terminus)} has no successor "
                        f"in direction {j}; the system fails (H2)")
                w = _unit_extend(ts, w, j, succ[0])
                break
    return w


def _outcome(fn, *args):
    """The word fn returns, or the type, message, cell and candidates it raises."""
    try:
        return fn(*args)
    except (SubshiftError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "cell", None),
                getattr(exc, "candidates", None))


def _some_word(ts, rng, shape, origin=None):
    words = list(itertools.islice(words_of_shape(ts, shape, origin=origin), 20))
    return rng.choice(words) if words else None


def test_product_matches_grid_oracle(corpus):
    """u v is the one grid on [0, shape(u) + shape(v)] that shows u at 0 and v
    at shape(u)."""
    shapes = {1: [(0,), (1,), (2,)],
              2: [(0, 1), (1, 0), (1, 1), (2, 1)],
              3: [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 0)]}
    for name, ts in corpus:
        origin = zero(ts.rank)
        for su, sv in itertools.product(shapes[ts.rank], repeat=2):
            for u in itertools.islice(words_of_shape(ts, su), 3):
                for v in itertools.islice(words_of_shape(ts, sv, origin=u.terminus), 3):
                    placed = [(origin, u), (su, v)]
                    grids = list(itertools.islice(
                        iter_grid_completions(ts, add(su, sv), placed), 2))
                    assert grids == [product(ts, u, v).letters], (name, u, v)


def test_forced_fill_matches_unit_at_a_time():
    """product, word_from_path and grow_to_shape give the word, or the error
    (type, message, cell, candidates), that unit-at-a-time filling gives;
    most random systems fail (H1), so most draws end in an error."""
    rng = random.Random(1111)
    seen = {"word": 0, "no letter": 0, "two letters": 0, "TransitionError": 0,
            "WitnessSearchError": 0, "ValueError": 0}
    for _ in range(3000):
        rank = rng.randint(1, 3)
        ts = random_system(rng, rng.randint(1, 4), rank, rng.choice([0.3, 0.5, 0.8]))
        n = ts.n_letters
        small = tuple(rng.randint(0, 2 if rank < 3 else 1) for _ in range(rank))
        u = _some_word(ts, rng, small)
        cases = []
        if u is not None:
            # a mismatched origin now and then checks the endpoint error
            v = _some_word(ts, rng, tuple(rng.randint(0, 2) for _ in range(rank)),
                           origin=u.terminus if rng.random() < 0.9 else None)
            if v is not None:
                cases.append((product, _unit_product, (ts, u, v)))
            target = tuple(c + rng.randint(0, 2) for c in u.shape)
            cases.append((grow_to_shape, _unit_grow_to_shape, (ts, u, target)))
        steps = [(rng.randint(1, rank + (rng.random() < 0.05)), rng.randrange(n))
                 for _ in range(rng.randint(0, 5))]
        cases.append((word_from_path, _unit_word_from_path,
                      (ts, rng.randrange(n), steps)))
        for fn, reference, args in cases:
            got = _outcome(fn, *args)
            assert got == _outcome(reference, *args), (fn.__name__, ts.matrices, args)
            if isinstance(got, Word):
                seen["word"] += 1
            elif got[0] is CompletionError:
                seen["two letters" if got[3] else "no letter"] += 1
            else:
                seen[got[0].__name__] += 1
    assert min(seen.values()) >= 20, seen


def test_early_layer_error_comes_before_a_later_dead_step():
    """Steps are read lazily: the first layer's ambiguous fill is reported, not
    the second step's missing successor, which an eager walk would meet first."""
    # 0 -> 1, 2 in direction 1, and 1 has no successor there; in direction 2,
    # 0 -> 0 and 1, 2 -> 1, so cell (1, 0) below the corner 1 can be 1 or 2
    ts = TileSystem(Alphabet(["0", "1", "2"]), [
        [[0, 0, 0], [1, 0, 0], [1, 0, 0]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 0]],
    ])
    w = Word((0, 1), (0, 0))
    for grow in (grow_to_shape, _unit_grow_to_shape):
        with pytest.raises(CompletionError) as err:
            grow(ts, w, (2, 1))
        assert err.value.cell == (1, 0) and err.value.candidates == (1, 2)
    with pytest.raises(WitnessSearchError, match="no successor"):
        grow_to_shape(ts, Word((0, 0), (0,)), (2, 0))


def test_extend_along_checks_the_target(fs2):
    w = next(words_of_shape(fs2, (1, 0)))
    steps = [(1, 0), (2, 1)]
    assert extend_along(fs2, w, (2, 1), steps) == product(
        fs2, w, word_from_path(fs2, w.terminus, steps))
    assert extend_along(fs2, w, (1, 0), []) == w
    for target, bad in [((2, 2), steps), ((2, 0), steps), ((0, 1), []),
                        ((1, 0, 0), [])]:
        with pytest.raises(ValueError, match="target"):
            extend_along(fs2, w, target, bad)
