import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rankshift import (
    Alphabet,
    DecorationMap,
    InvalidWordError,
    TileSystem,
    UnknownLetterError,
    Word,
    full_shift,
    is_periodic,
    letter_word,
    restrict,
    tensor,
    translates_agree,
    validate_word,
)
from rankshift.core import (
    absv,
    check_shape,
    box_cells,
    box_offsets,
    box_size,
    join,
    meet,
    neg,
    overlap_rows,
    shape_key,
    shapes_upto,
    strides,
    sub,
    translate_reps,
    unit,
    word_violations,
)
from rankshift.builders import from_rank1, redecorate_by_shape
from rankshift.af_core import bratteli, dim_vector
from rankshift.cli import save_system
from rankshift.completion import (extend_along, extend_unit, list_extensions,
                                  word_from_path, words_of_shape)
from rankshift.verify import check_h3_star
from rankshift.witnesses import (connect, nonperiodic_all, projection_support,
                                 separating_family)


def test_shape_lattice_examples():
    assert absv((-1, 2)) == (1, 2) and absv((0, 0)) == (0, 0)
    assert meet((1, 3), (2, 1)) == (1, 1) and join((1, 3), (2, 1)) == (2, 3)
    for p in translate_reps((2, 2)):
        # |p| = p v (-p), and it lies within the bound
        assert absv(p) == join(p, neg(p)) == neg(meet(p, neg(p)))
        assert meet(absv(p), (2, 2)) == absv(p)


def test_shape_lattice_rank_mismatch():
    for op in (meet, join):
        with pytest.raises(ValueError):
            op((1, 2), (1,))
        with pytest.raises(ValueError):
            op((1,), (1, 2))


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet([])
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])


@pytest.mark.parametrize("letters, message", [
    pytest.param([1, 2], "'alphabet' must be a nonempty list of strings", id="ints"),
    pytest.param(["a", None], "'alphabet' must be a nonempty list of strings", id="None"),
    pytest.param(["a", ""], "alphabet[1] is '', letter names must be nonempty "
                 "with no ',' or whitespace", id="empty-name"),
    pytest.param(["a,b"], "alphabet[0] is 'a,b', letter names must be nonempty "
                 "with no ',' or whitespace", id="comma"),
    pytest.param(["a", "a b"], "alphabet[1] is 'a b', letter names must be "
                 "nonempty with no ',' or whitespace", id="space"),
    pytest.param(["a\u2028"], "alphabet[0] is 'a\\u2028', letter names must be "
                 "nonempty with no ',' or whitespace", id="line-separator"),
])
def test_alphabet_owns_the_letter_name_rule(letters, message):
    """Alphabet coerces nothing and rejects a name the word format cannot
    carry, with the system file's field path."""
    with pytest.raises(ValueError) as err:
        Alphabet(letters)
    assert str(err.value) == message


def test_tile_system_validation():
    with pytest.raises(ValueError):
        TileSystem(Alphabet("01"), [])
    with pytest.raises(ValueError):
        TileSystem(Alphabet("01"), [[[1, 1], [1]]])
    with pytest.raises(ValueError):
        TileSystem(Alphabet("01"), [[[1, 2], [0, 0]]])
    # matrices may come from an iterator, which is read once
    with pytest.raises(ValueError):
        TileSystem(Alphabet("01"), iter([]))
    mats = [[[1, 1], [1, 0]], [[0, 1], [1, 0]]]
    assert TileSystem(Alphabet("01"), iter(mats)) == TileSystem(Alphabet("01"), mats)


@pytest.mark.parametrize("row, message", [
    pytest.param([1.9, 0], "matrices[1][1][0] is 1.9, entries must be the "
                 "integers 0 or 1", id="1.9"),
    pytest.param([0.5, 0], "matrices[1][1][0] is 0.5, entries must be the "
                 "integers 0 or 1", id="0.5"),
    pytest.param([True, 0], "matrices[1][1][0] is True, entries must be the "
                 "integers 0 or 1", id="True"),
    pytest.param(["1", 0], "matrices[1][1][0] is '1', entries must be the "
                 "integers 0 or 1", id="str"),
    pytest.param(7, "matrices[1][1] is not a row of length 2", id="non-list-row"),
    pytest.param([1], "matrices[1][1] is not a row of length 2", id="short-row"),
])
def test_tile_system_rejects_entries_without_coercion(row, message):
    """TileSystem is the one check of matrix entries: it coerces nothing and
    names the field as the system file does."""
    with pytest.raises(ValueError) as err:
        TileSystem(Alphabet("01"), [[[1, 1], [1, 0]], [[1, 1], row]])
    assert str(err.value) == message


@pytest.mark.parametrize("names, delta, message", [
    pytest.param((), (), "decorations.names must be a nonempty string list",
                 id="empty"),
    pytest.param(("d", "d"), (0, 1), "decorations.names has duplicate names",
                 id="duplicate"),
    pytest.param(("d", "e"), (0,), "decorations.delta must align with "
                 "decorations.names", id="misaligned"),
])
def test_decoration_map_checks_its_lists(names, delta, message):
    with pytest.raises(ValueError) as err:
        DecorationMap(names, delta)
    assert str(err.value) == message


def test_word_checks_its_box():
    with pytest.raises(ValueError, match=r"^negative shape \(-1, 0\)$"):
        Word((-1, 0), ())
    with pytest.raises(ValueError, match=r"^3 letters do not fill a box of shape \(1, 0\)$"):
        Word((1, 0), (0, 0, 0))


def test_validate_word_leaves_the_letter_count_to_word(gm2):
    with pytest.raises(ValueError, match=r"^3 letters do not fill a box of shape \(1, 0\)$"):
        validate_word(gm2, ["00"] * 3, shape=(1, 0))
    with pytest.raises(ValueError, match=r"^shape \(1,\) has wrong rank; system rank is 2$"):
        validate_word(gm2, ["00", "01"])


def test_validate_word_golden_mean(gm):
    w = validate_word(gm, ["0", "1", "0"])
    assert w.shape == (2,)
    assert (w.origin, w.terminus) == (0, 0)
    assert w.letters == (0, 1, 0)


def test_validate_word_violation(gm):
    with pytest.raises(InvalidWordError) as err:
        validate_word(gm, ["0", "1", "1"])
    assert err.value.violations == [((1,), 1)]


def test_validate_single_letter(gm2):
    w = validate_word(gm2, "01")
    assert w.shape == (0, 0)
    assert w.letters == (1,)


def test_validate_nested_grid(fs2):
    w = validate_word(fs2, [["00", "01"], ["10", "11"]])
    assert w.shape == (1, 1)
    assert w.at((1, 0)) == fs2.alphabet.resolve("10")


def test_validate_flat_with_shape(gm2):
    w = validate_word(gm2, ["00", "00", "00", "00"], shape=(1, 1))
    assert w.shape == (1, 1)


def test_validate_rejects_unknown_letter(gm):
    with pytest.raises(Exception):
        validate_word(gm, ["0", "x"])


def test_validate_rejects_ragged(gm2):
    with pytest.raises(ValueError):
        validate_word(gm2, [["00", "01"], ["10"]])


def test_word_of_shape_zero_is_letter(gm):
    w = letter_word(1, 1)
    assert w.shape == (0,)
    assert w.origin == w.terminus == 1
    assert validate_word(gm, ["1"]).letters == w.letters


def test_alphabet_resolve_bounds(gm):
    from rankshift import UnknownLetterError
    assert gm.alphabet.resolve(1) == 1
    with pytest.raises(UnknownLetterError):
        gm.alphabet.resolve(2)
    with pytest.raises(UnknownLetterError):
        gm.alphabet.resolve("2")



def test_equal_alphabets_and_systems_hash_alike(gm, gm2):
    """Alphabets and systems key dicts and sets by value; their reprs name
    the rank and the letters."""
    alphabet = Alphabet(["0", "1"])
    copy = TileSystem(alphabet, [[[1, 1], [1, 0]]])
    assert hash(alphabet) == hash(gm.alphabet) and hash(copy) == hash(gm)
    assert {gm: "gm", gm2: "gm2"}[copy] == "gm"
    assert len({gm.alphabet, alphabet, gm2.alphabet}) == 2
    assert repr(alphabet) == "Alphabet(['0', '1'])"
    assert repr(gm) == "TileSystem(rank=1, letters=['0', '1'])"
    assert repr(gm2) == "TileSystem(rank=2, letters=['00', '01', '10', '11'])"


@pytest.mark.parametrize("matrix", [5, None, "01", [[1, 1]], [[1, 1]] * 3,
                                    {0: [1, 1], 1: [1, 1]}])
def test_a_matrix_that_is_not_n_rows_is_rejected(matrix):
    with pytest.raises(ValueError, match=r"^matrices\[1\] is not 2x2$"):
        TileSystem(Alphabet(["0", "1"]), [[[1, 1], [1, 1]], matrix])


def test_decoration_map_resolves_names_and_indices():
    from rankshift import UnknownLetterError
    dmap = DecorationMap(("x", "y", "z"), (0, 1, 1))
    assert [dmap.resolve(d) for d in ("x", "y", "z", 0, 1, 2)] == [0, 1, 2, 0, 1, 2]
    for name in ("w", "0", "X", ""):
        with pytest.raises(UnknownLetterError, match=rf"^unknown decoration {name!r}$"):
            dmap.resolve(name)


def test_decorated_word_shape_is_its_word_shape(gm2):
    dmap = DecorationMap.identity(gm2.alphabet)
    for w in itertools.islice(words_of_shape(gm2, (2, 1)), 5):
        dw = dmap.attach(w.origin, w)
        assert dw.shape == w.shape == (2, 1)


@pytest.mark.parametrize("cells, message", [
    ([], "empty axis in letter grid"),
    ([[]], "empty axis in letter grid"),
    ([["00", "01"], []], "ragged letter grid"),
    ([["00", "01"], ["10", ["11"]]], "ragged letter grid"),
])
def test_validate_word_rejects_malformed_grids(gm2, cells, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        validate_word(gm2, cells)

@pytest.mark.parametrize("index", [1.9, 1.0, 0.0, True, False])
def test_resolve_takes_int_indices_only(gm, index):
    """A letter or decoration index is an int, not a bool: nothing is
    rounded, and a non-int is rejected as an out-of-range index is."""
    from rankshift import UnknownLetterError
    with pytest.raises(UnknownLetterError, match=r"^letter index .* out of range$"):
        gm.alphabet.resolve(index)
    with pytest.raises(UnknownLetterError, match=r"^decoration index .* out of range$"):
        DecorationMap.identity(gm.alphabet).resolve(index)


@pytest.mark.parametrize("delta", [-1, 7, True, 1.0, "1"])
def test_delta_entries_are_checked_against_the_system(tmp_path, gm, delta):
    """A delta entry that is no letter index of the system raises one
    ValueError naming it, from every path that reads delta against a system
    (by_letter), instead of counting the last letter or letter 1."""
    dmap = DecorationMap(("x", "y"), (0, delta))
    message = (rf"^decorations\.delta\[1\] is {re.escape(repr(delta))}, "
               rf"not a letter index of a 2-letter system$")
    with pytest.raises(ValueError, match=message):
        dim_vector(gm, dmap, (1,))
    with pytest.raises(ValueError, match=message):
        bratteli(gm, dmap, (1,))
    with pytest.raises(ValueError, match=message):
        save_system(gm, tmp_path / "x.json", dmap)
    assert not (tmp_path / "x.json").exists()


def test_word_at_rejects_bad_cells(gm):
    w = validate_word(gm, ["0", "1", "0"])
    assert w.at((2,)) == 0
    with pytest.raises(ValueError):
        w.at((3,))
    with pytest.raises(ValueError):
        w.at((1, 0))


@pytest.mark.parametrize("cell", [(True, 0), (1.0, 0), ("1", 0)])
def test_word_at_takes_int_cells(cell):
    """A cell is a tuple of ints: a bool or a float equal to one is not read
    as the cell of that int."""
    w = Word((1, 1), (0, 1, 2, 3))
    assert w.at((1, 0)) == 2
    with pytest.raises(TypeError, match=r"^cell \(.*\) has a component that is not an integer$"):
        w.at(cell)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_validate_agrees_with_naive_scan(gm2, data):
    """validate_word accepts exactly the grids an independent edge scan accepts."""
    shape = (data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)))
    n = 1
    for m in shape:
        n *= m + 1
    letters = tuple(data.draw(st.integers(0, 3)) for _ in range(n))

    # naive scan, written out independently of word_violations
    st_ = strides(shape)
    ok = True
    for cell in box_cells(shape):
        idx = sum(c * s for c, s in zip(cell, st_))
        for j in (1, 2):
            if cell[j - 1] < shape[j - 1]:
                nxt = letters[idx + st_[j - 1]]
                if not gm2.matrices[j - 1][nxt][letters[idx]]:
                    ok = False
    names = [gm2.alphabet.name(a) for a in letters]
    if ok:
        assert validate_word(gm2, names, shape=shape).letters == letters
    else:
        with pytest.raises(InvalidWordError):
            validate_word(gm2, names, shape=shape)


def _stride_sum_offsets(shape, lo, hi):
    """The stride sums of the cells of [lo, hi], in row-major order."""
    st_ = strides(shape)
    cells = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return [sum(c * s for c, s in zip(cell, st_)) for cell in cells]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_box_offsets_match_stride_sums(data):
    """box_offsets lists the stride sums of the sub-box cells, in row-major order."""
    rank = data.draw(st.integers(0, 3))
    shape = tuple(data.draw(st.integers(0, 3)) for _ in range(rank))
    # lo and hi are drawn independently, so hi < lo (an empty sub-box) occurs
    lo = tuple(data.draw(st.integers(0, m)) for m in shape)
    hi = tuple(data.draw(st.integers(0, m)) for m in shape)
    assert box_offsets(shape, lo, hi) == _stride_sum_offsets(shape, lo, hi)
    assert box_offsets(shape, (0,) * rank, shape) == list(range(len(list(box_cells(shape)))))
    assert box_offsets((2, 2), (1, 2), (1, 1)) == []


@pytest.mark.parametrize("shape, lo, hi", [
    # row starts: lo = hi = 0 in the last direction, ranks 1-4
    ((5,), (0,), (0,)), ((30, 21), (0, 0), (30, 0)), ((3, 21), (1, 0), (2, 0)),
    ((20, 16, 5), (0, 0, 0), (20, 16, 0)), ((29, 14, 12), (0, 1, 0), (28, 14, 0)),
    ((3, 4, 2, 5), (0, 1, 0, 0), (3, 4, 2, 0)),
    # lo = hi != 0 in a middle direction of rank 3
    ((4, 5, 3), (0, 2, 0), (4, 2, 3)), ((4, 5, 3), (1, 5, 2), (3, 5, 3)),
    ((4, 5, 3), (0, 3, 3), (4, 3, 3)),
    # empty in one direction only, after a fixed direction
    ((4, 5), (1, 3), (1, 2)), ((4, 5, 3), (2, 3, 1), (2, 2, 3)),
    ((4, 5, 3), (0, 2, 3), (4, 2, 1)), ((3, 4, 5, 2), (1, 2, 4, 0), (3, 2, 3, 2)),
])
def test_box_offsets_pinned_cases(shape, lo, hi):
    """Fixed directions (lo = hi), zero or not, and an empty direction behind
    one give the stride-sum positions; the empty cases give no position."""
    want = _stride_sum_offsets(shape, lo, hi)
    assert box_offsets(shape, lo, hi) == want
    assert (want == []) == any(a > b for a, b in zip(lo, hi))


def test_word_at_reads_the_row_major_letter():
    """Word.at(cell) is the letter at the cell's stride sum, on every cell."""
    for shape in [(0,), (4,), (2, 3), (1, 0, 2), (2, 1, 3)]:
        w = Word(shape, tuple(range(box_size(shape))))
        assert [w.at(cell) for cell in box_cells(shape)] == list(w.letters)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_first_overlap_row_from_stride_sums(data):
    """The first row of the overlap of [0, l] and [q, q + l] starts at the
    stride sums of max(q, 0) in the first box and max(-q, 0) in the second,
    and has width l_r - |q_r| + 1: the three numbers separating_family's
    candidate index reads without a plan."""
    rank = data.draw(st.integers(1, 3))
    l = tuple(data.draw(st.integers(0, 4 - rank // 3)) for _ in range(rank))
    st_ = strides(l)
    for q in itertools.product(*(range(-b, b + 1) for b in l)):
        first = (sum(max(c, 0) * s for c, s in zip(q, st_)),
                 sum(max(-c, 0) * s for c, s in zip(q, st_)))
        width, rows = overlap_rows(l, l, q)
        assert (rows[0], width) == (first, l[-1] - abs(q[-1]) + 1), (l, q)


def test_render_matches_joined_names():
    """One-cell words, multi-character names and tensor names with dots
    render as the names joined with commas."""
    dotted = tensor([from_rank1(["aa", "b"], [[1, 1], [1, 0]]), full_shift(2)])
    assert dotted.alphabet.letters[0] == "aa.0"
    cases = [
        (Alphabet(["a", "bc"]), Word((0,), (1,)), "bc"),
        (Alphabet(["a", "bc"]), Word((0, 0), (0,)), "a"),
        (Alphabet(["x1", "long-name", "z"]), Word((2,), (1, 0, 2)), "long-name,x1,z"),
        (dotted.alphabet, Word((1, 1), (0, 1, 2, 3)), "aa.0,aa.1,b.0,b.1"),
    ]
    for alphabet, w, text in cases:
        assert w.render(alphabet) == text
        assert w.render(alphabet) == ",".join(map(alphabet.letters.__getitem__, w.letters))


def test_restrict_identity(fs2):
    w = next(words_of_shape(fs2, (2, 1)))
    assert restrict(w, (0, 0), (2, 1)) == w


def test_restrict_reindexes(gm):
    w = validate_word(gm, ["0", "1", "0"])
    assert restrict(w, (1,), (2,)).letters == (1, 0)


def test_restrict_decorated_drop_keep(gm2):
    dmap = DecorationMap.identity(gm2.alphabet)
    w = next(words_of_shape(gm2, (1, 1)))
    dw = dmap.attach(gm2.alphabet.name(w.origin), w)
    kept = restrict(dw, (0, 0), (1, 0))
    assert kept.decoration == dw.decoration
    dropped = restrict(dw, (1, 0), (1, 1))
    assert isinstance(dropped, Word)


def test_restrict_bounds_checked(gm):
    w = validate_word(gm, ["0", "1", "0"])
    with pytest.raises(ValueError):
        restrict(w, (1,), (3,))
    with pytest.raises(ValueError):
        restrict(w, (2,), (1,))
    with pytest.raises(ValueError, match="rank mismatch"):
        restrict(w, (0, 0), (1, 0))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_restrict_composition(fs2, data):
    """restrict(restrict(w,k,l), k', l') == restrict(w, k+k', k+l')."""
    shape = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
    w = data.draw(st.sampled_from(list(words_of_shape(fs2, shape))[:50]))
    k = tuple(data.draw(st.integers(0, s)) for s in shape)
    l = tuple(data.draw(st.integers(kj, s)) for kj, s in zip(k, shape))
    inner_shape = sub(l, k)
    k2 = tuple(data.draw(st.integers(0, s)) for s in inner_shape)
    l2 = tuple(data.draw(st.integers(kj, s)) for kj, s in zip(k2, inner_shape))
    lhs = restrict(restrict(w, k, l), k2, l2)
    rhs = restrict(w, tuple(a + b for a, b in zip(k, k2)),
                   tuple(a + b for a, b in zip(k, l2)))
    assert lhs == rhs


def test_periodic_constant_word(fs2):
    a = fs2.alphabet.resolve("00")
    w = Word((2, 0), (a, a, a))
    assert is_periodic(w, (1, 0))


def test_periodic_gm_010(gm):
    w = validate_word(gm, ["0", "1", "0"])
    assert not is_periodic(w, (1,))
    assert is_periodic(w, (2,))


def test_periodic_empty_overlap_vacuous(gm):
    w = validate_word(gm, ["0", "1", "0"])
    assert is_periodic(w, (3,))
    assert is_periodic(w, (-3,))


def test_periodic_rejects_zero(gm):
    w = validate_word(gm, ["0"])
    with pytest.raises(ValueError):
        is_periodic(w, (0,))


def test_periodic_symmetric(fs2):
    for w in itertools.islice(words_of_shape(fs2, (2, 2)), 40):
        for p in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (-1, 2)]:
            assert is_periodic(w, p) == is_periodic(w, tuple(-c for c in p))


def _reference_agree(w1, w2, p):
    """Per-cell overlap check through cell -> letter maps; no row-major positions."""
    g2 = dict(zip(box_cells(w2.shape), w2.letters))
    return all(g2.get(tuple(a - b for a, b in zip(x, p)), letter) == letter
               for x, letter in zip(box_cells(w1.shape), w1.letters))


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_translates_agree_matches_per_cell_reference(data):
    """Row slices give the per-cell answer: random letters, agreeing pairs,
    and agreeing pairs broken at one overlap cell (often the very last)."""
    rank = data.draw(st.integers(0, 3))
    l1 = tuple(data.draw(st.integers(0, 3)) for _ in range(rank))
    l2 = tuple(data.draw(st.integers(0, 3)) for _ in range(rank))
    # components up to two past either box, so some overlaps are empty
    p = tuple(data.draw(st.integers(-b - 2, a + 2)) for a, b in zip(l1, l2))
    letters = st.integers(0, 2)
    w1 = Word(l1, tuple(data.draw(st.lists(letters, min_size=box_size(l1),
                                           max_size=box_size(l1)))))
    g2 = dict(zip(box_cells(l2), data.draw(st.lists(
        letters, min_size=box_size(l2), max_size=box_size(l2)))))
    overlap = [x for x in box_cells(l1)
               if tuple(a - b for a, b in zip(x, p)) in g2]
    mode = data.draw(st.sampled_from(["random", "agree", "break"]))
    if mode != "random":
        for x in overlap:
            g2[tuple(a - b for a, b in zip(x, p))] = w1.at(x)
        if mode == "break" and overlap:
            k = data.draw(st.just(-1) | st.integers(0, len(overlap) - 1))
            y = tuple(a - b for a, b in zip(overlap[k], p))
            g2[y] = (g2[y] + 1) % 3
    w2 = Word(l2, tuple(g2.values()))
    expected = _reference_agree(w1, w2, p)
    assert translates_agree(w1, w2, p) == expected
    if mode == "agree" or not overlap:
        assert expected
    elif mode == "break":
        assert not expected
    if any(p):
        assert is_periodic(w1, p) == is_periodic(w1, tuple(-c for c in p))


def test_translates_agree_rejects_rank_mismatch():
    w = Word((1, 1), (0, 1, 1, 0))
    with pytest.raises(ValueError):
        translates_agree(w, w, (1,))
    with pytest.raises(ValueError):
        translates_agree(w, w, (1, 0, 0))
    with pytest.raises(ValueError):
        translates_agree(w, Word((1,), (0, 1)), (1, 0))
    with pytest.raises(ValueError):
        translates_agree(w, Word((1, 1, 1), (0,) * 8), (1, 0))


def test_shapes_upto_is_the_shape_key_order():
    """shapes_upto sorts by grade only and relies on row-major order of the
    reversed bound for ties; shape_key is the order it must give."""
    rng = random.Random(0x5A9E)
    bounds = [()] + [tuple(rng.choice([0, 0, 1, 2, 3, 5]) for _ in range(rank))
                     for rank in (1, 2, 3, 4) for _ in range(25)]
    assert any(0 in b and any(b) for b in bounds)
    for bound in bounds:
        assert shapes_upto(bound) == sorted(box_cells(bound), key=shape_key), bound


def test_translate_reps_cover_classes():
    reps = translate_reps((2, 2))
    assert len(reps) == 12
    seen = set()
    for p in reps:
        assert p not in seen and tuple(-c for c in p) not in seen
        seen.add(p)


def test_decoration_map_attach_enforces_origin(gm):
    dmap = DecorationMap.identity(gm.alphabet)
    w = validate_word(gm, ["0", "1"])
    dmap.attach("0", w)
    with pytest.raises(ValueError):
        dmap.attach("1", w)


def test_word_violations_empty_for_valid(gm2):
    for w in itertools.islice(words_of_shape(gm2, (2, 1)), 10):
        assert word_violations(gm2, w.shape, w.letters) == []


def test_check_shape(gm2):
    assert check_shape(gm2, [1, 2], "shape") == (1, 2)
    with pytest.raises(ValueError, match=r"^bound \(1,\) has wrong rank; system rank is 2$"):
        check_shape(gm2, (1,), "bound")
    with pytest.raises(ValueError, match=r"^bound \(1, -1\) has a negative component$"):
        check_shape(gm2, (1, -1), "bound")



@pytest.mark.parametrize("j", [True, False, 1.0, "1", 0, 3])
def test_unit_takes_int_directions_in_range(j):
    """A direction is an int in 1..rank, not a bool or a float equal to one."""
    assert unit(2, 1) == (1, 0) and unit(2, 2) == (0, 1)
    with pytest.raises(ValueError, match=rf"^direction {j} out of range 1\.\.2$"):
        unit(2, j)


_DIRECTION_ARGUMENTS = {
    "unit": lambda ts, j: unit(ts.rank, j),
    "check_h3_star": lambda ts, j: check_h3_star(ts, j),
    "extend_unit": lambda ts, j: extend_unit(ts, letter_word(ts.rank, 0), j, 0),
    "extend_along step": lambda ts, j: extend_along(ts, letter_word(ts.rank, 0), (1, 1),
                                                    [(1, 0), (j, 0)]),
    "word_from_path step": lambda ts, j: word_from_path(ts, 0, [(1, 0), (j, 0)]),
    "edge_multiplicity": lambda ts, j: bratteli(
        ts, DecorationMap.identity(ts.alphabet), (1, 1)).edge_multiplicity((0, 0), j, 0, 0),
}


@pytest.mark.parametrize("name", sorted(_DIRECTION_ARGUMENTS))
@pytest.mark.parametrize("j", [True, 1.0, 0, 3])
def test_direction_arguments_are_checked(fs2, name, j):
    """Every direction argument meets the one check: a bool, a float equal to
    a direction or a direction out of 1..rank raises its ValueError, not the
    answer for direction 1 or a bare TypeError.  A step's message names it."""
    step = "step 1: " if name == "word_from_path step" else ""
    message = re.escape(f"{step}direction {j} out of range 1..{fs2.rank}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        _DIRECTION_ARGUMENTS[name](fs2, j)


_LETTER_ARGUMENTS = {
    "word_from_path origin": lambda ts, a: word_from_path(ts, a, []),
    "word_from_path step": lambda ts, a: word_from_path(ts, 0, [(1, 0), (2, a)]),
    "extend_unit": lambda ts, a: extend_unit(ts, letter_word(ts.rank, 0), 1, a),
    "extend_along step": lambda ts, a: extend_along(ts, letter_word(ts.rank, 0), (1, 1),
                                                    [(1, 0), (2, a)]),
    "connect a": lambda ts, a: connect(ts, a, 3, (1, 1)),
    "connect b": lambda ts, a: connect(ts, 0, a, (1, 1)),
    "nonperiodic_all": lambda ts, a: nonperiodic_all(ts, (1, 1), a),
}


@pytest.mark.parametrize("name", sorted(_LETTER_ARGUMENTS))
@pytest.mark.parametrize("a", [-1, 4, True, 1.0])
def test_letter_arguments_are_checked(gm2, name, a):
    """Every letter argument goes through ``Alphabet.resolve``: -1, the
    alphabet's size, a bool or a float equal to a letter raises its
    UnknownLetterError, not a word holding it, a wrapped letter's error or a
    bare IndexError."""
    assert gm2.n_letters == 4
    message = re.escape(f"letter index {a!r} out of range")
    with pytest.raises(UnknownLetterError, match=f"^{message}$"):
        _LETTER_ARGUMENTS[name](gm2, a)


_SHAPE_ARGUMENTS = {
    "words_of_shape": lambda ts, s: list(words_of_shape(ts, s)),
    "extend_along": lambda ts, s: extend_along(ts, letter_word(2, 0), s, []),
    "validate_word": lambda ts, s: validate_word(ts, ["00"] * 2, shape=s),
    "list_extensions": lambda ts, s: list_extensions(ts, letter_word(2, 0), s),
    "connect": lambda ts, s: connect(ts, 0, 3, s),
    "nonperiodic_all": lambda ts, s: nonperiodic_all(ts, s, 0),
    "projection_support m": lambda ts, s: projection_support(
        ts, DecorationMap.identity(ts.alphabet), s, (0, 0), {}),
    "projection_support l": lambda ts, s: projection_support(
        ts, DecorationMap.identity(ts.alphabet), (0, 0), s, {}),
    "projection_support total": lambda ts, s: projection_support(
        ts, DecorationMap.identity(ts.alphabet), (0, 0), (0, 0), {}, s),
    "dim_vector": lambda ts, s: dim_vector(ts, DecorationMap.identity(ts.alphabet), s),
    "bratteli": lambda ts, s: bratteli(ts, DecorationMap.identity(ts.alphabet), s),
    "separating_family": lambda ts, s: separating_family(ts, s),
    "redecorate_by_shape": lambda ts, s: redecorate_by_shape(
        ts, DecorationMap.identity(ts.alphabet), dict.fromkeys(ts.alphabet, s)),
}


@pytest.mark.parametrize("name", sorted(_SHAPE_ARGUMENTS))
@pytest.mark.parametrize("shape, message", [
    pytest.param((1,), "has wrong rank; system rank is 2", id="rank-1"),
    pytest.param((1, 1, 1), "has wrong rank; system rank is 2", id="rank-3"),
    pytest.param((-2, 1), "has a negative component", id="negative"),
    pytest.param((1.5, 0), "is not an integer", id="float"),
    pytest.param((True, 0), "is not an integer", id="bool"),
    pytest.param(("1", 0), "is not an integer", id="str"),
])
def test_shape_arguments_are_checked(gm2, name, shape, message):
    """A shape or bound of the wrong rank, or with a negative or non-int
    component, raises the one ValueError, not a wrong-rank answer, an
    IndexError or the answer for a rounded shape."""
    with pytest.raises(ValueError, match=message):
        _SHAPE_ARGUMENTS[name](gm2, shape)


@pytest.mark.parametrize("corner", [(1.5, 0), ("1", 0), (True, 0), (1.0, 0)])
def test_restrict_rounds_no_corner(gm2, corner):
    """restrict takes int corners only: a float, str or bool corner raises
    TypeError, not the sub-box at its integer part or at the int it equals."""
    w = next(words_of_shape(gm2, (2, 2)))
    with pytest.raises(TypeError):
        restrict(w, corner, (2, 2))
    with pytest.raises(TypeError):
        restrict(w, (0, 0), corner)


def test_redecorate_by_shape_names_a_bad_key(gm):
    """Every decoration needs a shape, and every key names a decoration."""
    dmap = DecorationMap.identity(gm.alphabet)
    with pytest.raises(ValueError, match=r"^shape_of has no shape for decoration '1'$"):
        redecorate_by_shape(gm, dmap, {"0": (1,)})
    with pytest.raises(ValueError, match=r"^shape_of names unknown decoration 'z'$"):
        redecorate_by_shape(gm, dmap, {"0": (1,), "1": (0,), "z": (1,)})
