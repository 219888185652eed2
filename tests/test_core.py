import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rankshift import (
    Alphabet,
    DecorationMap,
    InvalidWordError,
    TileSystem,
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
    shape_key,
    shapes_upto,
    strides,
    sub,
    translate_reps,
    word_violations,
)
from rankshift.builders import from_rank1
from rankshift.af_core import bratteli, dim_vector
from rankshift.completion import extend_along, list_extensions, words_of_shape
from rankshift.witnesses import connect, nonperiodic_all, projection_support


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


def test_word_at_rejects_bad_cells(gm):
    w = validate_word(gm, ["0", "1", "0"])
    assert w.at((2,)) == 0
    with pytest.raises(ValueError):
        w.at((3,))
    with pytest.raises(ValueError):
        w.at((1, 0))


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


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_box_offsets_match_stride_sums(data):
    """box_offsets lists the stride sums of the sub-box cells, in row-major order."""
    rank = data.draw(st.integers(0, 3))
    shape = tuple(data.draw(st.integers(0, 3)) for _ in range(rank))
    # lo and hi are drawn independently, so hi < lo (an empty sub-box) occurs
    lo = tuple(data.draw(st.integers(0, m)) for m in shape)
    hi = tuple(data.draw(st.integers(0, m)) for m in shape)
    st_ = strides(shape)
    cells = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    reference = [sum(c * s for c, s in zip(cell, st_)) for cell in cells]
    assert box_offsets(shape, lo, hi) == reference
    assert box_offsets(shape, (0,) * rank, shape) == list(range(len(list(box_cells(shape)))))
    assert box_offsets((2, 2), (1, 2), (1, 1)) == []


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
}


@pytest.mark.parametrize("name", sorted(_SHAPE_ARGUMENTS))
@pytest.mark.parametrize("shape, message", [
    pytest.param((1,), "has wrong rank; system rank is 2", id="rank-1"),
    pytest.param((1, 1, 1), "has wrong rank; system rank is 2", id="rank-3"),
    pytest.param((-2, 1), "has a negative component", id="negative"),
])
def test_shape_arguments_are_checked(gm2, name, shape, message):
    """A shape or bound of the wrong rank, or with a negative component,
    raises the one ValueError, not a wrong-rank answer or an IndexError."""
    with pytest.raises(ValueError, match=message):
        _SHAPE_ARGUMENTS[name](gm2, shape)
