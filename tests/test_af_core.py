import itertools
import random

import pytest

from rankshift import DecorationMap, UnknownLetterError, bratteli, dim_vector
from rankshift.af_core import _step
from rankshift.builders import random_system
from rankshift.completion import decorated_words_of_shape
from rankshift.core import add, box_cells, shapes_upto, sub, unit, zero
from rankshift.verify import Status, check_h1_local
from conftest import circulant


def _enumerated_dims(ts, dmap, m):
    counts = [0] * ts.n_letters
    for dw in decorated_words_of_shape(ts, dmap, m):
        counts[dw.word.terminus] += 1
    return tuple(counts)


def test_dim_vector_shape_zero_identity(gm2):
    dmap = DecorationMap.identity(gm2.alphabet)
    assert dim_vector(gm2, dmap, (0, 0)) == (1, 1, 1, 1)


def test_dim_vector_gm2_headline(gm2):
    dmap = DecorationMap.identity(gm2.alphabet)
    dims = dim_vector(gm2, dmap, (1, 1))
    assert dims == (4, 2, 2, 1)
    assert sum(dims) == 9


def test_dim_vector_fs2_headline(fs2):
    dmap = DecorationMap.identity(fs2.alphabet)
    dims = dim_vector(fs2, dmap, (1, 1))
    assert dims == (4, 4, 4, 4)
    assert sum(dims) == 16


def test_dim_vector_rejects_negative_shape(gm2):
    dmap = DecorationMap.identity(gm2.alphabet)
    with pytest.raises(ValueError, match="negative"):
        dim_vector(gm2, dmap, (2, -1))


def test_bratteli_rejects_negative_bound(gm):
    dmap = DecorationMap.identity(gm.alphabet)
    with pytest.raises(ValueError, match="negative"):
        bratteli(gm, dmap, (-1,))


def test_dim_vector_matches_enumeration_small(corpus):
    for name, ts in corpus:
        dmap = DecorationMap.identity(ts.alphabet)
        bound = (2,) * ts.rank
        for m in box_cells(bound):
            assert dim_vector(ts, dmap, m) == _enumerated_dims(ts, dmap, m), \
                (name, m)


def test_bratteli_levels_match_dim_vector():
    """Each level is one step from the level before it, along dim_vector's path.

    Most draws of rank 2 or 3 do not commute, so a diagram that stepped along
    another path (from the first nonzero direction, say) would differ from
    dim_vector here; the commuting gm2 of test_bratteli_dims_recursion
    cannot tell the two apart.
    """
    rng = random.Random(20261018)
    non_commuting = 0
    for _ in range(60):
        rank = rng.randint(1, 3)
        ts = random_system(rng, rng.randint(2, 4), rank)
        dmap = DecorationMap.identity(ts.alphabet)
        upto = tuple(rng.randint(0, 4) for _ in range(rank))
        diagram = bratteli(ts, dmap, upto)
        assert sorted(diagram.nodes) == sorted(box_cells(upto))
        for m in box_cells(upto):
            assert diagram.dims(m) == dim_vector(ts, dmap, m), (ts.matrices, m)
        non_commuting += any(_matmul(a, b) != _matmul(b, a)
                             for a, b in itertools.combinations(ts.matrices, 2))
    assert non_commuting >= 10


def _mat_vec(mat, v):
    return tuple(sum(row[a] * v[a] for a in range(len(v))) for row in mat)


def _dense_counts(ts, dmap, upto):
    """Every level of [0, upto] by dense matrix-vector products: dim_vector's
    path for each shape, and bratteli's one step from m - e_j (j the last
    direction with m_j > 0)."""
    d0 = [0] * ts.n_letters
    for a in dmap.delta:
        d0[a] += 1
    by_path, nodes = {}, {zero(ts.rank): tuple(d0)}
    for m in shapes_upto(upto):
        d = tuple(d0)
        for j in range(1, ts.rank + 1):
            for _ in range(m[j - 1]):
                d = _mat_vec(ts.matrices[j - 1], d)
        by_path[m] = d
        if any(m):
            j = max(i for i, c in enumerate(m, 1) if c)
            nodes[m] = _mat_vec(ts.matrices[j - 1], nodes[sub(m, unit(ts.rank, j))])
    return by_path, nodes


def test_counts_match_dense_recursion():
    rng = random.Random(0xD1A)
    for _ in range(600):
        rank = rng.randint(1, 3)
        ts = random_system(rng, rng.randint(1, 6), rank,
                           density=rng.choice([0.2, 0.5, 0.8]))
        delta = [rng.randrange(ts.n_letters) for _ in range(rng.randint(1, 8))]
        dmap = DecorationMap(tuple(f"d{i}" for i in range(len(delta))), tuple(delta))
        upto = tuple(rng.randint(0, 3) for _ in range(rank))
        by_path, nodes = _dense_counts(ts, dmap, upto)
        diagram = bratteli(ts, dmap, upto)
        assert diagram.nodes == nodes, (ts.matrices, upto)
        # library callers see the levels in canonical order
        assert list(diagram.nodes) == shapes_upto(upto)
        for m, d in by_path.items():
            assert dim_vector(ts, dmap, m) == d, (ts.matrices, m)


def _per_level_bratteli(ts, dmap, upto):
    """The per-level recursion bratteli used before it stepped whole columns:
    each level in shapes_upto order is one _step from level m - e_j, j the
    last direction with m_j > 0."""
    nodes = {zero(ts.rank): dim_vector(ts, dmap, zero(ts.rank))}
    for m in shapes_upto(upto)[1:]:  # grade first: m - e_j comes before m
        j = max(i for i, c in enumerate(m, 1) if c)
        nodes[m] = _step(ts, j, nodes[(*m[:j - 1], m[j - 1] - 1, *m[j:])])
    return nodes


def _assert_same_as_per_level(ts, dmap, upto):
    nodes = bratteli(ts, dmap, upto).nodes
    expected = _per_level_bratteli(ts, dmap, upto)
    assert nodes == expected, (ts.matrices, dmap.delta, upto)
    assert list(nodes) == list(expected), upto


def test_column_step_matches_per_level_random():
    """Random systems of rank 1-4 with repeated decoration deltas, on bounds
    with leading zeros, all-zero bounds, u_k = 1 and u_k much larger than
    the rest (k the first direction with a nonzero bound)."""
    rng = random.Random(0xC01)
    for _ in range(200):
        rank = rng.randint(1, 4)
        ts = random_system(rng, rng.randint(1, 6), rank,
                           density=rng.choice([0.2, 0.5, 0.8]))
        delta = [rng.randrange(ts.n_letters) for _ in range(rng.randint(1, 8))]
        dmap = DecorationMap(tuple(f"d{i}" for i in range(len(delta))), tuple(delta))
        lead = rng.randrange(rank)
        u_k = rng.choice([1, 1, 2, 3, 9])
        rest = [rng.randint(0, 4 if rank < 4 else 2) for _ in range(rank - lead - 1)]
        for upto in [(0,) * rank, (*[0] * lead, u_k, *rest),
                     tuple(rng.randint(0, 3) for _ in range(rank))]:
            _assert_same_as_per_level(ts, dmap, upto)


@pytest.mark.parametrize("upto", [(0, 0), (0, 7), (5, 0), (1, 6), (12, 1), (3, 3)])
def test_column_step_matches_per_level_rank2(gm2, upto):
    _assert_same_as_per_level(gm2, DecorationMap(("x", "y", "z"), (3, 0, 3)), upto)


@pytest.mark.parametrize("upto", [(0, 0, 0), (0, 0, 4), (0, 3, 2), (1, 0, 2), (6, 1, 1)])
def test_column_step_matches_per_level_rank3(fs3, upto):
    _assert_same_as_per_level(fs3, DecorationMap.identity(fs3.alphabet), upto)


def test_column_step_matches_per_level_gm2_paper_scale(gm2):
    _assert_same_as_per_level(gm2, DecorationMap.identity(gm2.alphabet), (60, 60))


def test_counts_at_paper_scale():
    """A circulant on Z_420 with 16 predecessors per letter in each direction:
    the alphabet size and column weight q^2 of the paper's A~2 system for q = 4.
    S_1 + S_2 = {0, ..., 255} has distinct sums, so (H1) holds, and every
    level m has 16^(m_1 + m_2) words per terminus letter."""
    ts = circulant(420, [range(16), range(0, 256, 16)])
    assert check_h1_local(ts).status is Status.PASS
    diagram = bratteli(ts, DecorationMap.identity(ts.alphabet), (2, 2))
    assert len(diagram.nodes) == 9
    for m, dims in diagram.nodes.items():
        assert dims == (16 ** sum(m),) * 420, m


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_dim_vector_respects_decorations(gm):
    dmap = DecorationMap(("x", "y", "z"), (0, 0, 1))
    assert dim_vector(gm, dmap, (0,)) == (2, 1)
    # one step: d_1 = M d_0
    m = gm.matrices[0]
    d0 = (2, 1)
    expected = tuple(sum(m[b][a] * d0[a] for a in range(2)) for b in range(2))
    assert dim_vector(gm, dmap, (1,)) == expected


def test_dim_vector_path_independence(gm2):
    """Any monotone lattice path gives the same counts."""
    dmap = DecorationMap.identity(gm2.alphabet)
    target = (2, 3)

    def along(path):
        d = [0] * gm2.n_letters
        for a in dmap.delta:
            d[a] += 1
        for j in path:
            mat = gm2.matrices[j - 1]
            d = [sum(mat[b][a] * d[a] for a in range(4)) for b in range(4)]
        return tuple(d)

    paths = set()
    for perm in itertools.permutations([1] * target[0] + [2] * target[1]):
        paths.add(perm)
    results = {along(p) for p in paths}
    assert results == {dim_vector(gm2, dmap, target)}


def test_total_counts_factorize_for_tensor(gm, gm2):
    dmap1 = DecorationMap.identity(gm.alphabet)
    dmap2 = DecorationMap.identity(gm2.alphabet)
    for m1 in range(4):
        for m2 in range(4):
            t1 = sum(dim_vector(gm, dmap1, (m1,)))
            t2 = sum(dim_vector(gm, dmap1, (m2,)))
            assert sum(dim_vector(gm2, dmap2, (m1, m2))) == t1 * t2


def test_counts_use_arbitrary_precision(fs2):
    dmap = DecorationMap.identity(fs2.alphabet)
    total = sum(dim_vector(fs2, dmap, (200, 200)))
    assert total == 4 * (2 ** 200) * (2 ** 200)


def test_bratteli_single_level(gm):
    dmap = DecorationMap.identity(gm.alphabet)
    d = bratteli(gm, dmap, (0,))
    assert d.levels() == [(0,)]
    assert d.dims((0,)) == (1, 1)


def test_bratteli_gm_chain(gm):
    dmap = DecorationMap.identity(gm.alphabet)
    d = bratteli(gm, dmap, (2,))
    assert [d.dims(m) for m in d.levels()] == [(1, 1), (2, 1), (3, 2)]
    assert d.edge_multiplicity((0,), 1, 0, 1) == gm.matrices[0][1][0]
    # no level, or no level above it; True and 1.0 hash as the level 1
    for m in [(-1,), (0.5,), (2,), (True,), (1.0,)]:
        with pytest.raises(ValueError, match=r"^no level .* inside \[0, \(2,\)\]$"):
            d.edge_multiplicity(m, 1, 0, 1)
    for m in [(3,), (True,), (1.0,)]:
        with pytest.raises(KeyError):
            d.dims(m)


def test_edge_multiplicity_checks_letters_and_direction(gm):
    """Letters go through Alphabet.resolve and the direction through unit: a
    negative index does not wrap to the last letter, an index past the end
    is no bare IndexError, and True is no direction; names give the same
    entries as indices."""
    d = bratteli(gm, DecorationMap.identity(gm.alphabet), (2,))
    for bad in (-1, 2, True, 1.0):
        with pytest.raises(UnknownLetterError, match=r"^letter index .* out of range$"):
            d.edge_multiplicity((0,), 1, bad, 0)
        with pytest.raises(UnknownLetterError, match=r"^letter index .* out of range$"):
            d.edge_multiplicity((0,), 1, 0, bad)
    with pytest.raises(UnknownLetterError, match=r"^unknown letter '2'$"):
        d.edge_multiplicity((0,), 1, "2", 0)
    for j in (True, 1.0, 0, 2):
        with pytest.raises(ValueError, match=rf"^direction {j} out of range 1\.\.1$"):
            d.edge_multiplicity((0,), j, 0, 1)
    for a, b in itertools.product(range(2), repeat=2):
        entry = gm.matrices[0][b][a]
        assert d.edge_multiplicity((1,), 1, a, b) == entry
        assert d.edge_multiplicity((1,), 1, str(a), str(b)) == entry
        assert d.edge_multiplicity((1,), 1, gm.alphabet.name(a), b) == entry


def test_bratteli_commuting_squares(corpus):
    """Both composite multiplicity matrices around a lattice cell agree."""
    for name, ts in corpus:
        if ts.rank < 2:
            continue
        n = ts.n_letters
        for i in range(1, ts.rank + 1):
            for j in range(i + 1, ts.rank + 1):
                mi, mj = ts.matrices[i - 1], ts.matrices[j - 1]
                prod_ij = [[sum(mi[b][c] * mj[c][a] for c in range(n))
                            for a in range(n)] for b in range(n)]
                prod_ji = [[sum(mj[b][c] * mi[c][a] for c in range(n))
                            for a in range(n)] for b in range(n)]
                assert prod_ij == prod_ji, (name, i, j)


def test_bratteli_dims_recursion(gm2):
    dmap = DecorationMap.identity(gm2.alphabet)
    d = bratteli(gm2, dmap, (2, 2))
    for m in d.levels():
        for j in (1, 2):
            target = add(m, unit(2, j))
            if target not in d.nodes:
                continue
            mat = gm2.matrices[j - 1]
            expected = tuple(sum(mat[b][a] * d.dims(m)[a] for a in range(4))
                             for b in range(4))
            assert d.dims(target) == expected


def test_bratteli_diagonal(fs2):
    dmap = DecorationMap.identity(fs2.alphabet)
    d = bratteli(fs2, dmap, (2, 2))
    chain = d.diagonal()
    assert [m for m, _ in chain] == [(0, 0), (1, 1), (2, 2)]
    assert [sum(v) for _, v in chain] == [4, 16, 64]


def test_bratteli_exports(gm):
    dmap = DecorationMap.identity(gm.alphabet)
    d = bratteli(gm, dmap, (2,))
    data = d.to_json()
    assert data["levels"][0] == {"shape": [0], "dims": {"0": 1, "1": 1},
                                 "total": 2}
    dot = d.to_dot()
    assert "digraph" in dot
    assert '"0|0" -> "1|0"' in dot
    # rendered twice, identical bytes
    assert dot == bratteli(gm, dmap, (2,)).to_dot()

