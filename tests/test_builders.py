import random
import re

import pytest

from rankshift import DecorationMap, from_rank1, full_shift, tensor
from rankshift.builders import random_system, redecorate_by_shape
from rankshift.af_core import dim_vector
from rankshift.verify import Status, check_h0, check_h1_local, check_h2


def test_from_rank1_golden_mean(gm):
    ts = from_rank1("01", [[1, 1], [1, 0]])
    assert ts == gm
    assert ts.rank == 1


def test_from_rank1_one_by_one(single):
    ts = from_rank1(["a"], [[1]])
    assert ts == single


def test_from_rank1_identity_fails_h2(identity2):
    assert check_h2(identity2).status is Status.FAIL


def test_from_rank1_dimension_mismatch():
    with pytest.raises(ValueError):
        from_rank1("01", [[1, 1, 1], [1, 0, 1]])


def test_tensor_fs2_structure(fs2):
    assert fs2.alphabet.letters == ("00", "01", "10", "11")
    n = 4
    j_mat = [[1, 1], [1, 1]]
    ident = [[1, 0], [0, 1]]

    def kron(p, q):
        return [[p[b1][a1] * q[b2][a2] for a1 in range(2) for a2 in range(2)]
                for b1 in range(2) for b2 in range(2)]

    assert [list(r) for r in fs2.matrices[0]] == kron(j_mat, ident)
    assert [list(r) for r in fs2.matrices[1]] == kron(ident, j_mat)


def test_tensor_gm2_passes_h1(gm2):
    assert check_h1_local(gm2).status is Status.PASS


def test_tensor_single_factor_identity(gm):
    """One factor, through the general path, is the factor itself: its names
    (single- or multi-character) and its matrix."""
    rng = random.Random(27)
    factors = [gm, full_shift(3), from_rank1(["aa", "b"], [[1, 1], [1, 0]])]
    factors += [random_system(rng, rng.randint(1, 5), 1) for _ in range(20)]
    for factor in factors:
        out = tensor([factor])
        assert out == factor, factor.matrices


def test_tensor_rejects_higher_rank(gm2):
    with pytest.raises(ValueError):
        tensor([gm2])


@pytest.mark.parametrize("factors, message", [
    ([], "tensor of zero systems"),
    # a.b.c is both a + b.c and a.b + c
    ([from_rank1(["a", "a.b"], [[1, 1], [1, 1]]),
      from_rank1(["b.c", "c"], [[1, 1], [1, 1]])],
     "tensor letter names collide; rename the factor letters"),
])
def test_tensor_rejects_factors(factors, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tensor(factors)


def test_tensor_multichar_names_use_dots():
    # a comma would split a letter name where words list their cells
    ts = from_rank1(["aa", "b"], [[1, 1], [1, 1]])
    out = tensor([ts, ts])
    assert out.alphabet.letters == ("aa.aa", "aa.b", "b.aa", "b.b")


def test_tensor_preserves_h0_h1_h2(gm, full2, identity2):
    for f1 in (gm, full2):
        for f2 in (gm, full2):
            ts = tensor([f1, f2])
            assert check_h0(ts).status is Status.PASS
            assert check_h1_local(ts).status is Status.PASS
            assert check_h2(ts).status is Status.PASS
    # an irreducible factor times a reducible one is reducible
    ts = tensor([gm, identity2])
    assert check_h1_local(ts).status is Status.PASS
    assert check_h2(ts).status is Status.FAIL


def test_tensor_rank3(fs3):
    assert fs3.rank == 3
    assert fs3.n_letters == 8
    assert check_h1_local(fs3).status is Status.PASS
    assert check_h2(fs3).status is Status.PASS


def test_tensor_counts_factorize(gm, gm2):
    d1 = DecorationMap.identity(gm.alphabet)
    d2 = DecorationMap.identity(gm2.alphabet)
    for m1, m2 in [(0, 0), (1, 2), (3, 1)]:
        lhs = sum(dim_vector(gm2, d2, (m1, m2)))
        rhs = sum(dim_vector(gm, d1, (m1,))) * sum(dim_vector(gm, d1, (m2,)))
        assert lhs == rhs


def test_redecorate_zero_shapes_is_alphabet(gm):
    dmap = DecorationMap.identity(gm.alphabet)
    new_map, words = redecorate_by_shape(gm, dmap, {"0": (0,), "1": (0,)})
    assert len(new_map) == 2
    assert new_map.delta == (0, 1)
    assert all(dw.word.shape == (0,) for dw in words)


def test_redecorate_gm_example(gm):
    dmap = DecorationMap.identity(gm.alphabet)
    new_map, words = redecorate_by_shape(gm, dmap, {"0": (1,), "1": (0,)})
    assert new_map.names == ("0:00", "0:01", "1:1")
    assert new_map.delta == (0, 1, 1)
    assert [dw.word.letters for dw in words] == [(0, 0), (0, 1), (1,)]


def test_redecorate_fs2_size(fs2):
    dmap = DecorationMap.identity(fs2.alphabet)
    new_map, words = redecorate_by_shape(fs2, dmap, dict.fromkeys(dmap.names, (1, 0)))
    assert len(new_map) == 8
    assert len(words) == 8
    d = dim_vector(fs2, dmap, (1, 0))
    assert len(new_map) == sum(d)


def test_redecorate_count_consistency(gm2):
    """Counting after redecoration equals counting from shifted shapes."""
    dmap = DecorationMap.identity(gm2.alphabet)
    shapes = {"00": (1, 0), "01": (0, 0), "10": (0, 1), "11": (1, 1)}
    new_map, words = redecorate_by_shape(gm2, dmap, shapes)
    m = (1, 1)
    got = dim_vector(gm2, new_map, m)
    expected = [0] * gm2.n_letters
    for d, name in enumerate(dmap.names):
        shifted = dim_vector(gm2, DecorationMap((name,), (dmap.delta[d],)),
                             tuple(a + b for a, b in zip(shapes[name], m)))
        expected = [x + y for x, y in zip(expected, shifted)]
    assert list(got) == expected


def test_random_system_deterministic():
    import random
    a = random_system(random.Random(42), 3, 2)
    b = random_system(random.Random(42), 3, 2)
    assert a == b
