import itertools

import pytest

from rankshift import (
    Alphabet,
    DecorationMap,
    TileSystem,
    full_shift,
    golden_mean,
    tensor,
)
from rankshift.builders import (
    all_ones_pair,
    identity_system,
    single_letter_system,
)
from rankshift.completion import words_of_shape
from rankshift.core import (
    CompletionError,
    DecoratedWord,
    TransitionError,
    WitnessSearchError,
    Word,
    add,
    box_offsets,
    box_size,
    dominates,
    strides,
    unit,
    zero,
)


@pytest.fixture(scope="session")
def gm():
    return golden_mean()


@pytest.fixture(scope="session")
def full2():
    return full_shift(2)


@pytest.fixture(scope="session")
def gm2():
    return tensor([golden_mean(), golden_mean()])


@pytest.fixture(scope="session")
def fs2():
    return tensor([full_shift(2), full_shift(2)])


@pytest.fixture(scope="session")
def fs3():
    return tensor([full_shift(2)] * 3)


@pytest.fixture(scope="session")
def jj():
    return all_ones_pair()


@pytest.fixture(scope="session")
def identity2():
    return identity_system()


@pytest.fixture(scope="session")
def single():
    return single_letter_system()


@pytest.fixture(scope="session")
def corpus(gm, full2, gm2, fs2, fs3):
    """Well-behaved systems: (H1a)-(H1c) hold on all of these."""
    return [("gm", gm), ("full2", full2), ("gm2", gm2), ("fs2", fs2),
            ("fs3", fs3)]


def identity_decorations(ts: TileSystem) -> DecorationMap:
    return DecorationMap.identity(ts.alphabet)


def circulant(n: int, gens) -> TileSystem:
    """The Cayley system on Z_n: a -> b in direction j iff b - a is in gens[j-1]."""
    mats = [[[1 if (b - a) % n in set(s) else 0 for a in range(n)]
             for b in range(n)] for s in gens]
    return TileSystem(Alphabet([str(a) for a in range(n)]), mats)


def compositions(total, parts):
    """Nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def decorated_words_of_shape(ts, dmap, shape, origin=None, terminus=None):
    """All decorated words of the given shape, word-major canonical order: the
    reference enumerator that ``rankshift enumerate --decorated`` and the
    dimension recursion are checked against."""
    groups = dmap.by_letter(ts.n_letters)
    for w in words_of_shape(ts, shape, origin=origin, terminus=terminus):
        for d in groups[w.origin]:
            yield DecoratedWord(d, w)


# ---------------------------------------------------------------------------
# the forced fill's reference: one unit layer at a time, a new box per layer
# ---------------------------------------------------------------------------

def unit_extend(ts, w, j, a):
    """extend_unit by a new box per unit layer."""
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


def unit_grow_to_shape(ts, w, target):
    """grow_to_shape by unit layers, each direction in turn to its target, each
    layer's far corner the least successor of the terminus before it."""
    target = tuple(target)
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
                w = unit_extend(ts, w, j, succ[0])
                break
    return w
