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
