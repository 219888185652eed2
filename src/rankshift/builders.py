"""Constructors for tile systems: rank-1 wrappers, tensor products,
shape redecoration, named example systems, and random test systems.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping, Sequence, Union

from .core import (
    Alphabet,
    DecorationMap,
    DecoratedWord,
    Shape,
    TileSystem,
)
from .completion import words_of_shape

__all__ = [
    "from_rank1", "tensor", "redecorate_by_shape",
    "golden_mean", "full_shift", "all_ones_pair", "identity_system",
    "single_letter_system", "random_system",
]


def from_rank1(letters: Union[Alphabet, Iterable[str]], matrix) -> TileSystem:
    """A rank-1 system from one boolean matrix, entry (b, a) meaning a -> b."""
    alphabet = letters if isinstance(letters, Alphabet) else Alphabet(letters)
    return TileSystem(alphabet, [matrix])


def tensor(systems: Sequence[TileSystem]) -> TileSystem:
    """The rank-r product of r rank-1 systems.

    The alphabet is the cartesian product (lexicographic in factor order) and
    direction j acts on slot j only: M_j is the Kronecker product with the
    factor matrix in slot j and identities elsewhere.  Factor letter names
    are concatenated directly when all are single characters, otherwise
    joined with dots (a comma would split a name where words list cells).
    """
    if not systems:
        raise ValueError("tensor of zero systems")
    for k, s in enumerate(systems, start=1):
        if s.rank != 1:
            raise ValueError(f"tensor factor {k} has rank {s.rank}, expected 1")

    factor_letters = [s.alphabet.letters for s in systems]
    plain = all(len(name) == 1 for letters in factor_letters for name in letters)
    sep = "" if plain else "."
    combos = list(itertools.product(*factor_letters))
    names = [sep.join(combo) for combo in combos]
    if len(set(names)) != len(names):
        raise ValueError("tensor letter names collide; rename the factor letters")
    alphabet = Alphabet(names)

    index = {combo: i for i, combo in enumerate(
        itertools.product(*(range(len(ls)) for ls in factor_letters)))}
    n = len(combos)
    matrices = []
    for slot, s in enumerate(systems):
        mat = [[0] * n for _ in range(n)]
        factor = s.matrices[0]
        for a_combo, a in index.items():
            for b_letter in range(len(factor_letters[slot])):
                if factor[b_letter][a_combo[slot]]:
                    b_combo = a_combo[:slot] + (b_letter,) + a_combo[slot + 1:]
                    mat[index[b_combo]][a] = 1
        matrices.append(mat)
    return TileSystem(alphabet, matrices)


def redecorate_by_shape(ts: TileSystem, dmap: DecorationMap,
                        shape_of: Mapping[str, Shape],
                        ) -> tuple[DecorationMap, tuple[DecoratedWord, ...]]:
    """The decoration set of all decorated words (d, w) with shape(w) = l(d).

    ``shape_of`` maps each decoration name, and no other key, to a shape.
    The new delta sends each decorated word to its terminus.  Returns the
    new DecorationMap together with the underlying decorated words, aligned
    by index; the new names are ``"<d>:<cells>"`` with cells joined row-major.
    """
    for name in (*shape_of, *dmap.names):
        if name not in dmap.names:
            raise ValueError(f"shape_of names unknown decoration {name!r}")
        if name not in shape_of:
            raise ValueError(f"shape_of has no shape for decoration {name!r}")
    sep = "" if all(len(a) == 1 for a in ts.alphabet.letters) else ","
    names = []
    delta = []
    words = []
    for d, d_name in enumerate(dmap.names):
        for w in words_of_shape(ts, shape_of[d_name], origin=dmap.delta[d]):
            cells = sep.join(ts.alphabet.name(a) for a in w.letters)
            names.append(f"{d_name}:{cells}")
            delta.append(w.terminus)
            words.append(DecoratedWord(d, w))
    return DecorationMap(tuple(names), tuple(delta)), tuple(words)


# ---------------------------------------------------------------------------
# named examples and test generators
# ---------------------------------------------------------------------------

def golden_mean() -> TileSystem:
    """Rank 1 on {0, 1}: every step allowed except 1 -> 1."""
    return from_rank1("01", [[1, 1], [1, 0]])


def full_shift(n_letters: int = 2) -> TileSystem:
    """Rank 1 with every step allowed."""
    letters = [str(i) for i in range(n_letters)]
    ones = [[1] * n_letters for _ in range(n_letters)]
    return from_rank1(letters, ones)


def all_ones_pair() -> TileSystem:
    """Rank 2 on {0, 1} with both matrices all ones; fails (H1b)."""
    j = [[1, 1], [1, 1]]
    return TileSystem(Alphabet("01"), [j, j])


def identity_system() -> TileSystem:
    """Rank 1 with the identity matrix on two letters; fails (H2)."""
    return from_rank1("01", [[1, 0], [0, 1]])


def single_letter_system() -> TileSystem:
    """One letter with a self-loop; every word is constant, so (H3) fails."""
    return from_rank1(["a"], [[1]])


def random_system(rng: random.Random, n_letters: int, rank: int,
                  density: float = 0.5) -> TileSystem:
    """Independent Bernoulli transition matrices, for randomized testing."""
    letters = [str(i) for i in range(n_letters)]
    matrices = [[[1 if rng.random() < density else 0
                  for _ in range(n_letters)] for _ in range(n_letters)]
                for _ in range(rank)]
    return TileSystem(Alphabet(letters), matrices)
