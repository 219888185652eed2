"""Seeded input systems for the benchmark.

The program under test only ever sees the JSON files written here.  Tensors
come from ``builders.tensor``; the non-tensor systems are circulant (Cayley)
systems on Z_n: letter a steps to a + s in direction j for every s in the
generator set S_j.  Circulant matrices commute, and M_1 M_2 is 0/1 exactly
when the pairwise sums s1 + s2 are distinct, so a draw with distinct sums
passes (H1) and one with a repeated sum fails (H1b).  Rejection sampling with
``builders.random_system`` is no use here: almost no draw passes
(H0)+(H1)+(H2).

Each seeded family is a fixed pool of ``POOL_SIZE`` members, and the seed
picks one of them.  Every pool member has a
recorded stdout digest (see ``record_digests.py``), so the byte-identical
output check covers every seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

POOL_SIZE = 16


def circulant_json(n: int, gens: list[list[int]],
                   names: list[str] | None = None) -> dict:
    """A rank-len(gens) circulant system file on Z_n (rows = target letter)."""
    mats = [[[1 if (b - a) % n in set(s) else 0 for a in range(n)]
             for b in range(n)] for s in gens]
    return {"rank": len(gens), "alphabet": names or [str(a) for a in range(n)],
            "matrices": mats}


def _sums(n, s1, s2):
    return [(x + y) % n for x in s1 for y in s2]


def _has_unit(n, s):
    return any(math.gcd(x, n) == 1 for x in s)


def passing_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Generator pairs of 2-sets on Z_n with distinct pairwise sums.

    Each set contains a unit of Z_n, so each direction alone already visits
    every letter: (H2) holds and neither direction stays inside a proper
    subgroup, which rules out a tensor of two cyclic factors.  Every fiber in
    direction j is a translate of S_j, so (H3*) holds as well.
    """
    sets = list(itertools.combinations(range(n), 2))
    out = []
    for s1, s2 in itertools.product(sets, sets):
        if not (_has_unit(n, s1) and _has_unit(n, s2)):
            continue
        if len(set(_sums(n, s1, s2))) == 4:
            out.append((s1, s2))
    return out


def repeated_sum_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Pairs S1 = {x, x+d}, S2 = {y, y+d}: x + (y+d) = (x+d) + y repeats."""
    out = []
    for x, d, y in itertools.product(range(n), range(1, n), range(n)):
        s1 = tuple(sorted({x, (x + d) % n}))
        s2 = tuple(sorted({y, (y + d) % n}))
        if _has_unit(n, s1) and _has_unit(n, s2):
            out.append((s1, s2))
    return sorted(set(out))


def pool(candidates: list, size: int = POOL_SIZE) -> list:
    """``size`` candidates spread evenly over the canonical list."""
    return [candidates[i * len(candidates) // size] for i in range(size)]


# The Z_24 system is also the last `witness set-s` input, whose cost varies
# about 60-fold over passing_pairs(24) (0.3 s to over 20 s).  Drawing its
# generators from a pool would let the seed, not the program, decide the
# witness timings, so they are fixed and the seed only renames the letters
# (declaration order kept, so the search order and the work do not change).
# This pair's `set-s --p-bound 1,1` time is the median of a scan over every
# 73rd member of passing_pairs(24) with 5,000-10,500 forced-fill cells.
CIRC24_GENERATORS = ((1, 2), (8, 11))


def renaming(n: int, index: int) -> list[str]:
    """Letter names 0..n-1 shuffled by pool member ``index``."""
    names = [str(a) for a in range(n)]
    random.Random(index).shuffle(names)
    return names


FAMILIES = ("circ16", "circ24", "rep12")


def family_pools() -> dict[str, tuple[int, list]]:
    """Seeded family name -> (n, POOL_SIZE (generators, letter names) pairs)."""
    return {
        "circ16": (16, [(g, None) for g in pool(passing_pairs(16))]),
        "circ24": (24, [(CIRC24_GENERATORS, renaming(24, i))
                        for i in range(POOL_SIZE)]),
        "rep12": (12, [(g, None) for g in pool(repeated_sum_pairs(12))]),
    }


def _system_json(ts) -> dict:
    return {"rank": ts.rank, "alphabet": list(ts.alphabet.letters),
            "matrices": [[list(row) for row in mat] for mat in ts.matrices]}


def fixed_systems() -> dict[str, dict]:
    """Seed-independent inputs built with the library's own builders."""
    from rankshift import builders

    fs3 = builders.tensor([builders.full_shift(2)] * 3)
    return {"fs3": _system_json(fs3),
            "all_ones_pair": _system_json(builders.all_ones_pair())}


def picks_for_seed(seed: int) -> dict[str, int]:
    """Seeded family name -> index of the pool member the seed selects."""
    rng = random.Random(seed)
    return {name: rng.randrange(POOL_SIZE) for name in FAMILIES}


def system_files(picks: dict[str, int]) -> dict[str, dict]:
    """Every input for the given pool picks: name -> system JSON."""
    out = fixed_systems()
    for name, (n, members) in family_pools().items():
        gens, names = members[picks[name]]
        out[name] = circulant_json(n, [list(s) for s in gens], names)
    return out


def write_inputs(picks: dict[str, int], directory: str) -> dict[str, str]:
    """Write the inputs for the given pool picks; name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, data in system_files(picks).items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths[name] = path
    return paths
