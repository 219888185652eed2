"""Combinatorial data of the graded filtration: a Bratteli diagram.

The level at shape m splits into blocks by terminus letter, and the block
sizes are the counts of decorated words of shape m per terminus.  Counts
obey the matrix recursion

    d_0(a)       = #{d in D : delta(d) = a}
    d_{m + e_j}  = M_j d_m

because a word of shape m + e_j is determined by its restriction to [0, m]
plus one allowed terminus step (forced fill).  Inclusion multiplicities from
level m to m + e_j are exactly the matrix entries M_j(b, a).  Counts follow
one fixed path, d_m = M_r^{m_r} ... M_1^{m_1} d_0 (direction 1 first); other
paths, and the two composites around a lattice square, agree only when the
matrices commute.  Counts are Python integers, so growth cannot overflow.

`bratteli` steps a column of levels, those that differ only in m_k (k the
first direction with a nonzero bound), at once: n q tuple sums per column.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .core import (
    DecorationMap,
    Shape,
    TileSystem,
    _Value,
    add,
    box_cells,
    check_shape,
    shapes_upto,
    unit,
    zero,
)

__all__ = ["dim_vector", "BratteliDiagram", "bratteli"]


def dim_vector(ts: TileSystem, dmap: DecorationMap, m: Shape) -> tuple[int, ...]:
    """Counts of decorated words of shape m, indexed by terminus letter.

    Predecessor-sum recursion along one fixed path (M_1 m_1 times, then
    M_2, ..., M_r last); other monotone paths agree only when the M_j commute.
    """
    m = check_shape(ts, m, "shape")
    d = tuple(map(len, dmap.by_letter(ts.n_letters)))
    for j in range(1, ts.rank + 1):
        for _ in range(m[j - 1]):
            d = _step(ts, j, d)
    return d


def _step(ts: TileSystem, j: int, d: tuple[int, ...]) -> tuple[int, ...]:
    """M_j d, summed over the predecessor lists: n q work, not n^2.

    Entry b is the sum of d(a) over the direction-j predecessors a of b.
    """
    get = d.__getitem__
    return tuple([sum(map(get, ts.predecessors(j, b)))
                  for b in range(ts.n_letters)])


def _dot_quote(text: str) -> str:
    """text as a quoted DOT string: backslash and double quote escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


class BratteliDiagram(_Value):
    """Graded diagram of the filtration blocks on the box [0, upto].

    Nodes are pairs (level shape m, letter a) carrying the count of decorated
    words of shape m with terminus a; the edge multiplicity from (m, a) to
    (m + e_j, b) is M_j(b, a).
    """

    __slots__ = ("system", "decorations", "upto", "nodes")
    _compared = 3  # nodes, a function of the other three, is left out

    def __init__(self, system: TileSystem, decorations: DecorationMap, upto: Shape,
                 nodes: dict[Shape, tuple[int, ...]]):
        _Value.__init__(self, system, decorations, upto, nodes)

    def dims(self, m: Shape) -> tuple[int, ...]:
        m = tuple(m)
        if any(type(c) is not int for c in m):  # (1.0, True) hashes as (1, 1)
            raise KeyError(m)
        return self.nodes[m]

    def levels(self) -> list[Shape]:
        """The level shapes in the order of ``nodes``, which `bratteli` fills
        in canonical (`shape_key`) order."""
        return list(self.nodes)

    def _edges(self) -> Iterator[tuple[Shape, int, Shape]]:
        """(m, j, m + e_j) for each level m, in `levels` order, and each
        direction j in turn for which m + e_j is a level too."""
        rank = self.system.rank
        for m in self.nodes:
            for j in range(1, rank + 1):
                if (target := add(m, unit(rank, j))) in self.nodes:
                    yield m, j, target

    def edge_multiplicity(self, m: Shape, j: int, a: int | str, b: int | str) -> int:
        m = tuple(m)
        if not (all(type(c) is int for c in m) and m in self.nodes
                and add(m, unit(len(m), j)) in self.nodes):
            raise ValueError(f"no level {m} + e_{j} inside [0, {self.upto}]")
        resolve = self.system.alphabet.resolve
        return self.system.matrices[j - 1][resolve(b)][resolve(a)]

    def diagonal(self) -> list[tuple[Shape, tuple[int, ...]]]:
        """The chain of levels along multiples of (1, ..., 1)."""
        out, m = [], zero(len(self.upto))
        while m in self.nodes:
            out.append((m, self.nodes[m]))
            m = tuple(c + 1 for c in m)
        return out

    def to_json(self) -> dict:
        """Levels and edges; a direction's edges share one list of its rows."""
        names = self.system.alphabet.letters
        levels = [{"shape": list(m), "dims": dict(zip(names, d)), "total": sum(d)}
                  for m, d in self.nodes.items()]
        rows = [[list(row) for row in mat] for mat in self.system.matrices]
        edges = [{"from": list(m), "direction": j, "multiplicities": rows[j - 1]}
                 for m, j, _ in self._edges()]
        return {"alphabet": list(names), "upto": list(self.upto),
                "levels": levels, "edges": edges}

    def to_dot(self) -> str:
        """Graphviz text: one node per (level, letter) labelled with its count."""
        names = self.system.alphabet.letters
        lines = ["digraph bratteli {", "  rankdir=BT;"]

        def node_id(m, a):
            return _dot_quote("%s|%s" % (",".join(map(str, m)), names[a]))

        for m, dims in self.nodes.items():
            lines.append("  // level (%s): dims (%s) total %d" % (
                ",".join(map(str, m)), ",".join(map(str, dims)), sum(dims)))
            for a, d in enumerate(dims):
                lines.append("  %s [label=%s];" % (
                    node_id(m, a), _dot_quote("%s:%d" % (names[a], d))))
        for m, j, target in self._edges():
            for a in range(len(names)):
                for b in self.system.successors(j, a):
                    lines.append("  %s -> %s [label=\"1\"];" % (
                        node_id(m, a), node_id(target, b)))
        lines.append("}")
        return "\n".join(lines)


def bratteli(ts: TileSystem, dmap: DecorationMap, upto: Shape) -> BratteliDiagram:
    """The full graded diagram on [0, upto], computed a column of levels at a time.

    Level m > 0 is `dim_vector`'s step, M_j by predecessor sums, applied to
    level m - e_j for the last j with m_j > 0, so levels equal it for any M_j.
    Levels that differ only in m_k, k the first direction with upto_k > 0,
    share j and form a column: per letter, one tuple over m_k = 0..upto_k.
    The first column is `dim_vector`'s chain along e_k; each later one is n q
    tuple sums over the column at m - e_j.  ``nodes`` is filled in
    `shapes_upto` order.
    """
    upto = check_shape(ts, upto, "bound")
    k = next((i for i, u in enumerate(upto, 1) if u), ts.rank)
    chain = [dim_vector(ts, dmap, zero(ts.rank))]
    for _ in range(upto[k - 1]):
        chain.append(_step(ts, k, chain[-1]))
    zeros = (0,) * len(chain)
    # the column of m is keyed by t = m[k:], whose entry i is m_{k+i}
    preds = [[ts.predecessors(k + i, b) for b in range(ts.n_letters)]
             for i in range(1, ts.rank - k + 1)]
    rows, cols = {zero(ts.rank - k): chain}, {zero(ts.rank - k): list(zip(*chain))}
    for t in islice(box_cells(upto[k:]), 1, None):  # row-major: t - e_i before t
        i = max(d for d, c in enumerate(t, 1) if c)
        pred = cols[(*t[:i - 1], t[i - 1] - 1, *t[i:])].__getitem__
        cols[t] = col = [tuple(map(sum, zip(*map(pred, p)))) or zeros for p in preds[i - 1]]
        rows[t] = list(zip(*col))
    nodes = {m: rows[m[k:]][m[k - 1]] for m in shapes_upto(upto)}
    return BratteliDiagram(ts, dmap, upto, nodes)
