"""Generic machinery for finite crystals.

Works on any elements exposing the operator protocol: ``rank``, ``weight()``,
``images(i)`` (the pair ``(e(i), f(i))`` from one string scan), ``sort_key()``,
plus hashing and equality; decompose_set also asks for ``ident()``, a name no
two elements share, and ``lowerings()``, the pairs ``(eps(i), ident of f(i))``
of every row.  Monomials qualify for both, their idents packed ints, and
tableau columns for closure, so each is written once.

Closure is breadth-first from seeds sorted by ``sort_key``; components are
(weight, size, witness) records in a fixed order.  So vertex and component
order are deterministic, and so is every document cncrystal.cli writes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Iterable, Sequence

from .rootdata import CrystalInvariantError, VertexBudgetExceeded, vertex_budget


class CrystalGraph:
    """Finite crystal graph: ordered vertices plus i-labeled lowering edges."""

    __slots__ = ("rank", "vertices", "edges")

    def __init__(self, rank: int, vertices: Sequence, edges: Sequence[tuple[int, int, int]]):
        self.rank = rank
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"<CrystalGraph {len(self.vertices)} vertices, {len(self.edges)} edges>"


def generate_closure(seeds: Iterable) -> CrystalGraph:
    """Smallest set containing the seeds and closed under all e(i), f(i).

    Vertex order is the breadth-first discovery order from the sorted seeds;
    edges are exactly the graph of the lowering operators on the closure.
    A closure growing past vertex_budget() vertices is refused.
    """
    seed_list = sorted(set(seeds), key=lambda v: v.sort_key())
    if not seed_list:
        raise ValueError("generate_closure requires at least one seed")
    budget = vertex_budget()
    rank = seed_list[0].rank
    if any(s.rank != rank for s in seed_list):
        raise ValueError("all closure seeds must share one rank")
    index: dict = {}
    order: list = []
    refusal = f"closure of {seed_list[0]} at rank {rank} exceeds the vertex budget {budget}"

    def add(v):
        if len(order) >= budget:
            raise VertexBudgetExceeded(refusal)
        index[v] = len(order)
        order.append(v)

    for s in seed_list:
        add(s)
    edges: list[tuple[int, int, int]] = []
    for vi, v in enumerate(order):  # add appends: the discovery order is the queue
        for i in range(1, rank + 1):
            up, down = v.images(i)
            if up is not None and up not in index:
                add(up)
            if down is not None:
                if down not in index:
                    add(down)
                edges.append((vi, i, index[down]))
    return CrystalGraph(rank, order, edges)


def is_closed(elements: Iterable) -> bool:
    """True when every operator image of every element stays inside the set."""
    elems = set(elements)
    for v in elems:
        for i in range(1, v.rank + 1):
            up, down = v.images(i)
            if up is not None and up not in elems:
                return False
            if down is not None and down not in elems:
                return False
    return True


# One irreducible constituent: dominant weight, size, highest-weight witness.
Component = namedtuple("Component", "weight size witness")


def decompose_set(elements: Iterable) -> tuple[Component, ...]:
    """Split a finite set closed under every e(i) and f(i) into components.

    One walk by decreasing height 2 sum_k (n+1-k) eps_k(wt), which every e(i)
    raises, finds each edge once, as the ident of an f(i) image.  An element no
    parent lowered into is the witness of a new component; the others join their
    first parent's.  An image outside the set raises ValueError naming the
    operator, row and element; the e(i) images, inverse to the f(i) edges, are all
    in it exactly when as many eps(i) are positive as there are edges.  The elements
    share one rank; monomials must pack (shifts >= 1, exponents in [-64, 64)), as
    product sets, three-fold products and closures of Y_k(m >= 1) do; ident() refuses others.
    CrystalInvariantError: a witness is not highest weight or not dominant, or
    two share a component.  Components are sorted by (weight.coeffs, size, sort_key)."""
    elems = elements if isinstance(elements, (set, frozenset)) else set(elements)
    def refuse(suspects, otherwise: str):  # an error path: name an e(i) image outside the set
        for v in suspects:
            for i in range(1, v.rank + 1):
                if (up := v.images(i)[0]) is not None and up not in elems:
                    raise ValueError(f"e_{i} of {v} leaves the set, not closed under e and f")
        raise CrystalInvariantError(otherwise)

    order = sorted(elems, reverse=True, key=lambda v: sum(
        c * k * (2 * v.rank + 1 - k) for k, c in enumerate(v.weight().coeffs, 1)))
    if len({v.rank for v in order}) > 1:  # idents of different ranks may coincide
        raise ValueError("all elements must share one rank")
    index = {v.ident(): k for k, v in enumerate(order)}  # lowerings() names images by ident
    owner: list = [None] * len(order)  # position in order -> component label
    tops, raised, edges = [], 0, 0  # (weight, witness) per component; e(i) images; f(i) edges
    for k, v in enumerate(order):
        lowered = v.lowerings()
        if (label := owner[k]) is None:
            if any(eps for eps, _ in lowered):
                refuse([v], "a component holds 0 highest-weight elements")
            if not (weight := v.weight()).is_dominant():
                raise CrystalInvariantError(f"highest weight {weight} is not dominant")
            label = owner[k] = len(tops)
            tops.append((weight, v))
        for i, (eps, down) in enumerate(lowered, 1):
            raised += eps > 0
            if down is not None:
                if (j := index.get(down)) is None:
                    raise ValueError(f"f_{i} of {v} leaves the set, not closed under e and f")
                edges += 1
                if owner[j] not in (None, label):
                    raise CrystalInvariantError("a component holds 2 highest-weight elements")
                owner[j] = label
    if raised != edges:
        refuse(order, f"e and f are not partial inverses: {raised} e-images, {edges} f-edges")
    sizes = Counter(owner)
    comps = (Component(weight, sizes[label], v) for label, (weight, v) in enumerate(tops))
    return tuple(sorted(comps, key=lambda c: (c.weight.coeffs, c.size, c.witness.sort_key())))
