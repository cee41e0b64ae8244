"""Generic machinery for finite crystals.

Works on any elements exposing the operator protocol: ``rank``, ``weight()``,
``images(i)`` (the pair ``(e(i), f(i))`` from one string scan), ``sort_key()``,
plus hashing and equality.  Monomials and tableau columns both qualify, so
closure and decomposition are written once.

Closure is breadth-first from seeds sorted by ``sort_key``; components are
(weight, size, witness) records in a fixed order.  So vertex and component
order are deterministic, and so is every document cncrystal.cli writes.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

from .rootdata import VertexBudgetExceeded, vertex_budget


class CrystalInvariantError(RuntimeError):
    """A structural fact the theory guarantees failed to hold."""


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

    One breadth-first walk per component follows every e(i) and f(i) image,
    which proves the set closed: an image outside it raises ValueError naming
    the operator, row and element.  CrystalInvariantError: the walk enters an
    earlier component, a component holds other than one highest-weight
    element (all e(i) None), or that element's weight is not dominant.  A set
    is walked as is; components are sorted by (weight.coeffs, size, sort_key).
    """
    elems = elements if isinstance(elements, (set, frozenset)) else set(elements)
    owner: dict = {}
    comps = []
    for start in elems:
        if start in owner:
            continue
        label = len(comps)
        owner[start] = label
        walk, highest = [start], []
        for v in walk:
            top = True
            for i in range(1, v.rank + 1):
                up, down = v.images(i)
                if up is not None:
                    top = False
                for w in (up, down):
                    if w is None or (seen := owner.get(w)) == label:
                        continue
                    if seen is not None:
                        raise CrystalInvariantError("components are not pairwise disjoint")
                    if w not in elems:
                        op = "e" if w is up else "f"
                        raise ValueError(f"{op}_{i} of {v} leaves the set, not closed under e and f")
                    owner[w] = label
                    walk.append(w)
            if top:
                highest.append(v)
        if len(highest) != 1:
            raise CrystalInvariantError(f"a component holds {len(highest)} highest-weight elements")
        weight = highest[0].weight()
        if not weight.is_dominant():
            raise CrystalInvariantError(f"highest weight {weight} is not dominant")
        comps.append(Component(weight, len(walk), highest[0]))
    return tuple(sorted(comps, key=lambda c: (c.weight.coeffs, c.size, c.witness.sort_key())))
