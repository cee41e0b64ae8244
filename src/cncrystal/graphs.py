"""Generic machinery for finite crystals.

Works on any elements exposing the operator protocol: ``rank``, ``weight()``,
``images(i)`` (the pair ``(e(i), f(i))`` from one string scan), ``sort_key()``,
plus hashing and equality; decompose_set also asks for ``ident()``, a name no
two elements share that orders them, and ``lowerings()``, the pairs
``(eps(i), ident of f(i))`` of every row.  Monomials qualify for both, their
idents packed ints, and tableau columns for closure, so each is written once.
decompose_set also walks those packed ints themselves, as brute force forms them.

Closure is breadth-first from seeds sorted by ``sort_key``; components are
(weight, size, witness) records in a fixed order.  So vertex and component
order are deterministic, and so is every document cncrystal.cli writes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from operator import itemgetter, mul

from .monomials import packed_rows, unpack
from .rootdata import CrystalInvariantError, VertexBudgetExceeded, Weight, vertex_budget


# A finite crystal graph: vertices in discovery order, (source, i, target) lowering edges.
CrystalGraph = namedtuple("CrystalGraph", "vertices edges")


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
    return CrystalGraph(tuple(order), tuple(edges))


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


def decompose_set(elements: Iterable, rank: int | None = None) -> tuple[Component, ...]:
    """Split a finite set closed under every e(i) and f(i) into components.

    The elements follow the protocol or, given their rank, are the packed idents of monomials
    that product_set forms: walked as ints, each read from its bytes (packed_rows), with only
    witnesses and the suspects of an error decoded (unpack).  One walk by decreasing height
    2 sum_k (n+1-k) eps_k(wt), which every e(i) raises, ties in ident order, finds each edge
    once, as the ident of an f(i) image.  An element no parent lowered into is the witness of a
    new component; the others join their first parent's.  An image outside the set raises
    ValueError naming the operator, row and element; the e(i) images, inverse to the f(i)
    edges, are all in it exactly when as many eps(i) are positive as there are edges.  The
    elements share one rank; monomials must pack (shifts >= 1, exponents in [-64, 64)), as
    product sets, three-fold products and closures of Y_k(m >= 1) do.  CrystalInvariantError:
    a witness is not highest weight or not dominant, or two share a component.  Components
    are sorted by (weight.coeffs, size, sort_key)."""
    elems = elements if isinstance(elements, (set, frozenset)) else set(elements)
    if rank is None:  # protocol elements name themselves and read their own rows
        if len(ranks := {v.rank for v in elems}) > 1:  # idents of different ranks may coincide
            raise ValueError("all elements must share one rank")
        rank, named = max(ranks, default=0), {v.ident(): v for v in elems}
        decode = named.__getitem__
        weigh = lambda x: named[x].weight().coeffs
        lower = lambda x: named[x].lowerings()
    else:  # rows of (eps_i, wt_i, ident offset of f_i: nonzero, or None)
        named, decode = packed_rows(rank, elems), lambda x: unpack(rank, x)
        weigh = lambda x: map(itemgetter(1), named[x])
        lower = lambda x: [(eps, off and x + off) for eps, _, off in named[x]]

    def refuse(suspects, otherwise: str):  # an error path: name an e(i) image outside the set
        for v in map(decode, suspects):
            for i in range(1, rank + 1):
                try:  # an image that does not pack is in no set walked here, whose members pack
                    inside = (up := v.images(i)[0]) is None or up.ident() in index
                except CrystalInvariantError:
                    inside = False
                if not inside:
                    raise ValueError(f"e_{i} of {v} leaves the set, not closed under e and f")
        raise CrystalInvariantError(otherwise)

    scale = [k * (2 * rank + 1 - k) for k in range(1, rank + 1)]
    height = {x: sum(map(mul, weigh(x), scale)) for x in named}
    order = sorted(sorted(named), key=height.__getitem__, reverse=True)  # ties in ident order
    index = {x: k for k, x in enumerate(order)}
    owner: list = [None] * len(order)  # position in order -> component label
    tops, raised, edges = [], 0, 0  # (weight, witness) per component; e(i) images; f(i) edges
    for k, x in enumerate(order):
        lowered = lower(x)
        if (label := owner[k]) is None:
            if any(eps for eps, _ in lowered):
                refuse([x], "a component holds 0 highest-weight elements")
            if not (weight := Weight(weigh(x))).is_dominant():
                raise CrystalInvariantError(f"highest weight {weight} is not dominant")
            label = owner[k] = len(tops)
            tops.append((weight, decode(x)))
        for i, (eps, down) in enumerate(lowered, 1):
            raised += eps > 0
            if down is not None:
                if (j := index.get(down)) is None:
                    raise ValueError(f"f_{i} of {decode(x)} leaves the set, not closed under e and f")
                edges += 1
                if owner[j] not in (None, label):
                    raise CrystalInvariantError("a component holds 2 highest-weight elements")
                owner[j] = label
    if raised != edges:
        refuse(order, f"e and f are not partial inverses: {raised} e-images, {edges} f-edges")
    sizes = Counter(owner)
    comps = (Component(weight, sizes[label], v) for label, (weight, v) in enumerate(tops))
    return tuple(sorted(comps, key=lambda c: (c.weight.coeffs, c.size, c.witness.sort_key())))
