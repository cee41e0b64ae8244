"""Generic machinery for finite crystals.

Works on any elements exposing the operator protocol: ``rank``, ``weight()``, ``images(i)``
(the pair ``(e(i), f(i))`` from one string scan), ``sort_key()``, plus hashing and equality;
decompose_set also asks for ``ident()``, a name no two elements share that orders them, and
``lowerings()``, the pairs ``(eps(i), ident of f(i))`` of every row.  Monomials qualify for both,
their idents packed ints, and tableau columns for closure, so each is written once.  decompose_set
also walks packed ints, rows read per row class: a set by decreasing int, a product dict as formed.

Closure is breadth-first from seeds sorted by ``sort_key``; components are
(weight, size, witness) records in a fixed order.  So vertex and component
order are deterministic, and so is every document cncrystal.cli writes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from operator import itemgetter, mul

from .monomials import packed_rows, unpack
from .rootdata import CrystalInvariantError, VertexBudgetExceeded, Weight, check_rank
from .rootdata import vertex_budget


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
    budget, rank = vertex_budget(), seed_list[0].rank
    if any(s.rank != rank for s in seed_list):
        raise ValueError("all closure seeds must share one rank")
    index, order = {}, []
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
    return all(image is None or image in elems
               for v in elems for i in range(1, v.rank + 1) for image in v.images(i))


# One irreducible constituent: dominant weight, size, highest-weight witness.
Component = namedtuple("Component", "weight size witness")


def _walk(names: Iterable, rows: Iterable, refuse) -> tuple[list, Counter] | None:
    """(weight, witness name) and size per component, over names with their rows; or
    refuse(suspects, row of an f(i) image outside or 0, message), also for a child met first."""
    owner, tops, raised, edges = dict.fromkeys(names), [], 0, 0  # name -> label; e(i), f(i) edges
    for (x, label), lowered in zip(owner.items(), rows):  # a label set on the way is read here
        if label is None:
            if any(eps for eps, _, _ in lowered):
                return refuse([x], 0, "a component holds 0 highest-weight elements")
            if not (weight := Weight(map(itemgetter(1), lowered))).is_dominant():
                return refuse((), 0, f"highest weight {weight} is not dominant")
            label = owner[x] = len(tops)
            tops.append((weight, x))
        for eps, _, off in lowered:
            raised += eps > 0
            if off is not None:
                edges += 1
                if (o := owner.get(y := x + off, -1)) is None:
                    owner[y] = label
                elif o == -1:  # the first row whose f(i) image is outside the set
                    return refuse([x], list(map(itemgetter(2), lowered)).index(off) + 1, "")
                elif o != label:
                    return refuse((), 0, "a component holds 2 highest-weight elements")
    if raised != edges:
        return refuse(names, 0, f"e and f are not partial inverses: {raised} e-images, "
                      f"{edges} f-edges")
    return tops, Counter(owner.values())


def decompose_set(elements: Iterable, rank: int | None = None) -> tuple[Component, ...]:
    """Split a finite set closed under every e(i) and f(i) into components.

    Given their rank, the elements are packed idents, each its own name, with row records
    (eps_i, wt_i, ident offset of f_i or None): a dict's, as product_set forms them, walked in its
    own order, or a set's, read by row class (packed_rows), by decreasing int; a wrong rank >= 2 is
    trusted.  The walk finds each edge once, as an f(i) image, and labels spread down the edges;
    an element met unlabelled is the witness of a new component, refused if an eps(i) is positive.
    When as many eps(i) are positive as there are edges, the e(i) images are all in the set and
    only the elements with no positive eps(i) lack a parent; so any accepted walk gives the same
    components and witnesses.  f(i) adds the ident of A_i(s)^-1, whose top digit is -1, so the
    walk by decreasing int meets parents first; any other order costs time, never a result.  A
    refused walk is made again as protocol elements are walked (named by their places in ident
    order, rows from weight() and lowerings()), by decreasing height 2(wt, rho), ties in name
    order, to name the first fault it meets.  An image outside the set raises ValueError naming
    it.  CrystalInvariantError: a witness is not highest weight or not dominant, or two share a
    component.  Witnesses are decoded (unpack) after the walk; monomials must pack, as product sets
    and closures of Y_k(m >= 1) do.  Components are sorted by (weight.coeffs, size, sort_key)."""
    elems = elements if isinstance(elements, (set, frozenset, dict)) else set(elements)
    if rank is None:  # protocol elements, named by their places x in ident order
        if len(ranks := {v.rank for v in elems}) > 1:  # idents of different ranks may coincide
            raise ValueError("all elements must share one rank")
        found, rank = sorted(elems, key=lambda v: v.ident()), max(ranks, default=0)
        members, names = {v.ident(): x for x, v in enumerate(found)}, range(len(found))
        rows = [tuple((eps, wt, down if down is None else members.get(down, -1) - x)
                      for (eps, down), wt in zip(v.lowerings(), v.weight().coeffs))
                for x, v in enumerate(found)]  # an f(i) image outside the set is named -1
        decode, walked = found.__getitem__, None
    else:  # packed idents name themselves
        check_rank(rank)
        if not isinstance(elems, dict):  # a set is walked by decreasing int
            elems = dict(zip(names := sorted(elems, reverse=True), packed_rows(rank, names)))
        members, decode = elems, lambda x: unpack(rank, x)
        if (walked := _walk(elems, elems.values(), lambda *fault: None)) is None:
            rows = list(map(elems.get, names := sorted(elems)))  # equal heights by increasing int

    def refuse(suspects, row: int, message: str):  # name an image outside the set if one is
        if row:
            raise ValueError(f"f_{row} of {decode(*suspects)} leaves the set, "
                             "not closed under e and f")
        for v in map(decode, suspects):
            for i in range(1, rank + 1):
                try:  # an image that does not pack is in no set walked here, whose members pack
                    inside = (up := v.images(i)[0]) is None or up.ident() in members
                except CrystalInvariantError:
                    inside = False
                if not inside:
                    raise ValueError(f"e_{i} of {v} leaves the set, not closed under e and f")
        raise CrystalInvariantError(message)

    if walked is None:  # 2(wt, rho) is the sum of the wt_k * k(2n + 1 - k), raised by each e(i)
        scale = [k * (2 * rank + 1 - k) for k in range(1, rank + 1)]
        walk = sorted(zip(names, rows), reverse=True,
                      key=lambda named: sum(map(mul, scale, map(itemgetter(1), named[1]))))
        walked = _walk(list(map(itemgetter(0), walk)), map(itemgetter(1), walk), refuse)
    tops, sizes = walked
    comps = (Component(weight, sizes[label], decode(x)) for label, (weight, x) in enumerate(tops))
    return tuple(sorted(comps, key=lambda c: (c.weight.coeffs, c.size, c.witness.sort_key())))
