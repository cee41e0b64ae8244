"""Reference decomposition for the tests: one breadth-first walk per component
along every e(i) and f(i) image.

It builds each edge twice, once from each end, and needs no order on the set.
cncrystal.graphs.decompose_set, which walks down the f(i) edges only, must
return the same components, and raise the same exception type on a set that
is not closed.
"""

from __future__ import annotations

from typing import Iterable

from cncrystal.graphs import Component, CrystalInvariantError


def undirected_decompose_set(elements: Iterable) -> tuple[Component, ...]:
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
