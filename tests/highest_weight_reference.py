"""Reference highest-weight decomposition of a product set, used by the tests
as a witness for the character path: it scans the highest-weight products
one by one, where the character path only counts products by weight.
"""

from cncrystal.graphs import Component, CrystalInvariantError
from cncrystal.monomials import Monomial
from cncrystal.products import ProductSpec, fundamental_crystal, product_set
from cncrystal.rootdata import weyl_dimension


def decompose_product_highest_weights(spec: ProductSpec) -> tuple[Component, ...]:
    """The decomposition of decompose_product_bruteforce, witnesses included,
    without walking the product set.

    Every highest-weight product is Y_p(m)*b with b in the right factor (the
    fact decompose_product_bruteforce checks), so only those |B(L_q)|
    candidates are scanned.  The component of a highest-weight element of
    weight lambda is B(lambda), of size weyl_dimension(lambda).  The sizes
    must add up to the number of products: a highest-weight element the scan
    missed would leave the sum short.  The count settles this because the
    product set is operator-closed, which the theory proves and brute force
    checks on every set it walks.
    """
    total = len(product_set(spec))
    left_hw = Monomial.generator(spec.n, spec.p, spec.m)
    comps = []
    for b in fundamental_crystal(spec.n, spec.q):
        candidate = left_hw * b
        if not candidate.is_highest_weight():
            continue
        weight = candidate.weight()
        if not weight.is_dominant():
            raise CrystalInvariantError(
                f"highest weight {weight} of {candidate} in {spec} is not dominant"
            )
        comps.append(Component(weight, weyl_dimension(weight), candidate))
    found = sum(c.size for c in comps)
    if found != total:
        raise CrystalInvariantError(
            f"components of {spec} hold {found} elements, but its product set has {total}"
        )
    # decompose_set's order
    return tuple(sorted(comps, key=lambda c: (c.weight.coeffs, c.size, c.witness.sort_key())))
