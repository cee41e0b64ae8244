"""Entrywise products of fundamental monomial crystals and their decomposition.

The product here is the honest product of Laurent monomials (exponents add),
not a tensor product.  Such a product set is again closed under the crystal
operators and splits into irreducibles; this module computes that splitting
three ways:

  * brute force: form the product set as packed ints (idents), sums of the
    shift-1 factors' idents, and split it in one walk over those ints, which
    also proves it closed; it reads each element's rows from the int's bytes
    and decodes only the witnesses into monomials;
  * character: count only the products of each dominant weight, as sums of
    packed ints paired once per (n, p, q) from the shift-1 crystals, and peel
    the components off those counts with Freudenthal weight multiplicities;
  * closed form: the arithmetic rule predicting which dominant weights
    L_a + L_c occur, each gated by an integer threshold on the shift gap m.

decompose-product compares brute force with the closed form; verify_range
pairs the character path with it on every cell of a range.  Results are
plain data (tuples of Component records, pair tuples, ProductSpec);
cncrystal.cli writes every document.

The closed form is one table, predicted_components: every tensor constituent
(a, c) with its threshold, the least m at which it appears,

    gap = (p + q) - (a + c) > 0 and even:  m >= (q-p-a-c+2)/2 + n,
    gap = 0:                               m >= q - a + 1,

except the top component (a, c) = (min(p, q), max(p, q)), present from m = 1.
Its keys are the tensor-product decomposition; the product keeps those whose
threshold is at most m.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import comb

from .graphs import Component, CrystalInvariantError, decompose_set, generate_closure
from .monomials import Monomial, m_k_set
from .rootdata import Weight, check_budget, check_index, check_positive, check_rank
from .rootdata import VertexBudgetExceeded, weight_multiplicity, weyl_dimension


class ProductSpec(namedtuple("ProductSpec", "n p q m")):
    """Parameters of the product of the length-p crystal at shift m with the
    length-q crystal at shift 1."""

    __slots__ = ()

    def __new__(cls, n: int, p: int, q: int, m: int):
        check_rank(n)
        check_index(n, p, "p")
        check_index(n, q, "q")
        check_positive(m, "m")
        return super().__new__(cls, n, p, q, m)


@lru_cache(maxsize=256, typed=True)  # typed: a cached (n, 1) must not answer (n, True)
def fundamental_crystal(n: int, k: int) -> tuple[Monomial, ...]:
    """Connected component of Y_k(1): the monomial model of the k-th
    fundamental crystal, cross-checked against the X-word enumeration.
    Its shift by m - 1 is M_k(m) = m_k_set(n, k, m); products shift its packed ints instead.

    A cache hit forms no new elements, so it needs no budget check.  A miss
    enumerates the X-words first: their C(2n, k) budget check refuses an
    over-budget length before the closure starts."""
    check_rank(n)
    check_index(n, k, "k")
    words = m_k_set(n, k, 1)
    closure = tuple(sorted(generate_closure([Monomial.generator(n, k, 1)]).vertices))
    if closure != words:
        raise CrystalInvariantError(
            f"closure of Y_{k}(1) disagrees with the X-word enumeration at rank {n}"
        )
    return closure  # the operators' images share key triples; the words' do not


def product_set(spec: ProductSpec) -> set[int]:
    """All entrywise products as packed ints, formed (and checked against the budget) on every
    call, building no monomial: {(x << 8n(m-1)) + y} over the idents x of M_p(1) and y of
    M_q(1).  decompose_set(products, spec.n) walks them and proves the set operator-closed."""
    left = fundamental_crystal(spec.n, spec.p)
    right = fundamental_crystal(spec.n, spec.q)
    check_budget(len(left) * len(right), f"lengths {spec.p} and {spec.q} at rank {spec.n} "
                 f"form {len(left)}*{len(right)} products")
    pairs = [([x.ident() for x in left], [y.ident() for y in right])]
    return _distinct_products(pairs, spec)


def decompose_product_bruteforce(spec: ProductSpec) -> tuple[Component, ...]:
    """Decompose the product set by one walk over its packed ints, naming the
    spec and the phase of a broken invariant; an open product set is one,
    since the theory says each is operator-closed.

    Also checks the structural fact that every highest-weight product splits
    off the left factor Y_p(m): subtracting its ident from a witness's must
    leave the ident of an element of the right-hand fundamental crystal.
    """
    products = product_set(spec)
    try:
        components = decompose_set(products, spec.n)
    except ValueError as exc:
        raise CrystalInvariantError(f"product set for {spec} is not operator-closed: {exc}") from exc
    except CrystalInvariantError as exc:
        raise CrystalInvariantError(f"decomposing {spec}: {exc}") from exc
    left_hw = Monomial.generator(spec.n, spec.p, spec.m)
    right = {y.ident() for y in fundamental_crystal(spec.n, spec.q)}
    for component in components:
        if component.witness.ident() - left_hw.ident() not in right:
            raise CrystalInvariantError(
                f"decomposing {spec}: highest-weight product {component.witness} "
                f"has no factorization with left factor {left_hw}"
            )
    return components


@lru_cache(maxsize=1)  # verify's innermost loop is m, so one (n, p, q) is reused
def _weight_pairs(n: int, p: int, q: int) -> tuple[tuple[Weight, int, list], ...]:
    """(target, |W target|, [(left ints, right ints)]) for each dominant target below L_p + L_q,
    in descending epsilon-lex order: the packed shift-1 factors, paired by weights adding to it."""
    left, right, table = {}, {}, []
    for classes, k in ((left, p), (right, q)):
        for x in fundamental_crystal(n, k):
            classes.setdefault(x.weight().coeffs, []).append(x.ident())
    # a dominant weight below L_p + L_q is L_a + L_c = (2^a, 1^(c-a), 0^(n-c)),
    # with no negative partial sum of the difference and an even whole
    for a in range(n, -1, -1):
        for c in range(n, a - 1, -1):
            sums = [min(k, p) + min(k, q) - min(k, a) - min(k, c) for k in range(1, n + 1)]
            if min(sums) < 0 or sums[-1] % 2:
                continue
            target = weight_of_pair(n, a, c)
            pairs = [(lw, rw) for w, lw in left.items()
                     if (rw := right.get(tuple(t - x for t, x in zip(target.coeffs, w))))]
            # |W target|: W permutes the target's entries and negates its c nonzero ones
            table.append((target, comb(n, c) * comb(c, a) << c, pairs))
    return tuple(table)


def _distinct_products(pairs: list, spec: ProductSpec) -> set[int]:  # M_p(1)'s ints up to M_p(m)
    shift = 8 * spec.n * (spec.m - 1)
    return {(x << shift) + y for lw, rw in pairs for x in lw for y in rw}


def decompose_product_character(spec: ProductSpec) -> Counter:
    """The weight multiset of the decomposition, comparable with
    Counter(c.weight.coeffs for c in decompose_product_bruteforce(spec)).
    The product set is closed, so it is a sum of m_lambda B(lambda) whose
    W-invariant character is fixed by count(mu), the number of products a*b
    of each dominant weight mu = wt(a) + wt(b) (products of unequal weights
    differ).  In descending epsilon-lex order, which refines dominance,
    m_mu = count(mu) - sum m_nu * mult_nu(mu), counting idents (_weight_pairs)."""
    where = f"lengths {spec.p} and {spec.q} at rank {spec.n}, products of weight"
    peeled, total, found = [], 0, 0
    for target, orbit, pairs in _weight_pairs(spec.n, spec.p, spec.q):
        check_budget(sum(len(lw) * len(rw) for lw, rw in pairs), f"{where} {target}")
        count = len(_distinct_products(pairs, spec))
        total += count * orbit
        copies = count - sum(m * weight_multiplicity(nu, target) for nu, m in peeled)
        if copies < 0:
            raise CrystalInvariantError(f"peeling {spec} gives B({target}) {copies} times")
        if copies:
            peeled.append((target, copies))
            found += copies * weyl_dimension(target)
    if found != total:  # total is the size of the product set, by W-invariance
        raise CrystalInvariantError(
            f"components of {spec} hold {found} elements, but its product set has {total}"
        )
    return Counter({nu.coeffs: m for nu, m in peeled})


# -- closed forms ---------------------------------------------------------------


def predicted_components(n: int, p: int, q: int) -> dict[tuple[int, int], int]:
    """Every tensor constituent L_a + L_c of the (p, q) pair, mapped to its
    threshold: the least left shift m at which it is present in the product.
    Keys come in canonical (sorted) order.

    A pair is a constituent when 0 <= a <= c <= n, a <= p, |p - q| <= c - a,
    the gap (p + q) - (a + c) is even and nonnegative, and
    (p + q + c - a) / 2 <= n.  Its threshold is 1 for the top pair
    (min(p, q), max(p, q)), q - a + 1 for the other pairs of gap 0, and
    (q - p - a - c + 2) / 2 + n for a positive gap."""
    check_rank(n)
    check_index(n, p, "p")
    check_index(n, q, "q")
    table = {}
    for a in range(p + 1):
        for c in range(a, n + 1):
            gap = (p + q) - (a + c)
            if gap < 0 or gap % 2 or a + q > p + c or a + p > q + c or (p + q + c - a) // 2 > n:
                continue
            if (a, c) == (min(p, q), max(p, q)):
                table[a, c] = 1
            elif gap == 0:
                table[a, c] = q - a + 1
            else:  # q - p - a - c = gap - 2p is even, so the halving is exact
                table[a, c] = (q - p - a - c + 2) // 2 + n
    return table


def tensor_decomposition_closed_form(n: int, p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Pairs (a, c) with L_a + L_c an irreducible constituent of the tensor
    product of the fundamental crystals p and q (multiplicity one each)."""
    return tuple(predicted_components(n, p, q))


def product_decomposition_closed_form(spec: ProductSpec) -> tuple[tuple[int, int], ...]:
    """Pairs (a, c) predicted for the product at shift gap m, in canonical order."""
    table = predicted_components(spec.n, spec.p, spec.q)
    return tuple(pair for pair, threshold in table.items() if threshold <= spec.m)


def weight_of_pair(n: int, a: int, c: int) -> Weight:
    """L_a + L_c with L_0 = 0."""
    return Weight.fundamental(n, a) + Weight.fundamental(n, c)


def weight_to_pair(weight: Weight) -> tuple[int, int]:
    """Inverse of weight_of_pair: L_a + L_c is (2^a, 1^(c-a), 0^(n-c)) in epsilon-coordinates."""
    eps = weight.to_epsilon()
    a, c = eps.count(2), len(eps) - eps.count(0)
    if eps != (2,) * a + (1,) * (c - a) + (0,) * (len(eps) - c):
        raise ValueError(f"{weight} is not a sum of two fundamental weights")
    return (a, c)


def decomposition_pairs(components: tuple[Component, ...]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(weight_to_pair(c.weight) for c in components))


# -- exhaustive verification ----------------------------------------------------


def verify_range(n_max: int, m_max: int) -> tuple[tuple, ...]:
    """Every cell 2 <= n <= n_max, 1 <= p, q <= n, 1 <= m <= m_max, as
    (spec, found, predicted): the pairs of decompose_product_character and
    of the closed form, which agree when the theorem holds there."""
    check_rank(n_max)
    check_positive(m_max, "m_max")
    # refused before the first cell: the cells, then the largest crystal,
    check_budget(m_max * sum(n * n for n in range(2, n_max + 1)), f"verify --m-max {m_max}: cells")
    try:  # which needs no budget when it is cached, as in fundamental_crystal
        fundamental_crystal(n_max, n_max)
    except VertexBudgetExceeded as exc:
        raise VertexBudgetExceeded(f"verify --n-max {n_max}: {exc}") from None
    cells = []
    for n in range(2, n_max + 1):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for m in range(1, m_max + 1):
                    spec = ProductSpec(n, p, q, m)
                    character = decompose_product_character(spec)
                    found = tuple(sorted(weight_to_pair(Weight(w)) for w in character.elements()))
                    cells.append((spec, found, product_decomposition_closed_form(spec)))
    return tuple(cells)
