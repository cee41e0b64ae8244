"""Names only the tests call, kept out of the library: monomials built from
factors, their exponents, support, inverse and shift, root monomials, Cartan entries,
simple roots, product sets formed as monomials rather than packed integers, and the row
records of a monomial read from its operators."""

from bisect import bisect_left

from cncrystal.monomials import Monomial, _check_shift, _root_triples, m_k_set
from cncrystal.products import fundamental_crystal
from cncrystal.rootdata import Weight, check_index, check_rank


def from_factors(rank, factors):
    """Product of Y_i(m)**e factors given as (i, m, e) triples."""
    exps = {}
    for i, m, e in factors:
        exps[i, m] = exps.get((i, m), 0) + e
    return Monomial(rank, exps)


def exponent(mono, i, m):
    key = mono.sort_key()
    k = bisect_left(key, (i, m))
    return key[k][2] if k < len(key) and key[k][0] == i and key[k][1] == m else 0


def support(mono):
    return tuple((i, m) for i, m, _ in mono.sort_key())


def inv(mono):
    return Monomial._trusted(mono.rank, tuple((i, m, -e) for i, m, e in mono.sort_key()))


def shifted(mono, a):
    """Translate every shift of mono by a; commutes with the crystal operators."""
    _check_shift(a, "a")
    return Monomial._trusted(mono.rank, tuple((i, m + a, e) for i, m, e in mono.sort_key()))


def root_monomial(n, i, m):
    """A_i(m) as a Monomial; multiplying by it raises the weight by alpha_i."""
    check_rank(n)
    check_index(n, i)
    _check_shift(m, "m")
    return Monomial._trusted(n, _root_triples(n, i, m, 1))


def cartan_entry(n, i, j):
    """Entry a_ij of the type-C_n Cartan matrix.

    The only asymmetry is the doubled entry a_{n-1,n} = -2 coming from the
    long simple root alpha_n.
    """
    check_rank(n)
    check_index(n, i, "i")
    check_index(n, j, "j")
    if i == j:
        return 2
    if (i, j) == (n - 1, n):
        return -2
    if abs(i - j) == 1:
        return -1
    return 0


def simple_root(n, i):
    """alpha_i in fundamental-weight coordinates (column i of the Cartan matrix)."""
    check_rank(n)
    check_index(n, i)
    return Weight(tuple(cartan_entry(n, j, i) for j in range(1, n + 1)))


def monomial_products(spec):
    """The product set of spec as monomials a*b, each factor built at its own shift."""
    left = m_k_set(spec.n, spec.p, spec.m)
    right = fundamental_crystal(spec.n, spec.q)
    return {a * b for a in left for b in right}


def operator_rows(mono):
    """mono's row records as packed_rows gives them, (eps_i, wt_i, ident offset of f_i or None),
    read from the operators: string_stats(i).epsilon, weight() and lowerings(), whose eps_i agree."""
    stats = [mono.string_stats(i) for i in range(1, mono.rank + 1)]
    lowered, base = mono.lowerings(), mono.ident()
    assert [s.epsilon for s in stats] == [eps for eps, _ in lowered], mono
    return tuple((s.epsilon, wt, None if down is None else down - base)
                 for s, wt, (_, down) in zip(stats, mono.weight().coeffs, lowered))
