"""Structural invariants of the crystal operators, checked on random monomials
(hypothesis) and exhaustively on the fundamental crystals of small rank."""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from cncrystal.graphs import decompose_set, generate_closure, is_closed
from cncrystal.monomials import Monomial, m_k_set, packed_rows, unpack
from cncrystal.products import (
    ProductSpec,
    fundamental_crystal,
    product_set,
    tensor_decomposition_closed_form,
    weight_of_pair,
)
from cncrystal.tableaux import tensor_highest_weights
import helpers
from helpers import from_factors, monomial_products, simple_root
from tensor_reference import TensorPair


@st.composite
def monomials(draw):
    n = draw(st.integers(2, 4))
    entries = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.integers(-3, 9), st.integers(-2, 2)),
            max_size=6,
        )
    )
    return from_factors(n, entries)


# the field of one exponent in the packing, with its edges drawn often
exponents = st.one_of(st.sampled_from([-64, -63, 62, 63]), st.integers(-64, 63))


@st.composite
def packable_monomials(draw):
    n = draw(st.integers(2, 8))
    entries = draw(st.dictionaries(
        st.tuples(st.integers(1, n), st.integers(1, 12)), exponents, max_size=8))
    return Monomial(n, entries)


@given(packable_monomials())
@example(Monomial(3, {(1, 1): -64, (3, 12): 63, (2, 5): -1}))
def test_unpack_inverts_ident(x):
    assert unpack(x.rank, x.ident()) == x


@given(packable_monomials())
def test_packed_rows_read_the_weight_and_lowerings(x):
    ident = x.ident()
    rows = packed_rows(x.rank, [ident])[ident]
    assert tuple(wt for _, wt, _ in rows) == x.weight().coeffs
    lowered = [(eps, None if off is None else ident + off) for eps, _, off in rows]
    assert tuple(lowered) == x.lowerings()


def chain_length(start, step):
    count = 0
    current = start
    while True:
        nxt = step(current)
        if nxt is None:
            return count
        count += 1
        current = nxt


def assert_operator_invariants(m):
    n = m.rank
    w = m.weight()
    for i in range(1, n + 1):
        stats = m.string_stats(i)
        assert stats.epsilon >= 0 and stats.phi >= 0
        # string identity
        assert stats.phi == stats.epsilon + w.coeffs[i - 1]
        up, down = m.e(i), m.f(i)
        assert (up is None) == (stats.epsilon == 0)
        assert (down is None) == (stats.phi == 0)
        if up is not None:
            assert up.f(i) == m
            assert up.weight() == w + simple_root(n, i)
            assert up.epsilon(i) == stats.epsilon - 1
        if down is not None:
            assert down.e(i) == m
            assert down.weight() == w - simple_root(n, i)
            assert down.phi(i) == stats.phi - 1


@given(monomials())
def test_operator_invariants_random(m):
    assert_operator_invariants(m)


@given(monomials())
def test_semi_normality_random(m):
    for i in range(1, m.rank + 1):
        assert m.epsilon(i) == chain_length(m, lambda x: x.e(i))
        assert m.phi(i) == chain_length(m, lambda x: x.f(i))


@given(monomials())
def test_highest_weight_characterization(m):
    null_everywhere = all(m.e(i) is None for i in range(1, m.rank + 1))
    eps_zero = all(m.epsilon(i) == 0 for i in range(1, m.rank + 1))
    assert null_everywhere == eps_zero == m.is_highest_weight()


@given(monomials(), st.integers(-4, 4))
def test_shift_equivariance(m, a):
    shifted = helpers.shifted(m, a)
    assert shifted.weight() == m.weight()
    for i in range(1, m.rank + 1):
        s0, s1 = m.string_stats(i), shifted.string_stats(i)
        assert (s0.epsilon, s0.phi) == (s1.epsilon, s1.phi)
        if (s0.epsilon, s0.phi) != (0, 0):
            assert (s1.n_e, s1.n_f) == (s0.n_e + a, s0.n_f + a)
        for op in ("e", "f"):
            image = getattr(m, op)(i)
            shifted_image = getattr(shifted, op)(i)
            if image is None:
                assert shifted_image is None
            else:
                assert shifted_image == helpers.shifted(image, a)


# -- exhaustive sweeps over the small fundamental crystals ----------------------------


def all_fundamental_elements(max_rank=4):
    for n in range(2, max_rank + 1):
        for k in range(1, n + 1):
            for m in (1, 3):
                yield from m_k_set(n, k, m)


def test_operator_invariants_fundamental_sweep():
    for mono in all_fundamental_elements():
        assert_operator_invariants(mono)


def test_semi_normality_exhaustive_m_k_sets():
    for n in range(2, 5):
        for k in range(1, 2 * n + 1):
            for mono in m_k_set(n, k, 1):
                for i in range(1, n + 1):
                    assert mono.epsilon(i) == chain_length(mono, lambda x: x.e(i))
                    assert mono.phi(i) == chain_length(mono, lambda x: x.f(i))


def test_m_k_sets_are_the_fundamental_closures():
    for n in range(2, 5):
        for m in (1, 2):
            for k in range(1, 2 * n + 1):
                elements = m_k_set(n, k, m)
                if k < 2 * n:
                    if k <= n:
                        seed = Monomial.generator(n, k, m)
                    else:
                        seed = Monomial.generator(n, 2 * n - k, m - n + k)
                    closure = generate_closure([seed])
                    assert set(elements) == set(closure.vertices)
                else:
                    assert elements == (Monomial.one(n),)
                highest = [x for x in elements if x.is_highest_weight()]
                assert len(highest) == 1


def test_closure_of_effective_monomial_is_irreducible():
    # products of nonnegative powers of Y_i(m) are highest weight vectors
    seeds = [
        from_factors(2, [(1, 1, 2)]),
        from_factors(2, [(1, 1, 1), (2, 1, 1)]),
        from_factors(3, [(2, 2, 1), (3, 5, 1)]),
        from_factors(3, [(1, 1, 1), (1, 2, 1)]),
    ]
    for seed in seeds:
        dec = decompose_set(generate_closure([seed]).vertices)
        assert len(dec) == 1
        assert dec[0].weight == seed.weight()


def test_tensor_components_match_monomial_components():
    # normality cross-check: a highest-weight tensor pair generates a component
    # of the same size as the monomial component of equal highest weight
    cases = [(2, 1, 1), (2, 2, 1), (3, 1, 2), (3, 2, 2)]
    for n, p, q in cases:
        left = fundamental_crystal(n, p)
        right = fundamental_crystal(n, q)
        pairs = [TensorPair(a, b) for a in left for b in right]
        dec = decompose_set(pairs)
        assert sum(c.size for c in dec) == len(left) * len(right)
        for comp in dec:
            seed = from_factors(
                n, [(i, 1, c) for i, c in enumerate(comp.weight.coeffs, 1) if c]
            )
            assert comp.size == len(generate_closure([seed]).vertices)


def test_edge_counts_match_lowerable_vertices():
    for n, k in [(2, 1), (2, 2), (3, 2)]:
        graph = generate_closure([Monomial.generator(n, k, 1)])
        for i in range(1, n + 1):
            labeled = sum(1 for _, j, _ in graph.edges if j == i)
            assert labeled == sum(1 for v in graph.vertices if v.f(i) is not None)


# -- product structure ------------------------------------------------------------------


def test_three_fold_products_are_closed():
    cases = [
        (2, [(1, 1), (1, 2), (2, 1)]),
        (2, [(2, 3), (1, 1), (2, 1)]),
        (3, [(1, 2), (2, 1), (3, 1)]),
        (3, [(2, 2), (2, 1), (1, 3)]),
    ]
    for n, factors in cases:
        sets = [m_k_set(n, k, m) for k, m in factors]
        products = {a * b * c for a in sets[0] for b in sets[1] for c in sets[2]}
        assert is_closed(products)


def test_equal_shift_products_are_connected():
    for n in range(2, 4):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for m in (1, 2):
                    left = m_k_set(n, p, m)
                    right = m_k_set(n, q, m)
                    dec = decompose_set({a * b for a in left for b in right})
                    assert len(dec) == 1
                    assert dec[0].weight == weight_of_pair(
                        n, min(p, q), max(p, q)
                    )


def test_highest_weight_products_factor_through_left_generator():
    # strong form: recorded factorizations of every highest-weight product
    # include one whose left factor is the generator Y_p(m)
    for n, p, q, m in [(2, 1, 1, 3), (2, 2, 1, 2), (3, 2, 2, 4), (3, 3, 1, 2)]:
        spec = ProductSpec(n, p, q, m)
        left = m_k_set(n, p, m)
        right = fundamental_crystal(n, q)
        generator = Monomial.generator(n, p, m)
        collected: dict = {}
        for a in left:
            for b in right:
                collected.setdefault(a * b, []).append((a, b))
        for mono, factorizations in collected.items():
            if mono.is_highest_weight():
                assert any(a == generator for a, _ in factorizations)
        assert {mono.ident() for mono in collected} == product_set(spec)


def test_cardinality_conservation():
    for spec in [ProductSpec(2, 1, 1, 2), ProductSpec(3, 2, 3, 3)]:
        elements = product_set(spec)
        dec = decompose_set(elements, spec.n)
        assert sum(c.size for c in dec) == len(elements)
        assert decompose_set(monomial_products(spec)) == dec


def test_zero_gap_region_descriptions_agree():
    # the zero-gap family can equivalently be carved out by 0 <= a < p < c <= n
    for n in range(2, 6):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                theorem_region = {
                    (a, c)
                    for a in range(0, p + 1)
                    for c in range(a, n + 1)
                    if p + q == a + c
                    and a + p <= c + q
                    and a + q <= c + p
                    and (p + q + c - a) // 2 <= n
                    and (a, c) not in ((p, q), (q, p))
                }
                strict_region = {
                    (a, c)
                    for a in range(0, p)
                    for c in range(p + 1, n + 1)
                    if p + q == a + c
                    and a + p <= c + q
                    and a + q <= c + p
                    and (p + q + c - a) // 2 <= n
                }
                assert theorem_region == strict_region


def test_tensor_oracle_agreement_small_ranks():
    for n in range(2, 4):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                oracle = Counter(
                    w.coeffs for _, _, w in tensor_highest_weights(n, p, q)
                )
                predicted = Counter(
                    weight_of_pair(n, a, c).coeffs
                    for a, c in tensor_decomposition_closed_form(n, p, q)
                )
                assert oracle == predicted


@settings(deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, n),
        st.integers(1, n),
        st.integers(1, 6),
    )
))
def test_product_sets_closed_random_cells(cell):
    n, p, q, m = cell
    assert is_closed(monomial_products(ProductSpec(n, p, q, m)))
