"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (integers and multisets); the only tolerances are
the wall-clock ceilings stated per criterion.  Run with `pytest -s` to see
the per-criterion lines.
"""

import random
import time
from collections import Counter

from cncrystal.cli import main as cli_main
from cncrystal.graphs import decompose_set, generate_closure, is_closed
from cncrystal.monomials import Monomial, m_k_set
from cncrystal.products import (
    ProductSpec,
    decompose_product_bruteforce,
    decomposition_pairs,
    fundamental_crystal,
    product_decomposition_closed_form,
    product_set,
    tensor_decomposition_closed_form,
    weight_of_pair,
)
from cncrystal.tableaux import tensor_highest_weights
from helpers import from_factors, monomial_products, simple_root


def report(criterion: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def factors(n, *triples):
    return from_factors(n, triples)


# -- criterion 1: the rank-2 example suite, exhaustively ---------------------------------

# Nine (p, q) families with p, q in {1, 2, 3}; lengths 3 fold down to the
# length-1 crystal one shift up.  Components are (weight coeffs, witness as a
# function of the left shift); regimes list (m values to test, components).


def c2_families():
    def fam11(left_shift):
        return [
            ((2, 0), factors(2, (1, left_shift, 1), (1, 1, 1))),
            ((0, 1), factors(2, (1, left_shift, 1), (2, 1, 1), (1, 2, -1))),
            ((0, 0), factors(2, (1, left_shift, 1), (1, 3, -1))),
        ]

    def fam12(left_shift):
        return [
            ((1, 1), factors(2, (1, left_shift, 1), (2, 1, 1))),
            ((1, 0), factors(2, (1, left_shift, 1), (1, 2, 1), (1, 3, -1))),
        ]

    def fam21(left_shift):
        return [
            ((1, 1), factors(2, (2, left_shift, 1), (1, 1, 1))),
            ((1, 0), factors(2, (2, left_shift, 1), (1, 2, 1), (2, 2, -1))),
        ]

    def fam22(left_shift):
        return [
            ((0, 2), factors(2, (2, left_shift, 1), (2, 1, 1))),
            ((2, 0), factors(2, (2, left_shift, 1), (1, 2, 2), (2, 2, -1))),
            ((0, 0), factors(2, (2, left_shift, 1), (2, 3, -1))),
        ]

    def fam13(left_shift):  # right factor is the length-1 crystal at shift 2
        return [
            ((2, 0), factors(2, (1, left_shift, 1), (1, 2, 1))),
            ((0, 1), factors(2, (1, left_shift, 1), (2, 2, 1), (1, 3, -1))),
            ((0, 0), factors(2, (1, left_shift, 1), (1, 4, -1))),
        ]

    def fam23(left_shift):
        return [
            ((1, 1), factors(2, (2, left_shift, 1), (1, 2, 1))),
            ((1, 0), factors(2, (2, left_shift, 1), (1, 3, 1), (2, 3, -1))),
        ]

    # (p, q, regimes); a regime is (m values, number of leading components).
    # The left witness factor for p = 3 lives at shift m + 1.
    return [
        (1, 1, fam11, 0, [([1], 1), ([2], 2), ([3, 4, 6], 3)]),
        (1, 2, fam12, 0, [([1, 2], 1), ([3, 4, 6], 2)]),
        (2, 1, fam21, 0, [([1], 1), ([2, 3, 5], 2)]),
        (2, 2, fam22, 0, [([1], 1), ([2], 2), ([3, 4, 6], 3)]),
        (1, 3, fam13, 0, [([2], 1), ([3], 2), ([4, 5, 7], 3)]),
        (2, 3, fam23, 0, [([2], 1), ([3, 4, 6], 2)]),
        (3, 1, fam11, 1, [([0], 1), ([1], 2), ([2, 3, 5], 3)]),
        (3, 2, fam12, 1, [([0, 1], 1), ([2, 3, 5], 2)]),
        (3, 3, fam13, 1, [([1], 1), ([2], 2), ([3, 4, 6], 3)]),
    ]


def test_criterion_1_rank2_example_suite():
    start = time.perf_counter()
    for p, q, family, left_offset, regimes in c2_families():
        for m_values, keep in regimes:
            for m in m_values:
                left, right = m_k_set(2, p, m), m_k_set(2, q, 1)
                decomposition = decompose_set({a * b for a in left for b in right})
                # a length-3 set is the length-1 set one shift up
                spec = ProductSpec(2, min(p, 4 - p), min(q, 4 - q), m + (p > 2) - (q > 2))
                expected = family(m + left_offset)[:keep]
                got = {c.weight.coeffs: c.witness for c in decomposition}
                assert got == {w: mono for w, mono in expected}, (
                    f"family p={p} q={q} m={m}: got {got}, expected {dict(expected)}"
                )
                assert decomposition_pairs(decomposition) == (
                    product_decomposition_closed_form(spec)
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (limit 1s)"
    report(1, True, f"rank-2 suite, 9 families ({elapsed:.2f}s)")


# -- criterion 2: rank 5, p = q = 3 -------------------------------------------------------

C5_33_STAGES = {
    1: {(3, 3)},
    2: {(3, 3), (2, 4)},
    3: {(3, 3), (2, 4), (1, 5)},
    4: {(3, 3), (2, 4), (1, 5), (1, 3), (0, 4), (2, 2)},
    5: {(3, 3), (2, 4), (1, 5), (1, 3), (0, 4), (2, 2), (0, 2), (1, 1)},
    6: {(3, 3), (2, 4), (1, 5), (1, 3), (0, 4), (2, 2), (0, 2), (1, 1), (0, 0)},
}


def test_criterion_2_rank5_p3_q3():
    start = time.perf_counter()
    for m, expected in C5_33_STAGES.items():
        spec = ProductSpec(5, 3, 3, m)
        decomposition = decompose_product_bruteforce(spec)
        pairs = decomposition_pairs(decomposition)
        assert set(pairs) == expected and len(pairs) == len(expected), f"m={m}"
        assert pairs == product_decomposition_closed_form(spec), f"m={m}"
    full = decompose_product_bruteforce(ProductSpec(5, 3, 3, 6))
    sizes = sorted((c.size for c in full), reverse=True)
    assert sizes == [5005, 4004, 1155, 891, 780, 165, 55, 44, 1]
    assert sum(sizes) == 12100 == 110 * 110
    assert len(product_set(ProductSpec(5, 3, 3, 6))) == 12100
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s (limit 30s)"
    report(2, True, f"six stages + sizes at rank 5 ({elapsed:.2f}s)")


# -- criterion 3: rank 5, p = 4, q = 5 ----------------------------------------------------

# Staging for this case: B(L4+L5) from m = 1 on, then one lower component
# joining at each of m = 3, 4, 5, 6.  Counting checks this without any
# decomposition.  The product set is the disjoint union of its components,
# whose Weyl dimensions are
#
#   B(L4+L5) 9438, B(L3+L4) 9152, B(L2+L3) 2860, B(L1+L2) 320, B(L1) 10,
#
# summing to |B(L4)| * |B(L5)| = 165 * 132 = 21780.  The product set has
# 9438, 9438, 18590, 21450, 21770, 21780 elements at m = 1..6 (a script
# sharing no code with this package, building B(L4) at shift m and B(L5) at
# shift 1 by closure and multiplying them, gives the same sizes).  At m = 2
# that is exactly dim B(L4+L5), so B(L3+L4) cannot enter before m = 3: a
# table with each lower component one step of m earlier cannot hold.

C5_45_STAGES = {
    1: {(4, 5)},
    2: {(4, 5)},
    3: {(4, 5), (3, 4)},
    4: {(4, 5), (3, 4), (2, 3)},
    5: {(4, 5), (3, 4), (2, 3), (1, 2)},
    6: {(4, 5), (3, 4), (2, 3), (1, 2), (0, 1)},
}


def test_criterion_3_rank5_p4_q5():
    start = time.perf_counter()
    for m, expected in C5_45_STAGES.items():
        spec = ProductSpec(5, 4, 5, m)
        decomposition = decompose_product_bruteforce(spec)
        pairs = decomposition_pairs(decomposition)
        assert set(pairs) == expected and len(pairs) == len(expected), (
            f"m={m}: computed {sorted(pairs)} vs expected {sorted(expected)}"
        )
        assert pairs == product_decomposition_closed_form(spec), f"m={m}"
        assert len(product_set(spec)) == sum(c.size for c in decomposition), f"m={m}"
    # decomposition is the m = 6 one: every component present
    sizes = sorted((c.size for c in decomposition), reverse=True)
    assert sizes == [9438, 9152, 2860, 320, 10]
    assert sum(sizes) == 21780 == 165 * 132
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s (limit 60s)"
    report(3, True, f"rank 5 p=4 q=5 stages + sizes ({elapsed:.2f}s)")


# -- criterion 4: tableau oracle vs closed form -------------------------------------------


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    for n in range(2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                oracle = Counter(
                    w.coeffs for _, _, w in tensor_highest_weights(n, p, q)
                )
                predicted = Counter(
                    weight_of_pair(n, a, c).coeffs
                    for a, c in tensor_decomposition_closed_form(n, p, q)
                )
                assert oracle == predicted, f"n={n} p={p} q={q}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s (limit 60s)"
    report(4, True, f"tableau oracle agreement n<=4 ({elapsed:.2f}s)")


# -- criterion 5: exhaustive theorem check ------------------------------------------------


def test_criterion_5_exhaustive_verify():
    from cncrystal.products import verify_range

    start = time.perf_counter()
    cells = verify_range(4, 10)
    elapsed = time.perf_counter() - start
    mismatches = [spec for spec, found, predicted in cells if found != predicted]
    assert mismatches == [], mismatches[:5]
    assert len(cells) == (4 + 9 + 16) * 10
    assert elapsed < 600.0, f"criterion 5 took {elapsed:.1f}s (limit 600s)"
    report(5, True, f"verify_range(4,10), {len(cells)} cells ({elapsed:.1f}s)")


# -- criterion 6: property suites ---------------------------------------------------------


def random_monomial(rng):
    n = rng.randint(2, 4)
    entries = [
        (rng.randint(1, n), rng.randint(-3, 9), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randint(0, 6))
    ]
    return from_factors(n, entries)


def check_element_properties(m):
    n = m.rank
    w = m.weight()
    shifted = m.shifted(2)
    for i in range(1, n + 1):
        stats = m.string_stats(i)
        assert stats.phi == stats.epsilon + w.pairing(i)
        up, down = m.e(i), m.f(i)
        if down is not None:
            assert down.e(i) == m
            assert down.weight() == w - simple_root(n, i)
        if up is not None:
            assert up.f(i) == m
            assert up.weight() == w + simple_root(n, i)
        # semi-normality: the statistics are actual string lengths
        count, cur = 0, m
        while (cur := cur.e(i)) is not None:
            count += 1
        assert count == stats.epsilon
        count, cur = 0, m
        while (cur := cur.f(i)) is not None:
            count += 1
        assert count == stats.phi
        # shift equivariance
        s1 = shifted.string_stats(i)
        assert (s1.epsilon, s1.phi) == (stats.epsilon, stats.phi)
        if up is not None:
            assert shifted.e(i) == up.shifted(2)
        if down is not None:
            assert shifted.f(i) == down.shifted(2)


def test_criterion_6_property_suites():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 5):
        for k in range(1, n + 1):
            for base in (1, 2):
                for mono in m_k_set(n, k, base):
                    check_element_properties(mono)
                    checked += 1
    rng = random.Random(20240822)
    for _ in range(10_000):
        check_element_properties(random_monomial(rng))
        checked += 1

    # product sets stay closed, two- and three-fold
    for n in (2, 3):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for m in (1, 2, 4):
                    assert is_closed(monomial_products(ProductSpec(n, p, q, m)))
    for n, triple in [(2, ((1, 2), (2, 1), (1, 1))), (3, ((2, 2), (3, 1), (1, 3)))]:
        sets = [m_k_set(n, k, m) for k, m in triple]
        assert is_closed({a * b * c for a in sets[0] for b in sets[1] for c in sets[2]})

    # left factor of any highest-weight product is the left generator
    for n in (2, 3):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for m in (1, 2, 3):
                    spec = ProductSpec(n, p, q, m)
                    generator = Monomial.generator(n, p, m)
                    right = set(fundamental_crystal(n, q))
                    for comp in decompose_product_bruteforce(spec):
                        assert comp.witness / generator in right

    # equal left and right shifts give a connected product
    for n in range(2, 5):
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

    # the X-word sets coincide with operator closures for every length
    for n in range(2, 5):
        for k in range(1, 2 * n + 1):
            elements = m_k_set(n, k, 1)
            if k == 2 * n:
                assert elements == (Monomial.one(n),)
                continue
            seed = (
                Monomial.generator(n, k, 1)
                if k <= n
                else Monomial.generator(n, 2 * n - k, 1 - n + k)
            )
            assert set(elements) == set(generate_closure([seed]).vertices)

    elapsed = time.perf_counter() - start
    report(6, True, f"{checked} elements checked, zero failures ({elapsed:.1f}s)")


# -- criterion 7: CLI determinism ---------------------------------------------------------


def test_criterion_7_cli_determinism(capsys):
    examples = [
        ["decompose-product", "--rank", "5", "--p", "3", "--q", "3", "--m", "2",
         "--format", "text"],
        ["elements", "--rank", "5", "--k", "3", "--m", "1", "--format", "json"],
        ["graph", "--rank", "2", "--k", "1", "--m", "1", "--format", "dot"],
        ["decompose-tensor", "--rank", "4", "--p", "2", "--q", "3",
         "--format", "json"],
        ["verify", "--n-max", "2", "--m-max", "4"],
    ]
    for argv in examples:
        outputs = set()
        for _ in range(2):
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0, argv
            outputs.add(captured.out)
            assert captured.out.endswith("\n")
        assert len(outputs) == 1, f"nondeterministic output for {argv}"
    report(7, True, "byte-identical CLI documents")
