import random
import re
from collections import Counter

import pytest

from cncrystal.graphs import CrystalInvariantError
from cncrystal.monomials import (
    Monomial,
    XLetter,
    m_k_idents,
    m_k_set,
    x_monomial,
)
from cncrystal.rootdata import VertexBudgetExceeded, Weight
import helpers
from helpers import exponent, from_factors, inv, root_monomial, support


def Y(n, *factors):
    return from_factors(n, factors)


def naive_string_stats(mono, i, pad=6):
    """Direct evaluation of the max-sum definitions over a wide window:
    (eps, phi, n_e, n_f), with n_f the smallest maximizer of the prefix sum
    sum_{k <= m} and n_e the largest maximizer of -sum_{k > m}."""
    shifts = [m for (j, m) in support(mono) if j == i]
    if not shifts:
        return 0, 0, None, None
    window = range(min(shifts) - pad, max(shifts) + pad + 1)
    below = {m: sum(exponent(mono, i, k) for k in window if k <= m) for m in window}
    above = {m: -sum(exponent(mono, i, k) for k in window if k > m) for m in window}
    phi = max(0, max(below.values()))
    eps = max(0, max(above.values()))
    n_f = min(m for m in window if below[m] == phi)
    n_e = max(m for m in window if above[m] == eps)
    return eps, phi, n_e, n_f


def assert_string_stats_match_naive(mono):
    for i in range(1, mono.rank + 1):
        s = mono.string_stats(i)
        eps, phi, n_e, n_f = naive_string_stats(mono, i)
        assert (s.epsilon, s.phi) == (eps, phi), (mono, i)
        # the shifts are meaningful only where the statistic is positive
        if phi > 0:
            assert s.n_f == n_f, (mono, i)
        if eps > 0:
            assert s.n_e == n_e, (mono, i)


# -- weights -------------------------------------------------------------------


def test_weight_of_examples():
    assert Y(4, (3, 7, 1)).weight() == Weight.fundamental(4, 3)
    assert Y(4, (2, 5, 1), (4, 1, 1)).weight() == Weight((0, 1, 0, 1))
    assert Y(2, (1, 2, -1), (2, 1, 1)).weight() == Weight((-1, 1))
    assert Monomial.one(3).weight() == Weight.zero(3)
    # weight() wraps its sums unchecked: the result must be the checked Weight's twin
    rng = random.Random(20261021)
    for _ in range(500):
        n = rng.randint(2, 5)
        mono = from_factors(n, random_factors(rng, n))
        sums = [sum(e for j, _, e in mono.sort_key() if j == i) for i in range(1, n + 1)]
        weight = mono.weight()
        assert weight == Weight(sums) and hash(weight) == hash(Weight(sums))
        assert type(weight.coeffs) is tuple and weight.coeffs == tuple(sums)


# -- string statistics ----------------------------------------------------------


def test_string_stats_examples():
    m = Y(2, (1, 2, 1), (2, 2, -1))
    s = m.string_stats(2)
    assert (s.epsilon, s.phi) == (1, 0)
    s = Y(3, (3, 5, 1)).string_stats(3)
    assert (s.epsilon, s.phi, s.n_f) == (0, 1, 5)
    s = Y(2, (1, 3, -1)).string_stats(1)
    assert (s.epsilon, s.phi, s.n_e) == (1, 0, 2)


def test_string_stats_match_naive_definition():
    samples = [
        Y(3, (1, 0, 2), (1, 3, -1), (2, 1, 1)),
        Y(3, (2, 2, -2), (2, 5, 1), (3, 4, 1)),
        Y(3, (1, 1, 1), (1, 2, -1), (1, 4, 1), (1, 6, -1)),
        Monomial.one(3),
        # plateaus: the maximum is held over a gap and attained twice
        Y(3, (1, 1, 1), (1, 5, -1)),
        Y(3, (1, 1, 2), (1, 3, -1), (1, 4, 1), (1, 7, -3)),
        Y(3, (2, -2, 1), (2, 0, -1), (2, 3, 1), (2, 4, -1)),
        # zero-sum rows
        Y(3, (1, 2, -1), (1, 4, 1)),
        Y(3, (3, 0, 1), (3, 1, -2), (3, 2, 1)),
        # single-entry rows, negative exponents
        Y(3, (1, 3, 1), (2, -1, -1), (3, 7, 4)),
        Y(3, (1, -4, -3), (2, 0, 2), (3, 2, -1)),
        Y(3, (1, 0, -1), (1, 1, -1), (2, 2, -2), (2, 5, -1)),
    ]
    for mono in samples:
        assert_string_stats_match_naive(mono)


def test_string_stats_match_naive_definition_on_random_monomials():
    rng = random.Random(20250718)
    for _ in range(2000):
        n = rng.randint(2, 4)
        factors = [
            (rng.randint(1, n), rng.randint(-3, 5), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, 8))
        ]
        assert_string_stats_match_naive(from_factors(n, factors))


def test_string_stats_index_range():
    with pytest.raises(ValueError):
        Monomial.one(3).string_stats(4)


# -- root monomials -------------------------------------------------------------


def test_root_monomial_examples():
    assert root_monomial(2, 1, 1) == Y(2, (1, 1, 1), (1, 2, 1), (2, 1, -1))
    assert root_monomial(2, 2, 1) == Y(2, (2, 1, 1), (2, 2, 1), (1, 2, -2))
    assert root_monomial(4, 2, 3) == Y(4, (2, 3, 1), (2, 4, 1), (1, 4, -1), (3, 3, -1))


# -- raising and lowering ---------------------------------------------------------


def test_apply_e_examples():
    assert Y(2, (1, 1, 1)).e(1) is None
    assert Y(2, (1, 3, -1)).e(1) == Y(2, (1, 2, 1), (2, 2, -1))
    assert Y(2, (1, 2, 1), (2, 2, -1)).e(2) == Y(2, (1, 2, -1), (2, 1, 1))


def test_apply_f_examples():
    assert Y(2, (1, 1, 1)).f(1) == Y(2, (1, 2, -1), (2, 1, 1))
    assert Y(2, (2, 1, 1)).f(1) is None


def test_lowering_chain_is_the_four_vertex_path():
    chain = [Y(2, (1, 1, 1))]
    labels = []
    while True:
        current = chain[-1]
        step = next(
            ((i, current.f(i)) for i in (1, 2) if current.f(i) is not None), None
        )
        if step is None:
            break
        labels.append(step[0])
        chain.append(step[1])
    assert labels == [1, 2, 1]
    assert chain[1] == Y(2, (1, 2, -1), (2, 1, 1))
    assert chain[2] == Y(2, (1, 2, 1), (2, 2, -1))
    assert chain[3] == Y(2, (1, 3, -1))
    assert all(chain[-1].f(i) is None for i in (1, 2))
    assert all(chain[0].e(i) is None for i in (1, 2))


# -- multiplication ---------------------------------------------------------------


def test_multiply_cancels_and_has_identity():
    a = Y(2, (1, 2, 1))
    b = Y(2, (1, 2, -1), (2, 1, 1))
    assert a * b == Y(2, (2, 1, 1))
    assert a * Monomial.one(2) == a
    c = Y(5, (3, 3, 1))
    assert c * c == Y(5, (3, 3, 2))
    assert a * b == b * a


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        Y(2, (1, 1, 1)) * Y(3, (1, 1, 1))
    with pytest.raises(ValueError, match="^rank mismatch: 2 vs 3$"):
        Y(2, (1, 1, 1)) / Y(3, (1, 1, 1))
    with pytest.raises(TypeError):
        Y(2, (1, 1, 1)) * 3
    with pytest.raises(TypeError):
        Y(2, (1, 1, 1)) / "x"


def test_division_and_inverse():
    a = Y(2, (1, 2, 1), (2, 1, -1))
    assert a / a == Monomial.one(2)
    assert a * inv(a) == Monomial.one(2)


# -- X-variables -------------------------------------------------------------------


def test_x_monomial_examples():
    assert x_monomial(2, XLetter(1, 5)) == Y(2, (1, 5, 1))
    assert x_monomial(2, XLetter(-2, 1)) == Y(2, (1, 2, 1), (2, 2, -1))
    assert x_monomial(2, XLetter(-1, 1)) == Y(2, (1, 3, -1))
    assert x_monomial(3, XLetter(2, 4)) == Y(3, (2, 4, 1), (1, 5, -1))
    assert str(XLetter(-2, 1)) == "X2̄(1)"
    assert str(XLetter(1, 3)) == "X1(3)"


def test_generator_is_consecutive_x_word():
    # Y_k(N) = X_1(k+N-1) X_2(k+N-2) ... X_k(N)
    for n, k, base in [(3, 2, 1), (4, 3, 2), (5, 5, 1)]:
        word = [XLetter(j + 1, k + base - 1 - j) for j in range(k)]
        prod = Monomial.one(n)
        for letter in word:
            prod = prod * x_monomial(n, letter)
        assert prod == Monomial.generator(n, k, base)


def test_m_k_set_rank2_single_letters():
    got = m_k_set(2, 1, 1)
    expected = {
        Y(2, (1, 1, 1)),
        Y(2, (1, 2, -1), (2, 1, 1)),
        Y(2, (1, 2, 1), (2, 2, -1)),
        Y(2, (1, 3, -1)),
    }
    assert set(got) == expected
    assert len(got) == 4
    assert list(got) == sorted(got)


def test_m_k_set_rank4_collision():
    # two distinct three-letter X-words describe the same exponent function
    w1 = [XLetter(1, 3), XLetter(3, 2), XLetter(-3, 1)]
    w2 = [XLetter(1, 3), XLetter(4, 2), XLetter(-4, 1)]
    prod1 = prod2 = Monomial.one(4)
    for a, b in zip(w1, w2):
        prod1 = prod1 * x_monomial(4, a)
        prod2 = prod2 * x_monomial(4, b)
    target = Y(4, (3, 3, -1), (3, 2, 1), (1, 3, 1))
    assert prod1 == prod2 == target
    assert target in m_k_set(4, 3, 1)


def test_m_k_set_counts():
    assert len(m_k_set(5, 3, 1)) == 110
    assert len(m_k_set(2, 2, 1)) == 5
    assert m_k_set(2, 4, 7) == (Monomial.one(2),)


def test_m_k_idents_pack_the_x_word_sets():
    # an X-word's ident is the sum of its letters' idents, so the sums are the packed set
    for n in range(2, 9):
        for k in range(1, 2 * n + 1):
            assert m_k_idents(n, k) == {x.ident() for x in m_k_set(n, k, 1)}, (n, k)


def test_m_k_set_refuses_over_budget_before_walking_words(monkeypatch):
    # M_3 at rank 5 walks C(10, 3) = 120 X-words and keeps 110 monomials
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "120")
    assert len(m_k_set(5, 3, 1)) == 110
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "119")
    with pytest.raises(VertexBudgetExceeded, match=r"length 3 at rank 5 walks C\(10, 3\)"):
        m_k_set(5, 3, 1)


def test_m_k_set_range_errors():
    with pytest.raises(ValueError):
        m_k_set(2, 0, 1)
    with pytest.raises(ValueError):
        m_k_set(2, 5, 1)
    # a bool or a float length is refused by the same rule, naming k
    with pytest.raises(ValueError, match=r"index k=True out of range \[1, 4\]"):
        m_k_set(2, True, 1)
    with pytest.raises(ValueError, match=r"index k=1\.0 out of range \[1, 4\]"):
        m_k_set(2, 1.0, 1)


# -- canonical forms ------------------------------------------------------------------


def test_text_form():
    assert str(Monomial.one(2)) == "1"
    m = Y(2, (2, 1, 1), (1, 2, -1))
    assert str(m) == "Y1(2)^-1*Y2(1)"
    assert str(Y(5, (3, 3, 2))) == "Y3(3)^2"


def test_json_form_key_order():
    m = Y(3, (2, 1, 1), (1, 5, -1), (1, 2, 3))
    assert m.to_json() == [[1, 2, 3], [1, 5, -1], [2, 1, 1]]


def test_canonical_equality():
    assert Y(2, (1, 1, 1), (1, 1, -1)) == Monomial.one(2)
    assert from_factors(2, [(1, 1, 1), (1, 1, 1)]) == Y(2, (1, 1, 2))


def test_exponent_row_bounds():
    with pytest.raises(ValueError):
        Y(2, (3, 1, 1))


def test_non_integer_shifts_and_exponents_are_rejected():
    with pytest.raises(ValueError, match=r"Y_1\(1\.5\)\^1: shift and exponent must be integers"):
        Monomial(2, {(1, 1): 1, (1, 1.5): 1})
    with pytest.raises(ValueError, match=r"Y_1\(1\)\^1\.9"):
        Monomial(2, {(1, 1): 1.9})
    with pytest.raises(ValueError, match=r"Y_2\(0\.5\)\^1"):
        from_factors(2, [(2, 0.5, 1)])
    # exponents summing to a whole float are still not integers
    with pytest.raises(ValueError, match=r"Y_1\(1\)\^1\.0"):
        from_factors(2, [(1, 1, 0.5), (1, 1, 0.5)])
    with pytest.raises(ValueError, match=r"Y_1\(1\.5\)\^1"):
        Monomial.generator(2, 1, 1.5)
    with pytest.raises(ValueError, match=r"Y_1\(1\)\^2\.5"):
        Monomial.generator(2, 1, 1, 2.5)
    with pytest.raises(ValueError, match=r"Y_1\(True\)\^1: shift and exponent must be integers"):
        Monomial(2, {(1, True): 1})
    with pytest.raises(ValueError, match=r"Y_1\(1\)\^False"):
        Monomial(2, {(1, 1): False})
    with pytest.raises(ValueError, match=r"Y_1\('1'\)\^1"):
        Monomial(2, {(1, "1"): 1})
    with pytest.raises(ValueError, match="index i=True"):
        Monomial(2, {(True, 1): 1})
    # the public entries that pass an outside shift to _trusted check it too
    with pytest.raises(ValueError, match=r"shift m=1\.5 must be an integer"):
        m_k_set(2, 1, 1.5)
    with pytest.raises(ValueError, match="shift m=True must be an integer"):
        m_k_set(2, 1, True)
    with pytest.raises(ValueError, match=r"shift letter\.shift=0\.5 must be an integer"):
        x_monomial(2, XLetter(1, 0.5))
    with pytest.raises(ValueError, match=r"shift a=0\.5 must be an integer"):
        helpers.shifted(Monomial.generator(2, 1, 1), 0.5)
    with pytest.raises(ValueError, match=r"shift m=0\.5 must be an integer"):
        root_monomial(2, 1, 0.5)
    assert Monomial.generator(2, 1, 1, 0) == Monomial.one(2)


# -- the sorted-triple representation, against a reference on exponent maps ---------


def canonical(exps):
    """The to_json() document of an exponent map: nonzero entries in (i, m) order."""
    return [[i, m, e] for (i, m), e in sorted(exps.items()) if e]


def reference_root(n, i, m, sign):
    out = Counter({(i, m): sign, (i, m + 1): sign})
    if i >= 2:
        out[(i - 1, m + 1)] = -sign * (2 if i == n else 1)
    if i < n:
        out[(i + 1, m)] = -sign
    return out


def random_factors(rng, n):
    return [
        (rng.randint(1, n), rng.randint(-3, 4), rng.choice((-2, -1, 1, 2)))
        for _ in range(rng.randint(0, 9))
    ]


def assert_matches(mono, exps):
    expected = canonical(exps)
    assert mono.to_json() == expected
    assert mono == Monomial(mono.rank, dict(exps))
    assert hash(mono) == hash(Monomial(mono.rank, dict(exps)))


def test_operations_match_a_counter_reference_on_random_monomials():
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(2, 5)
        fa, fb = random_factors(rng, n), random_factors(rng, n)
        ca, cb = Counter(), Counter()
        for counter, factors in ((ca, fa), (cb, fb)):
            for i, m, e in factors:
                counter[(i, m)] += e
        a, b = from_factors(n, fa), from_factors(n, fb)
        assert_matches(a, ca)

        product, quotient = Counter(ca), Counter(ca)
        product.update(cb)
        quotient.subtract(cb)
        assert_matches(a * b, product)
        assert_matches(a / b, quotient)

        shift = rng.randint(-4, 4)
        assert_matches(helpers.shifted(a, shift), {(i, m + shift): e for (i, m), e in ca.items()})

        shifts = [m for (_, m) in ca] or [0]
        for i in range(1, n + 1):
            for m in range(min(shifts) - 1, max(shifts) + 2):
                assert exponent(a, i, m) == ca[(i, m)]
            eps, phi, n_e, n_f = naive_string_stats(a, i)
            raised, lowered = Counter(ca), Counter(ca)
            raised.update(reference_root(n, i, n_e, 1) if eps else {})
            lowered.update(reference_root(n, i, n_f, -1) if phi else {})
            if eps:
                assert_matches(a.e(i), raised)
            else:
                assert a.e(i) is None
            if phi:
                assert_matches(a.f(i), lowered)
            else:
                assert a.f(i) is None


def test_images_are_the_pair_of_e_and_f_on_random_monomials():
    rng = random.Random(20261019)
    for _ in range(2000):
        n = rng.randint(2, 5)
        mono = from_factors(n, random_factors(rng, n))
        for i in range(1, n + 1):
            assert mono.images(i) == (mono.e(i), mono.f(i))
        for i in (0, n + 1):
            with pytest.raises(ValueError) as by_e:
                mono.e(i)
            with pytest.raises(ValueError) as by_images:
                mono.images(i)
            assert str(by_images.value) == str(by_e.value)


def test_lowerings_are_epsilon_and_f_of_every_row_on_random_monomials():
    rng = random.Random(20261020)
    for _ in range(2000):
        n = rng.randint(2, 5)
        # random shifts span [-3, 4]; idents need shifts >= 1, and the shift commutes with f
        mono = helpers.shifted(from_factors(n, random_factors(rng, n)), 4)
        assert mono.lowerings() == tuple(
            (mono.string_stats(i).epsilon, f.ident() if f else None)
            for i in range(1, n + 1) for f in [mono.images(i)[1]]
        )


def unchecked_packing(mono):
    return sum(e << 8 * ((s - 1) * mono.rank + i - 1) for i, s, e in mono.sort_key())


def test_lowerings_name_images_at_the_edge_of_the_field():
    # an element's digits may sit at -64 or 63; f_i moves up to 4 of them by up to 2,
    # so its image may leave the field, and lowerings() must still give its exact packing
    edges = [Y(3, (3, 2, 63), (3, 3, -64), (2, 3, 63)),  # f_3: Y2(3)^65, Y3(3)^-65
             Y(3, (2, 1, 63), (3, 1, 63), (1, 2, -64)),  # f_2: Y3(1)^64, Y1(2)^-63
             Y(2, (1, 1, 63), (1, 2, -64), (2, 1, -64))]  # f_1: Y1(2)^-65, Y2(1)^-63
    rng = random.Random(20261022)
    for _ in range(300):
        n = rng.randint(2, 4)
        edges.append(Monomial(n, {(rng.randint(1, n), rng.randint(1, 4)): rng.choice((-64, 63, -1, 2))
                                  for _ in range(rng.randint(1, 8))}))
    outside = 0
    for mono in edges:
        for i, (_, ident) in enumerate(mono.lowerings(), 1):
            f = mono.f(i)
            assert ident == (None if f is None else unchecked_packing(f))
            if f is not None and any(not -64 <= e < 64 for _, _, e in f.sort_key()):
                outside += 1
                with pytest.raises(CrystalInvariantError, match=fr"^{re.escape(str(f))} does not pack"):
                    f.ident()
    assert outside >= 3


def test_cancellation_gives_the_canonical_one():
    for n, factors in [(2, [(1, 1, 1)]), (3, [(1, 0, 2), (2, 1, -1), (3, 1, 1)]),
                       (5, [(5, 4, -3), (1, -2, 1), (3, 3, 2), (3, 4, -1)])]:
        y = Y(n, *factors)
        for one in (y * inv(y), y / y, inv(y) * y):
            assert one == Monomial.one(n)
            assert hash(one) == hash(Monomial.one(n))
            assert one.to_json() == []
            assert str(one) == "1"
    # a partial cancellation keeps the survivors in key order
    y = Y(3, (1, 1, 1), (2, 1, 1), (3, 1, 1))
    assert (y / Y(3, (2, 1, 1))).to_json() == [[1, 1, 1], [3, 1, 1]]


def test_sorted_order_is_the_json_document_order():
    rng = random.Random(7)
    for n in range(2, 6):
        sample = list({from_factors(n, random_factors(rng, n)) for _ in range(300)})
        assert sorted(sample) == sorted(sample, key=Monomial.to_json)
        assert [v.to_json() for v in sorted(sample)] == sorted(v.to_json() for v in sample)
    crystal = m_k_set(4, 2, 1)
    assert list(crystal) == sorted(crystal, key=Monomial.to_json)


def test_exponent_is_zero_at_absent_keys_on_boundaries():
    mono = Y(3, (1, 5, 1), (2, 0, -1), (2, 2, 3), (3, 2, 2))
    present = {(1, 5): 1, (2, 0): -1, (2, 2): 3, (3, 2): 2}
    for (i, m), e in present.items():
        assert exponent(mono, i, m) == e
    # past the end of a row, between shifts, before and after the whole key
    for i, m in [(1, 4), (1, 6), (1, 0), (2, -1), (2, 1), (2, 3), (2, 5),
                 (3, 1), (3, 3), (1, -100), (3, 100)]:
        assert exponent(mono, i, m) == 0
    assert exponent(Monomial.one(3), 1, 1) == 0
