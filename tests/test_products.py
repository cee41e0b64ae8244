import json
import re
from collections import Counter

import pytest
from highest_weight_reference import decompose_product_highest_weights

from cncrystal import products
from cncrystal.cli import main
from cncrystal.graphs import CrystalInvariantError, generate_closure, is_closed
from cncrystal.monomials import Monomial, m_k_idents, m_k_set, unpack
from cncrystal.products import (
    ProductSpec,
    predicted_components,
    decompose_product_bruteforce,
    decompose_product_character,
    decomposition_pairs,
    fundamental_crystal,
    product_decomposition_closed_form,
    product_set,
    tensor_decomposition_closed_form,
    verify_range,
    weight_of_pair,
    weight_to_pair,
)
from cncrystal.rootdata import VertexBudgetExceeded, Weight
from cncrystal.tableaux import tensor_highest_weights
import helpers
from helpers import from_factors, monomial_products


def test_fundamental_crystal_counts():
    assert len(fundamental_crystal(5, 3)) == 110
    for m in range(1, 5):
        assert len(m_k_set(2, 1, m)) == 4
    assert len(fundamental_crystal(2, 2)) == 5


def test_fundamental_crystal_cache_answers_no_unvalidated_key():
    # True == 1 hashes alike: a cached (2, 1) must not answer (2, True), nor its packed form's
    for crystal in (fundamental_crystal, products._crystal_idents):
        crystal(2, 1)
        with pytest.raises(ValueError, match=r"^index k=True out of range \[1, 2\]$"):
            crystal(2, True)


def test_the_packed_crystal_decodes_to_the_fundamental_crystal_by_decreasing_int():
    # products, brute force and verify read the packed form alone; it is the crystal's idents
    for n in range(2, 7):
        for k in range(1, n + 1):
            packed = products._crystal_idents(n, k)
            assert type(packed) is tuple and all(type(x) is int for x in packed), (n, k)
            assert tuple(sorted(unpack(n, x) for x in packed)) == fundamental_crystal(n, k), (n, k)
            assert all(x > y for x, y in zip(packed, packed[1:])), (n, k)  # strictly decreasing


def test_fundamental_crystal_translates():
    # products and verify build only the shift-1 crystals and translate their packed ints; M_k(m)
    # is the closure of Y_k(m), its X-words, the shifted crystal and the shifted ints alike
    for n in range(2, 6):
        for k in range(1, n + 1):
            base = fundamental_crystal(n, k)
            for m in range(1, 2 * n + 2):
                closure = tuple(sorted(generate_closure([Monomial.generator(n, k, m)]).vertices))
                assert closure == m_k_set(n, k, m), (n, k, m)
                assert closure == tuple(sorted(helpers.shifted(x, m - 1) for x in base)), (n, k, m)
                shifted = [x.ident() << 8 * n * (m - 1) for x in base]
                assert closure == tuple(sorted(unpack(n, x) for x in shifted)), (n, k, m)
                assert [helpers.shifted(x, m - 1).ident() for x in base] == shifted


def test_a_closure_that_disagrees_with_the_x_words_is_an_invariant_error(monkeypatch, capsys):
    # an X-word enumeration gone wrong: each word dropped in turn opens the set; a foreign
    # ident, open (Y1(5)) or closed (the monomial 1), adds a component; the words shifted to
    # M_1(2) are one closed component, but its witness is Y1(2), not Y1(1)
    words = m_k_idents(2, 1)
    assert words == {x.ident() for x in m_k_set(2, 1, 1)} and len(words) == 4
    mutated = [words - {x} for x in sorted(words)]
    mutated += [words | {Monomial.generator(2, 1, 5).ident()}, words | {Monomial.one(2).ident()}]
    mutated.append({x << 16 for x in words})
    message = "closure of Y_1(1) disagrees with the X-word enumeration at rank 2"
    try:
        for idents in mutated:
            monkeypatch.setattr(products, "m_k_idents", lambda n, k: set(idents))
            products._crystal_idents.cache_clear()  # the proof is cached in packed form
            fundamental_crystal.cache_clear()
            with pytest.raises(CrystalInvariantError, match=f"^{re.escape(message)}$"):
                fundamental_crystal(2, 1)
            assert main(["decompose-product", "--rank", "2", "--p", "1", "--q", "1"]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
    finally:
        products._crystal_idents.cache_clear()
        fundamental_crystal.cache_clear()


def test_packing_refuses_an_exponent_or_a_shift_outside_its_field():
    for exponent, shift in ((64, 2), (-65, 2), (1, 0)):
        x = Monomial.generator(3, 2, shift, exponent)
        with pytest.raises(CrystalInvariantError, match=fr"^{re.escape(str(x))} does not pack"):
            x.ident()
    # the digit of Y_2(2) sits at (2 - 1) * 3 + 2 - 1 = 4
    assert Monomial.generator(3, 2, 2, 63).ident() == 63 << 32
    assert Monomial.generator(3, 2, 2, -64).ident() == -64 << 32
    assert from_factors(3, [(1, 1, 1), (3, 1, -2)]).ident() == 1 - (2 << 16)


def test_packed_sums_count_the_monomial_products():
    for p, q, m in ((1, 1, 1), (2, 3, 4), (3, 2, 5), (3, 3, 7)):
        spec = ProductSpec(3, p, q, m)
        left = [x.ident() << 8 * 3 * (m - 1) for x in fundamental_crystal(3, p)]
        right = [y.ident() for y in fundamental_crystal(3, q)]
        sums = {x + y for x in left for y in right}
        monomials = monomial_products(spec)
        assert len(sums) == len(monomials)
        assert sums == {z.ident() for z in monomials} == product_set(spec).keys()


def test_product_set_sizes_rank2():
    assert len(product_set(ProductSpec(2, 1, 1, 1))) == 10
    assert len(product_set(ProductSpec(2, 1, 1, 3))) == 16
    tensor_size = len(fundamental_crystal(2, 1)) ** 2
    assert len(product_set(ProductSpec(2, 1, 1, 1))) < tensor_size
    # the 4 * 4 products formed cover the 10-element set, so some collide
    letters = fundamental_crystal(2, 1)
    formed = [a * b for a in letters for b in letters]
    assert len(formed) == 16
    assert {z.ident() for z in formed} == product_set(ProductSpec(2, 1, 1, 1)).keys()


def test_product_set_is_closed():
    elements = monomial_products(ProductSpec(3, 2, 2, 2))
    assert is_closed(elements)


def test_bruteforce_rank2_examples():
    dec = decompose_product_bruteforce(ProductSpec(2, 1, 1, 2))
    assert decomposition_pairs(dec) == ((0, 2), (1, 1))
    dec = decompose_product_bruteforce(ProductSpec(2, 2, 2, 3))
    assert decomposition_pairs(dec) == ((0, 0), (1, 1), (2, 2))
    assert sum(c.size for c in dec) == len(product_set(ProductSpec(2, 2, 2, 3)))


def test_bruteforce_left_factor_witnesses():
    spec = ProductSpec(3, 2, 3, 4)
    dec = decompose_product_bruteforce(spec)
    left = Monomial.generator(3, 2, 4)
    right = set(fundamental_crystal(3, 3))
    for comp in dec:
        assert comp.witness / left in right


def test_bruteforce_rejects_an_open_product_set(monkeypatch):
    spec = ProductSpec(2, 1, 1, 2)
    # no component of this set is a single element, so dropping any one leaves it open
    truncated = product_set(spec)
    truncated.popitem()
    monkeypatch.setattr(products, "product_set", lambda _spec: truncated)
    with pytest.raises(CrystalInvariantError, match="is not operator-closed") as info:
        decompose_product_bruteforce(spec)
    assert str(spec) in str(info.value)
    assert "leaves the set" in str(info.value)


def test_a_broken_decomposition_names_the_spec_and_the_phase(monkeypatch):
    def broken(_products, _rank):
        raise CrystalInvariantError("components are not pairwise disjoint")

    spec = ProductSpec(2, 1, 1, 2)
    monkeypatch.setattr(products, "decompose_set", broken)
    with pytest.raises(CrystalInvariantError) as info:
        decompose_product_bruteforce(spec)
    assert str(info.value) == (
        "decomposing ProductSpec(n=2, p=1, q=1, m=2): components are not pairwise disjoint"
    )


def test_a_missing_factorization_names_the_spec(monkeypatch):
    spec = ProductSpec(2, 1, 1, 2)
    fundamental_crystal(2, 1)  # cached now, so the shifted generator does not build it
    generator = Monomial.generator
    # the check subtracts the ident of the left generator Y1(2) from each witness's; that of
    # Y1(3) instead lands outside the right-hand crystal
    monkeypatch.setattr(Monomial, "generator", lambda n, k, m: generator(n, k, m + 1))
    with pytest.raises(CrystalInvariantError) as info:
        decompose_product_bruteforce(spec)
    assert str(info.value) == (
        "decomposing ProductSpec(n=2, p=1, q=1, m=2): highest-weight product Y2(1) "
        "has no factorization with left factor Y1(3)"
    )


def test_highest_weight_path_equals_brute_force():
    # every cell with n <= 4 and m <= 2n: same components, same witnesses, same
    # order; and the character path gives the same weight multiset
    for n in range(2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for m in range(1, 2 * n + 1):
                    spec = ProductSpec(n, p, q, m)
                    brute = decompose_product_bruteforce(spec)
                    fast = decompose_product_highest_weights(spec)
                    assert fast == brute, spec  # weights, sizes and witnesses, in order
                    expected = Counter(c.weight.coeffs for c in brute)
                    assert decompose_product_character(spec) == expected, spec


def test_character_path_equals_the_highest_weight_path_at_rank5():
    for p in range(1, 6):
        for q in range(1, 6):
            for m in range(1, 7):
                spec = ProductSpec(5, p, q, m)
                fast = decompose_product_highest_weights(spec)
                expected = Counter(c.weight.coeffs for c in fast)
                assert decompose_product_character(spec) == expected, spec


def test_character_path_invariants_name_the_spec(monkeypatch):
    spec = ProductSpec(3, 2, 3, 4)
    multiplicity = products.weight_multiplicity
    # a hundredfold multiplicity over-subtracts, leaving a negative remainder
    monkeypatch.setattr(products, "weight_multiplicity", lambda hw, w: 100 * multiplicity(hw, w))
    with pytest.raises(CrystalInvariantError, match=r"gives B\(Λ1\+Λ2\) -\d+ times") as info:
        decompose_product_character(spec)
    assert str(spec) in str(info.value)
    # a zero multiplicity below the top never subtracts: too many components, too many elements
    monkeypatch.setattr(products, "weight_multiplicity", lambda hw, w: int(hw == w))
    with pytest.raises(CrystalInvariantError, match="but its product set has") as info:
        decompose_product_character(spec)
    assert str(spec) in str(info.value)


def test_verify_forms_no_product_set_and_applies_no_operator(monkeypatch):
    # the shift-1 fundamental crystals are built (by closure, with e and f, and
    # checked against their X-words) beforehand; verify then only packs, weighs
    # and adds what the cache holds
    for n in range(2, 4):
        for k in range(1, n + 1):
            fundamental_crystal(n, k)

    def forbidden(*args):
        raise AssertionError("verify called a forbidden function")

    monkeypatch.setattr(products, "product_set", forbidden)
    for name in ("e", "f", "string_stats", "lowerings", "__mul__"):
        monkeypatch.setattr(Monomial, name, forbidden)
    cells = verify_range(3, 2)
    assert len(cells) == (4 + 9) * 2
    assert [spec for spec, found, predicted in cells if found != predicted] == []


def test_a_missed_highest_weight_breaks_conservation(monkeypatch):
    spec = ProductSpec(3, 2, 3, 4)
    dropped = decompose_product_highest_weights(spec)[0].witness
    is_highest_weight = Monomial.is_highest_weight
    monkeypatch.setattr(
        Monomial, "is_highest_weight", lambda self: self != dropped and is_highest_weight(self)
    )
    with pytest.raises(CrystalInvariantError, match="but its product set has") as info:
        decompose_product_highest_weights(spec)
    assert str(spec) in str(info.value)


# -- closed forms ------------------------------------------------------------------


def test_products_are_refused_over_budget_before_any_is_formed(monkeypatch):
    # each factor has 6 elements, so 36 products would be formed
    assert len(m_k_set(3, 1, 2)) == len(fundamental_crystal(3, 1)) == 6
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "35")

    def no_products(a, b):
        raise AssertionError("a product was formed")

    message = r"lengths 1 and 1 at rank 3 form 6\*6 products: 36 exceeds the vertex budget 35"
    with pytest.raises(VertexBudgetExceeded, match=message):
        decompose_product_bruteforce(ProductSpec(3, 1, 1, 2))
    # the factors are cached, so building the product set multiplies nothing else
    monkeypatch.setattr(Monomial, "__mul__", no_products)
    with pytest.raises(VertexBudgetExceeded, match=message):
        product_set(ProductSpec(3, 1, 1, 2))
    monkeypatch.undo()
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "36")
    assert len(product_set(ProductSpec(3, 1, 1, 2))) <= 36


def test_a_repeated_product_set_is_checked_against_the_budget_again(monkeypatch):
    spec = ProductSpec(3, 1, 1, 2)
    assert len(product_set(spec)) == 35
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "35")
    with pytest.raises(VertexBudgetExceeded, match="36 exceeds the vertex budget 35"):
        product_set(spec)


def test_a_fundamental_crystal_is_refused_over_budget_before_its_closure(monkeypatch):
    # Y_3(1) at rank 5 walks C(10, 3) = 120 X-words and closes to 110 elements
    def no_walk(elements, rank):
        raise AssertionError("the walk was started")

    monkeypatch.setattr(products, "decompose_set", no_walk)
    monkeypatch.setenv("CRYSTAL_VERTEX_BUDGET", "119")
    message = r"length 3 at rank 5 walks C\(10, 3\) X-words: 120 exceeds the vertex budget 119"
    with pytest.raises(VertexBudgetExceeded, match=message):
        products._crystal_idents.__wrapped__(5, 3)  # uncached


def test_tensor_closed_form_examples():
    assert tensor_decomposition_closed_form(2, 1, 1) == ((0, 0), (0, 2), (1, 1))
    assert set(tensor_decomposition_closed_form(5, 3, 3)) == {
        (3, 3),
        (2, 4),
        (1, 5),
        (1, 3),
        (0, 4),
        (2, 2),
        (0, 2),
        (1, 1),
        (0, 0),
    }
    for n in range(2, 6):
        for p in range(1, n + 1):
            assert (p, p) in tensor_decomposition_closed_form(n, p, p)


def test_tensor_closed_form_symmetric():
    for n in range(2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                assert tensor_decomposition_closed_form(
                    n, p, q
                ) == tensor_decomposition_closed_form(n, q, p)


def test_product_closed_form_thresholds_c5():
    thresholds = {
        (2, 4): 2,
        (1, 5): 3,
        (1, 3): 4,
        (0, 4): 4,
        (2, 2): 4,
        (0, 2): 5,
        (1, 1): 5,
        (0, 0): 6,
    }
    table = predicted_components(5, 3, 3)
    for (a, c), start in thresholds.items():
        assert table[a, c] == start
        for m in range(1, 9):
            spec = ProductSpec(5, 3, 3, m)
            present = (a, c) in product_decomposition_closed_form(spec)
            assert present == (m >= start)
    assert table[3, 3] == 1
    assert (2, 3) not in table


def test_predicted_components_families():
    table = predicted_components(5, 3, 3)
    assert table[3, 3] == 1
    assert table[1, 5] == 3
    assert table[0, 0] == 6
    # the gap is even and nonnegative; the top pair is present from m = 1
    for n in range(2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                table = predicted_components(n, p, q)
                assert table[min(p, q), max(p, q)] == 1
                for (a, c), threshold in table.items():
                    gap = p + q - a - c
                    assert gap >= 0 and gap % 2 == 0
                    assert threshold >= 1


def test_predictions_cover_the_tensor_constituents():
    for n in range(2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                pairs = tuple(predicted_components(n, p, q))
                assert pairs == tensor_decomposition_closed_form(n, p, q)
                assert list(pairs) == sorted(pairs)


def test_product_closed_form_m1_is_top_component_only():
    for n in range(2, 6):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                spec = ProductSpec(n, p, q, 1)
                assert product_decomposition_closed_form(spec) == (
                    (min(p, q), max(p, q)),
                )


def test_product_closed_form_is_subset_of_tensor():
    for n in range(2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                tensor = set(tensor_decomposition_closed_form(n, p, q))
                for m in range(1, 12):
                    got = product_decomposition_closed_form(ProductSpec(n, p, q, m))
                    assert len(set(got)) == len(got)
                    assert set(got) <= tensor


def test_product_closed_form_saturates_to_tensor():
    for n in range(2, 5):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                big = ProductSpec(n, p, q, n + q + 2)
                assert set(
                    product_decomposition_closed_form(big)
                ) == set(tensor_decomposition_closed_form(n, p, q))


def test_weight_pair_roundtrip():
    for n in range(2, 5):
        for a in range(0, n + 1):
            for c in range(a, n + 1):
                assert weight_to_pair(weight_of_pair(n, a, c)) == (a, c)
    for coeffs in ((3, 0), (1, -1), (2, 1), (0, 0, 3)):
        with pytest.raises(ValueError, match="is not a sum of two fundamental weights"):
            weight_to_pair(Weight(coeffs))


# -- every shift from a finite range -----------------------------------------------


def test_fundamental_crystals_lie_in_shifts_1_to_n_plus_1():
    # so M_p(m) lies in shifts [m, m + n], apart from M_q(1) once m >= n + 2, where a product
    # a*b names its factors; and every threshold is reached by then, at most at n + 1
    for n in range(2, 9):
        for k in range(1, n + 1):
            shifts = {s for x in fundamental_crystal(n, k) for _, s, _ in x.sort_key()}
            assert min(shifts) >= 1 and max(shifts) <= n + 1, (n, k)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                assert max(predicted_components(n, p, q).values()) <= n + 1, (n, p, q)


def test_the_closed_form_matches_the_column_oracle_at_ranks_5_to_7():
    # criterion 4 compares them at ranks 2-4, and CI at rank 8
    for n in range(5, 8):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                oracle = Counter(w.coeffs for _, _, w in tensor_highest_weights(n, p, q))
                predicted = Counter(
                    weight_of_pair(n, a, c).coeffs for a, c in predicted_components(n, p, q)
                )
                assert oracle == predicted, (n, p, q)


def test_each_threshold_is_where_the_products_of_its_weight_stop_colliding():
    # of weight L_a + L_c, the distinct products number sum |L| * |R| over the paired weight
    # classes from the threshold of (a, c) through n + 2, and fewer below it: a witness of the
    # threshold that needs neither Freudenthal multiplicities nor a peel
    constituents = 0
    for n in range(2, 7):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                records = {target.coeffs: (formed, pairs)
                           for target, _, formed, pairs, _ in products._weight_pairs(n, p, q)}
                for (a, c), threshold in predicted_components(n, p, q).items():
                    recorded, pairs = records[weight_of_pair(n, a, c).coeffs]
                    formed = sum(len(lw) * len(rw) for lw, rw in pairs)
                    assert formed == recorded, (n, p, q, a, c)
                    for m in range(1, n + 3):
                        spec = ProductSpec(n, p, q, m)
                        distinct = len(products._distinct_products(pairs, spec))
                        assert distinct <= formed and (distinct == formed) == (m >= threshold), spec
                    constituents += 1
    assert constituents == 411


def _residue(n, coeffs):  # a weight's balanced base-256 digits, reduced modulo 256**n - 1
    return sum(w << 8 * i for i, w in enumerate(coeffs)) % (256**n - 1)


def test_an_idents_residue_is_its_weight_at_every_shift():
    # 256**n is 1 modulo 256**n - 1, so a packed int reduces to its weight's digits, whatever
    # the shifts of its variables; weight digits in [-64, 64) never wrap, so distinct weights
    # keep distinct residues
    for n in range(2, 9):
        fold, weights = 256**n - 1, {}
        for k in range(1, n + 1):
            for x in fundamental_crystal(n, k):
                residue = x.ident() % fold
                assert residue == _residue(n, x.weight().coeffs), (n, k, x)
                weights.setdefault(residue, set()).add(x.weight())
                for m in (2, n + 2):
                    assert helpers.shifted(x, m - 1).ident() % fold == residue, (n, k, x, m)
        assert all(len(ws) == 1 for ws in weights.values()), n
    # the residue of a product at any shift m is the sum of its factors' residues
    for n in range(2, 6):
        fold = 256**n - 1
        crystals = [[x.ident() for x in fundamental_crystal(n, k)] for k in range(1, n + 1)]
        for left in crystals:
            for right in crystals:
                for m in range(1, n + 3):
                    shift = 8 * n * (m - 1)
                    assert all(((x << shift) + y) % fold == (x % fold + y % fold) % fold
                               for x in left for y in right), (n, m)


def test_residue_pairs_are_the_weight_class_pairs():
    # the pairs that grouping the factors by Monomial.weight() forms, target by target
    for n in range(2, 6):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                left, right = {}, {}
                for classes, k in ((left, p), (right, q)):
                    # by decreasing int, the order of the packed crystal the classes are read from
                    for x in sorted(fundamental_crystal(n, k), key=Monomial.ident, reverse=True):
                        classes.setdefault(x.weight().coeffs, []).append(x.ident())
                for target, _, formed, pairs, refusal in products._weight_pairs(n, p, q):
                    expected = [  # the classes are kept as tuples
                        (tuple(lw), tuple(rw)) for w, lw in left.items()
                        if (rw := right.get(tuple(t - x for t, x in zip(target.coeffs, w))))
                    ]
                    assert pairs == expected, (n, p, q, target)
                    assert formed == sum(len(lw) * len(rw) for lw, rw in expected)
                    assert refusal == f"lengths {p} and {q} at rank {n}, products of weight {target}"


# -- lengths above n ----------------------------------------------------------------


def test_lengths_above_n_fold_down_one_shift_up_per_step():
    # the length-k set at base m is the length-(2n - k) set at base m + k - n, so
    # every product of fundamental sets is one of a ProductSpec; length 2n is the unit
    for n in range(2, 5):
        for k in range(n + 1, 2 * n):
            for m in (-1, 0, 1, 2, 3):
                assert m_k_set(n, k, m) == m_k_set(n, 2 * n - k, m + k - n), (n, k, m)
        assert m_k_set(n, 2 * n, 1) == (Monomial.one(n),)


# -- exhaustive verification -----------------------------------------------------------


def test_verify_range_rank2(capsys):
    cells = verify_range(2, 6)
    assert len(cells) == 2 * 2 * 6
    assert [spec for spec, found, predicted in cells if found != predicted] == []
    spec, found, predicted = cells[0]
    assert found == predicted == product_decomposition_closed_form(spec)
    assert main(["verify", "--n-max", "2", "--m-max", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cells) + 1
    summary = json.loads(lines[-1])
    assert summary["mismatches"] == 0
    cell = json.loads(lines[0])
    assert cell["match"] is True
    assert {"n", "p", "q", "m", "bruteforce", "predicted"} <= set(cell)
    assert (cell["n"], cell["p"], cell["q"], cell["m"]) == (spec.n, spec.p, spec.q, spec.m)


def test_decomposition_json_shape(capsys):
    code = main(["decompose-product", "--rank", "2", "--p", "1", "--q", "1", "--m", "2",
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["n"] == 2 and doc["m"] == 2
    assert [
        (c["a"], c["c"], c["size"]) for c in doc["components"]
    ] == [(0, 2, 5), (1, 1, 10)]
    assert doc["components"][0]["hw"] == "Y2(1)"
    assert doc["components"][0]["lambda"] == [0, 1]


def test_no_multiplicity_in_bruteforce():
    for n, p, q, m in [(2, 2, 2, 5), (3, 2, 3, 6), (3, 3, 3, 7)]:
        dec = decompose_product_bruteforce(ProductSpec(n, p, q, m))
        counts = Counter(decomposition_pairs(dec))
        assert all(v == 1 for v in counts.values())


def test_spec_validation():
    with pytest.raises(ValueError):
        ProductSpec(2, 0, 1, 1)
    with pytest.raises(ValueError):
        ProductSpec(2, 1, 3, 1)
    with pytest.raises(ValueError):
        ProductSpec(2, 1, 1, 0)
    with pytest.raises(ValueError, match="index p=True"):
        ProductSpec(2, True, 1, 1)
    with pytest.raises(ValueError, match="m=True must be an integer"):
        ProductSpec(2, 1, 1, True)
    with pytest.raises(ValueError, match="m=1.0 must be an integer"):
        ProductSpec(2, 1, 1, 1.0)
    assert ProductSpec(n=2, p=1, q=1, m=1) == ProductSpec(2, 1, 1, 1)
    with pytest.raises(ValueError, match="rank must be an integer >= 2, got 1"):
        ProductSpec(1, 1, 1, 1)
    assert repr(ProductSpec(5, 3, 3, 2)) == "ProductSpec(n=5, p=3, q=3, m=2)"
    with pytest.raises(ValueError, match="m_max=True must be an integer"):
        verify_range(2, True)
    with pytest.raises(ValueError, match="m_max=1.5 must be an integer"):
        verify_range(2, 1.5)
    with pytest.raises(ValueError, match="rank must be an integer"):
        verify_range(True, 1)
