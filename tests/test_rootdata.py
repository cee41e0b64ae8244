import itertools
from collections import Counter
from math import comb

import pytest
from hypothesis import given, strategies as st

from cncrystal.monomials import m_k_set
from cncrystal.products import fundamental_crystal
from cncrystal.rootdata import (
    Weight,
    check_index,
    check_rank,
    letter_alphabet,
    weight_multiplicity,
    weyl_dimension,
)
from cncrystal.tableaux import column_crystal
from helpers import cartan_entry, simple_root


def test_cartan_entries_rank4():
    assert cartan_entry(4, 3, 4) == -2
    assert cartan_entry(4, 4, 3) == -1
    assert cartan_entry(4, 2, 2) == 2
    assert cartan_entry(4, 1, 3) == 0
    assert cartan_entry(4, 2, 1) == -1


def test_cartan_matrix_rank2():
    rows = [[cartan_entry(2, i, j) for j in (1, 2)] for i in (1, 2)]
    assert rows == [[2, -2], [-1, 2]]


@pytest.mark.parametrize("bad", [(0, 1), (1, 5), (5, 0)])
def test_cartan_entry_range_errors(bad):
    with pytest.raises(ValueError):
        cartan_entry(4, *bad)


def test_letter_alphabet_order():
    assert letter_alphabet(3) == (1, 2, 3, -3, -2, -1)


def test_rank_must_be_at_least_two():
    with pytest.raises(ValueError):
        check_rank(1)
    with pytest.raises(ValueError):
        Weight((1,))


def test_simple_roots():
    assert simple_root(2, 2).coeffs == (-2, 2)
    assert simple_root(2, 2).to_epsilon() == (0, 2)
    assert simple_root(3, 1).coeffs == (2, -1, 0)
    assert simple_root(3, 2).to_epsilon() == (0, 1, -1)
    # epsilon-coordinates follow the short/long root pattern
    for n in range(2, 6):
        for i in range(1, n):
            eps = [0] * n
            eps[i - 1], eps[i] = 1, -1
            assert simple_root(n, i).to_epsilon() == tuple(eps)
        eps = [0] * n
        eps[-1] = 2
        assert simple_root(n, n).to_epsilon() == tuple(eps)


def test_pairing_against_cartan_columns():
    for n in range(2, 6):
        for i in range(1, n + 1):
            alpha = simple_root(n, i)
            for j in range(1, n + 1):
                assert alpha.coeffs[j - 1] == cartan_entry(n, j, i)


def test_pairing_and_dominance():
    lam2 = Weight.fundamental(3, 2)
    assert lam2.coeffs[1] == 1
    assert lam2.coeffs[0] == 0
    assert not Weight((1, -1)).is_dominant()
    double = Weight.fundamental(5, 3) + Weight.fundamental(5, 3)
    assert double.coeffs == (0, 0, 2, 0, 0)
    assert double.is_dominant()


def test_weight_arithmetic_rank_mismatch():
    with pytest.raises(ValueError):
        Weight((1, 0)) + Weight((1, 0, 0))
    with pytest.raises(TypeError, match="^expected Weight, got tuple$"):
        Weight((1, 0)) + (1, 0)


def test_basis_convert_examples():
    assert Weight.fundamental(3, 2).to_epsilon() == (1, 1, 0)
    assert Weight.from_epsilon((1, 0, -1)).coeffs == (1, 1, -1)
    assert Weight.zero(4).to_epsilon() == (0, 0, 0, 0)
    assert Weight.from_epsilon((0, 0, 0, 0)) == Weight.zero(4)


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(*([st.integers(-20, 20)] * n))))
def test_basis_convert_roundtrip(coeffs):
    w = Weight(coeffs)
    assert Weight.from_epsilon(w.to_epsilon()) == w
    eps = coeffs  # reuse arbitrary integers as epsilon-coordinates too
    assert Weight.from_epsilon(eps).to_epsilon() == eps


def test_weight_text_and_json():
    assert str(Weight((0, 0))) == "0"
    assert str(Weight((2, 0, 1))) == "2Λ1+Λ3"


def test_fundamental_zero_convention():
    assert Weight.fundamental(4, 0) == Weight.zero(4)


def test_non_integer_coefficients_are_rejected():
    with pytest.raises(ValueError, match=r"weight coefficient 1\.5 must be an integer"):
        Weight([1.5, -0.5])
    with pytest.raises(ValueError, match="must be an integer"):
        Weight.from_epsilon([1.9, 0.2])
    # bool is an int subclass, but True is not a coefficient or an index
    with pytest.raises(ValueError, match="weight coefficient True must be an integer"):
        Weight([True, 0])
    with pytest.raises(ValueError, match="epsilon coordinate True must be an integer"):
        Weight.from_epsilon([True, 0])
    with pytest.raises(ValueError, match="epsilon coordinate '1' must be an integer"):
        Weight.from_epsilon(["1", "0"])
    with pytest.raises(ValueError, match="rank must be an integer"):
        check_rank(True)
    with pytest.raises(ValueError, match="index i=True out of range"):
        check_index(3, True)
    with pytest.raises(ValueError, match="index i='1' out of range"):
        check_index(3, "1")
    assert Weight.from_epsilon([2, 1]) == Weight((1, 1))


def test_weyl_dimension_of_fundamental_weights():
    # dim V(L_k) = C(2n, k) - C(2n, k-2), the size of the fundamental crystal
    for n in range(2, 7):
        for k in range(1, n + 1):
            expected = comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
            dimension = weyl_dimension(Weight.fundamental(n, k))
            assert dimension == expected == len(fundamental_crystal(n, k))


def test_weyl_dimension_of_the_zero_weight_is_one():
    for n in range(2, 7):
        assert weyl_dimension(Weight.zero(n)) == 1


def test_weyl_dimension_sizes_the_rank5_p4_q5_components():
    # the component sizes criterion 3 asserts for the C5 (4,5) product
    weights = [(0, 0, 0, 1, 1), (0, 0, 1, 1, 0), (0, 1, 1, 0, 0), (1, 1, 0, 0, 0), (1, 0, 0, 0, 0)]
    assert [weyl_dimension(Weight(w)) for w in weights] == [9438, 9152, 2860, 320, 10]


def test_weyl_dimension_rejects_a_non_dominant_weight():
    with pytest.raises(ValueError, match="needs a dominant weight"):
        weyl_dimension(Weight((1, -1)))
    with pytest.raises(ValueError, match="needs a dominant weight"):
        weyl_dimension(simple_root(3, 2))


def _orbit_size(eps):
    """|W mu| by brute force: the distinct signed permutations of mu's epsilon-coordinates."""
    return len({
        tuple(s * x for s, x in zip(signs, perm))
        for perm in set(itertools.permutations(eps))
        for signs in itertools.product((1, -1), repeat=len(eps))
    })


def test_weight_multiplicities_add_up_to_the_weyl_dimension():
    # every weight of V(L_a + L_c) has epsilon-entries at most 2 in absolute
    # value, so its dominant conjugate is a non-increasing tuple over 0..2
    for n in range(2, 8):
        # each orbit is counted once per rank, not once per highest weight
        orbits = {eps: _orbit_size(eps) for eps in itertools.product(range(3), repeat=n)
                  if list(eps) == sorted(eps, reverse=True)}
        for a in range(n + 1):
            for c in range(max(a, 1), n + 1):
                highest = Weight.fundamental(n, a) + Weight.fundamental(n, c)
                total = sum(
                    orbit * weight_multiplicity(highest, Weight.from_epsilon(eps))
                    for eps, orbit in orbits.items()
                )
                assert total == weyl_dimension(highest), (n, a, c)


def test_weight_multiplicities_count_the_fundamental_monomial_sets():
    for n in range(2, 7):
        for k in range(1, n + 1):
            highest = Weight.fundamental(n, k)
            counts = Counter(x.weight() for x in m_k_set(n, k, 1))
            for weight, count in counts.items():
                assert weight_multiplicity(highest, weight) == count, (n, k, weight)
            # weights outside the set have multiplicity 0
            assert weight_multiplicity(highest, Weight.from_epsilon((2,) + (0,) * (n - 1))) == 0
            assert sum(counts.values()) == weyl_dimension(highest)


def test_weight_multiplicities_count_the_column_crystals():
    for n in range(2, 6):
        for length in range(1, n + 1):
            highest = Weight.fundamental(n, length)
            counts = Counter(column.weight() for column in column_crystal(n, length))
            assert {w: weight_multiplicity(highest, w) for w in counts} == counts, (n, length)


def test_weight_multiplicity_conjugates_and_checks_its_arguments():
    highest = Weight.fundamental(3, 2)
    # the zero weight of V(L_2) at rank 3 has multiplicity 14 - 12 = 2
    assert weight_multiplicity(highest, Weight.zero(3)) == 2
    # non-dominant weights take the multiplicity of their dominant conjugate
    for eps, expected in [((1, -1, 0), 1), ((-1, 0, 1), 1), ((0, 0, -1), 0)]:
        assert weight_multiplicity(highest, Weight.from_epsilon(eps)) == expected
    with pytest.raises(ValueError, match="needs a dominant highest weight"):
        weight_multiplicity(simple_root(3, 2), Weight.zero(3))
    with pytest.raises(ValueError, match="rank mismatch"):
        weight_multiplicity(highest, Weight.zero(2))
